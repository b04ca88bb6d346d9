#ifndef PDM_ENGINE_PLAN_CACHE_H_
#define PDM_ENGINE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/value.h"
#include "plan/binder.h"
#include "plan/plan_node.h"

namespace pdm {

/// Aggregate counters of one PlanCache, exposed through DbServer next
/// to the statement log (per-statement hit/miss lives in ExecStats).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;      // LRU capacity evictions
  uint64_t invalidations = 0;  // discarded by schema-epoch/option change
  /// Always 0: entries are immutable, so no lookup ever steps around a
  /// busy one. The field stays only because wallbench/ reads it.
  uint64_t bypasses = 0;

  void Reset() { *this = PlanCacheStats{}; }
};

/// LRU cache of bound SELECT plans keyed by statement fingerprint
/// (sql/fingerprint.h). An entry is immutable once Prepare has built it.
/// A hit executes the shared plan with the statement's own parameters:
/// the executor reads a BoundLiteral that carries a param_slot from the
/// ExecContext's parameter vector, and builds the hash sets of IN-lists
/// whose items carry parameters once per execution. Nothing is written
/// into the plan, so there is no lexing, parsing or binding on a hit.
///
/// Correctness:
///  - Entries record the schema epoch and binder options they were
///    bound under; Lookup discards entries from an older epoch (DDL —
///    CREATE/DROP of tables and views — bumps the epoch) or different
///    optimizer settings.
///  - If some fingerprint parameter reached no bound literal (the binder
///    folded it into structure, e.g. a select-list or HAVING
///    expression matched against a GROUP BY expression by text;
///    BoundSelect::params_bound records coverage), the entry is
///    *exact-match only*: it is reused only when the parameters equal
///    the values it was bound with, and then runs on its bind-time
///    literals.
///
/// Thread safety (DESIGN.md 5d): all public methods may be called
/// concurrently. The LRU index, under one mutex, is the only mutable
/// state. A hit shares ownership of the const entry, so any number of
/// threads execute one plan at once, and an entry evicted or replaced
/// meanwhile lives until its last execution ends.
class PlanCache {
 public:
  struct Entry {
    BoundSelect bound;
    /// True if every fingerprint parameter reached a bound literal, so
    /// the plan serves any parameter values.
    bool parameterized = false;
    /// The parameter values the plan was bound with.
    std::vector<Value> bound_params;
    uint64_t schema_epoch = 0;
    BinderOptions binder_options;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  explicit PlanCache(size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Builds a cache entry from a freshly bound plan, deciding from the
  /// binder's coverage record whether it is fully parameterized.
  static EntryPtr Prepare(BoundSelect bound, std::vector<Value> params,
                          uint64_t schema_epoch, const BinderOptions& options);

  /// The cached entry for `key` that may run with `params`, or null on
  /// a miss, on invalidation (different schema epoch / binder options),
  /// or when an exact-match-only entry was bound with other values.
  EntryPtr Lookup(const std::string& key, const std::vector<Value>& params,
                  uint64_t schema_epoch, const BinderOptions& options);

  /// Inserts (or replaces) the entry under `key`, evicting LRU entries
  /// beyond capacity.
  void Insert(const std::string& key, EntryPtr entry);

  /// Drops every entry.
  void Flush();

  /// Shrinking below the current size evicts LRU entries immediately.
  void set_capacity(size_t capacity);

  size_t capacity() const;
  size_t size() const;
  PlanCacheStats stats() const;
  void ResetStats();

  static constexpr size_t kDefaultCapacity = 128;

 private:
  using LruList = std::list<std::pair<std::string, EntryPtr>>;

  void EraseLocked(const std::string& key);
  void EvictToCapacityLocked();

  mutable std::mutex mutex_;  // guards everything below
  size_t capacity_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  PlanCacheStats stats_;
};

}  // namespace pdm

#endif  // PDM_ENGINE_PLAN_CACHE_H_
