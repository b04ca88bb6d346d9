#ifndef PDM_CATALOG_TABLE_H_
#define PDM_CATALOG_TABLE_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/column_store.h"
#include "catalog/schema.h"
#include "common/status.h"
#include "common/value.h"

namespace pdm {

/// Undo log of one DML statement: enough to roll a failed statement
/// back so its half-applied versions can never become visible once the
/// commit clock later passes their timestamps.
struct TableUndo {
  struct KilledVersion {
    class Table* table;
    size_t pos;
  };
  struct AppendedVersion {
    class Table* table;
    size_t pos;
  };
  std::vector<KilledVersion> killed;
  std::vector<AppendedVersion> appended;

  /// Reopens killed versions and marks appended ones dead-on-arrival
  /// (end = begin, invisible to every snapshot and GC-able).
  void Rollback();
};

/// In-memory multi-versioned COLUMN-MAJOR row store for one table
/// (DESIGN.md 5h/5i). Each logical row is a chain of versions in append
/// order; a version is visible to snapshot `ts` iff
/// `begin_ts <= ts < end_ts`. Readers never block: UPDATE kills the old
/// version (end_ts := write_ts) and appends a new one, DELETE only
/// kills — concurrent scans at an older snapshot keep seeing the old
/// version. Version order is append order, so scans stay deterministic
/// and experiments reproducible.
///
/// Storage is column-major in 1024-row fragments
/// (catalog/column_store.h): per column a kind tag + 64-bit payload per
/// cell, with string payloads in a lazily allocated side array. The
/// vectorized executor (exec/vectorized.h) scans fragments directly via
/// FragmentAt(); the legacy row API survives as an adapter —
/// MaterializeRow/VersionData reassemble a Row on demand — so
/// row-at-a-time operators, DML and tools keep working during the
/// migration.
///
/// Concurrency contract: any number of readers (scans, index lookups)
/// may run concurrently with at most ONE writer (the engine serializes
/// writers under Database's DML mutex). Fragments live in a fixed-size
/// directory of atomic pointers and never move once allocated; versions
/// become reachable only when `published_` is advanced with release
/// ordering, so readers never observe a half-constructed cell.
/// PruneVersions (GC) is the only operation that moves versions and
/// requires full exclusivity (no readers, no writers).
///
/// Tables maintain lazily built per-column hash indexes (value ->
/// version positions) that executors use for equality and IN-set scans
/// and index joins. Indexes cover ALL appended versions, dead ones
/// included; readers filter candidates through VisibleAt(). Appends
/// maintain in-sync indexes incrementally, kills need no index work at
/// all, so DML no longer invalidates indexes — only GC compaction does
/// (it renumbers positions and bumps `version_`). All index state is
/// guarded by `index_mutex_`; read paths go through IndexLookup, which
/// copies matches under the mutex, never through references into maps
/// a writer may be growing.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        versions_(schema_.num_columns()) {}

  // Tables are heavyweight (own all versions); handled by pointer.
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Live (visible-at-latest) row count.
  size_t num_rows() const {
    return live_rows_.load(std::memory_order_relaxed);
  }

  /// Published version count — the exclusive scan bound for readers
  /// (every position below it is fully constructed).
  size_t num_versions() const {
    return published_.load(std::memory_order_acquire);
  }

  /// Row data of a published version, reassembled from the column
  /// fragments (adapter over the columnar layout; hot loops use
  /// MaterializeRow with a recycled scratch row instead).
  Row VersionData(size_t pos) const {
    Row row;
    versions_.MaterializeRow(pos, &row);
    return row;
  }

  /// Reassembles version `pos` into *out, reusing its element storage
  /// (string cells keep the target's heap buffer when possible).
  void MaterializeRow(size_t pos, Row* out) const {
    versions_.MaterializeRow(pos, out);
  }

  /// Single cell of a published version.
  Value Cell(size_t pos, size_t col) const { return versions_.Cell(pos, col); }

  /// Number of 1024-row fragments covering the published versions.
  size_t num_fragments() const {
    return (num_versions() + kFragmentRows - 1) >> kFragmentShift;
  }

  /// Borrowed column-major view of fragment `frag`, clipped to scan
  /// bound `bound` (callers capture `bound = num_versions()` once per
  /// scan). The vectorized executor's storage entry point.
  FragmentSpan FragmentAt(size_t frag, size_t bound) const {
    return versions_.Span(frag, bound);
  }

  /// True if version `pos` is visible to snapshot `ts`. Positions at or
  /// past the published bound are never visible (an index may briefly
  /// carry a not-yet-published position).
  bool VisibleAt(size_t pos, uint64_t ts) const {
    if (pos >= published_.load(std::memory_order_acquire)) return false;
    return MetaVisibleAt(versions_.meta(pos), ts);
  }

  /// Validates against the schema and appends one version beginning at
  /// `begin_ts` (default: the bulk-load timestamp, visible everywhere).
  Status Insert(Row row, uint64_t begin_ts = 0);

  /// Appends without validation (trusted internal callers, e.g. bulk
  /// generation that constructs rows straight from the schema).
  void InsertUnchecked(Row row, uint64_t begin_ts = 0) {
    AppendVersion(std::move(row), begin_ts, nullptr);
  }

  /// Writer primitive: appends a new version beginning at `begin_ts`
  /// and returns its position. Recorded in `undo` (if given) so a
  /// failed statement can roll it back. Single-writer only.
  size_t AppendVersion(Row row, uint64_t begin_ts, TableUndo* undo);

  /// Writer primitive: closes version `pos` at `end_ts` under
  /// first-writer-wins. Returns false — without touching anything — if
  /// the version was already killed (a writer that committed after the
  /// caller's snapshot won the race); the caller must roll back its
  /// statement and surface a retryable conflict. Single-writer only.
  bool KillVersion(size_t pos, uint64_t end_ts, TableUndo* undo);

  /// MVCC-aware convenience update: for each open (not yet killed)
  /// version matching `predicate`, kills it at `write_ts` and appends
  /// the mutated copy beginning at `write_ts`. Returns rows touched.
  /// A zero-match call touches nothing — every fresh index stays fresh.
  template <typename Pred, typename Mut>
  size_t UpdateRows(Pred predicate, Mut mutator, uint64_t write_ts) {
    const size_t bound = num_versions();
    size_t n = 0;
    Row scratch;
    for (size_t pos = 0; pos < bound; ++pos) {
      if (versions_.meta(pos).end_ts.load(std::memory_order_relaxed) !=
          kMaxCommitTs) {
        continue;  // already dead
      }
      versions_.MaterializeRow(pos, &scratch);
      if (!predicate(scratch)) continue;
      Row copy = scratch;
      mutator(copy);
      if (!KillVersion(pos, write_ts, nullptr)) continue;
      AppendVersion(std::move(copy), write_ts, nullptr);
      ++n;
    }
    return n;
  }

  /// MVCC-aware convenience delete: kills open versions matching
  /// `predicate` at `write_ts`; returns how many were killed. A
  /// zero-match call leaves every index fresh.
  template <typename Pred>
  size_t DeleteRows(Pred predicate, uint64_t write_ts) {
    const size_t bound = num_versions();
    size_t n = 0;
    Row scratch;
    for (size_t pos = 0; pos < bound; ++pos) {
      if (versions_.meta(pos).end_ts.load(std::memory_order_relaxed) !=
          kMaxCommitTs) {
        continue;
      }
      versions_.MaterializeRow(pos, &scratch);
      if (!predicate(scratch)) continue;
      if (KillVersion(pos, write_ts, nullptr)) ++n;
    }
    return n;
  }

  /// Calls `fn(row)` for every version visible at `ts`, in version
  /// (i.e. insertion) order. The row reference is to a scratch buffer
  /// valid only for the duration of the call.
  template <typename Fn>
  void ForEachVisible(uint64_t ts, Fn fn) const {
    const size_t bound = num_versions();
    Row scratch;
    for (size_t pos = 0; pos < bound; ++pos) {
      if (MetaVisibleAt(versions_.meta(pos), ts)) {
        versions_.MaterializeRow(pos, &scratch);
        fn(scratch);
      }
    }
  }

  /// Materialized copy of the rows visible at `ts` (defaults to "all
  /// committed-or-open data"); test/tooling convenience.
  std::vector<Row> SnapshotRows(uint64_t ts = kMaxCommitTs - 1) const;

  /// Garbage collection: physically removes versions dead at or before
  /// `horizon` (end_ts <= horizon) plus rolled-back versions (end ==
  /// begin), renumbering the survivors. Requires FULL exclusivity — no
  /// concurrent readers or writers (the engine's GC gate enforces
  /// this). Invalidate-only for indexes (positions shift). Returns how
  /// many versions were pruned.
  size_t PruneVersions(uint64_t horizon);

  /// Positions of versions whose `column` equals one of `keys` under
  /// ValueEq (numerics match across kinds, strings never match
  /// numbers), in ascending order without duplicates — so rows leave in
  /// scan order. Every match is copied under one acquisition of the
  /// index lock (safe next to a concurrent writer growing the same
  /// index). Builds the index on first use. NULL cells are not indexed
  /// and NULL keys match nothing, as in SQL equality. Dead and
  /// not-yet-published versions are included — filter through
  /// VisibleAt().
  void IndexLookup(size_t column, std::span<const Value> keys,
                   std::vector<size_t>* out) const;

  /// How many positions the index on `column` holds for `keys` (counted
  /// per key), if that index is fresh; nullopt, without building
  /// anything, if it is not. Scan planning picks the fresh index with
  /// the fewest candidates.
  std::optional<size_t> FreshIndexCount(size_t column,
                                        std::span<const Value> keys) const;

  /// True if an index on `column` exists and is in sync with the
  /// versions (usable without a rebuild).
  bool HasFreshIndex(size_t column) const;

  /// Records that a scan saw an equality filter on `column` without a
  /// fresh index, and returns how many such sightings came before. The
  /// vectorized router (exec/vectorized.cc) sweeps the first sighting
  /// batchwise — comparable in cost to the full pass a lazy index build
  /// would do anyway — and sends repeat offenders to the row path,
  /// whose index build then amortizes across statements.
  size_t NoteIndexDemand(size_t column) const {
    std::lock_guard<std::mutex> lock(index_mutex_);
    return index_demand_[column]++;
  }

  /// Bumped by every version append and by GC; index freshness is
  /// judged against it.
  uint64_t version() const {
    std::lock_guard<std::mutex> lock(index_mutex_);
    return version_;
  }

 private:
  friend struct TableUndo;
  friend class TableTestPeer;  // tests: pauses an append mid-way

  /// One column's hash index: key -> ascending version positions. While
  /// every indexed key is an int64 with |x| < 2^53 the index is
  /// int64-keyed (`ints`); the first other key demotes it for good to
  /// the Value-keyed `values` (past 2^53 several int64 keys share one
  /// double, so the int64 map could not answer a double probe exactly).
  /// Only one map is live at a time. The demotion, not the column type,
  /// keeps the index correct: InsertUnchecked skips type checks.
  struct CachedIndex {
    std::unordered_map<int64_t, std::vector<size_t>> ints;
    std::unordered_map<Value, std::vector<size_t>, ValueHash, ValueEq>
        values;
    bool int64_keys = true;
    uint64_t built_version = 0;  // 0 = never built (version_ starts at 1)

    /// Indexes cell `slot` of `col` at version position `pos`; NULL
    /// cells are skipped.
    void Add(const ColumnFragment& col, size_t slot, size_t pos);
    /// Positions of `key` (ValueEq), or null.
    const std::vector<size_t>* Find(const Value& key) const;
  };

  /// Stores a new version at the next position without making it
  /// visible: indexes are maintained, `published_` is not advanced.
  size_t AppendUnpublished(Row row, uint64_t begin_ts);
  /// Publishes the version AppendUnpublished stored at `pos`.
  void Publish(size_t pos, TableUndo* undo);

  /// Appends position `pos` (the about-to-publish version) to every
  /// in-sync index, bumps the table version and extends the indexed
  /// bound to cover `pos`; stale indexes stay stale.
  void MaintainIndexesForAppend(size_t pos);

  /// Marks all cached indexes stale and resets the indexed bound to the
  /// compacted version count (GC compaction renumbers positions).
  void InvalidateIndexes();

  /// Builds (or rebuilds) the index on `column` if stale, over exactly
  /// the positions `version_` covers; requires `index_mutex_` held.
  CachedIndex& EnsureIndexLocked(size_t column) const;

  std::string name_;
  Schema schema_;
  /// Column-major version storage; fragments never move under a
  /// concurrent writer, so readers' spans/positions stay valid. Only
  /// positions below `published_` are readable.
  FragmentStore versions_;
  std::atomic<size_t> published_{0};
  std::atomic<size_t> live_rows_{0};
  uint64_t version_ = 1;  // index-freshness epoch, guarded by index_mutex_
  /// Positions [0, indexed_bound_) are the ones `version_` counts,
  /// guarded by `index_mutex_`. It runs ahead of `published_` while an
  /// append sits between index maintenance and publication, so a
  /// rebuild stamped `version_` covers every position that stamp
  /// claims (a rebuild bounded by `published_` would miss that one).
  size_t indexed_bound_ = 0;
  /// Guards `indexes_` (map shape + lazy builds + incremental appends),
  /// `version_` and `indexed_bound_`.
  mutable std::mutex index_mutex_;
  mutable std::map<size_t, CachedIndex> indexes_;
  /// Equality-filter sightings per column that found no fresh index
  /// (NoteIndexDemand); guarded by `index_mutex_`.
  mutable std::map<size_t, size_t> index_demand_;
};

}  // namespace pdm

#endif  // PDM_CATALOG_TABLE_H_
