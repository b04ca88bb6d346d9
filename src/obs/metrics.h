#ifndef PDM_OBS_METRICS_H_
#define PDM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/log_histogram.h"

namespace pdm::obs {

/// Monotonic named counter. Increments are single relaxed atomic adds,
/// so counters are safe (and cheap) on the engine's hot paths. Reset
/// zeroes the value without invalidating references: registry lookups
/// return stable pointers for the life of the process.
class Counter {
 public:
  void Add(uint64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Up/down instantaneous value (queue depth, active workers). Relaxed
/// atomics like Counter; Set is for absolute readings.
class Gauge {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Sub(int64_t delta) { Add(-delta); }
  void Increment() { Add(1); }
  void Decrement() { Add(-1); }
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A small set of metric dimensions: key/value pairs, canonically
/// sorted by key (EncodeLabels sorts; registry lookups accept any
/// order). Keep label VALUES low-cardinality — site names, statement
/// classes, engine names — never SQL text or ids from an unbounded
/// space: each distinct label set is its own instrument, bounded per
/// family by the registry's cardinality guard.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Canonical encoding of a label set (sorted by key, unit separators),
/// used as the registry's map key suffix.
std::string EncodeLabels(LabelSet labels);

struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  int64_t value = 0;
};

struct LabeledCounterSnapshot {
  std::string name;
  LabelSet labels;
  uint64_t value = 0;
};

/// Pre-evaluated quantile summary of one LogHistogram (the snapshot
/// layer never ships the 4608-bucket array).
struct LogHistogramSnapshot {
  std::string name;
  LabelSet labels;  // empty for unlabeled instruments
  uint64_t total_count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double p999 = 0;
};

/// Process-wide registry of named instruments — the home of every
/// free-floating observability global (the fingerprint call counter
/// migrated here; sql/fingerprint.h keeps a shim). Lookup takes a mutex
/// once; call sites cache the returned reference: instruments are never
/// evicted and ResetAll zeroes every one IN PLACE, which is what makes
/// a full observability reset auditable — iterate the snapshots and
/// assert all-zero.
///
/// Labeled families (DESIGN.md 5k): counter(name, labels) and
/// log_histogram(name, labels) key one instrument per distinct label
/// set within the family `name`. A family is bounded to
/// kMaxLabelSetsPerFamily distinct sets; past that, lookups return the
/// family's shared overflow instrument (labels {overflow="true"}) and
/// the "obs.label_sets_dropped" counter counts the rejections — tails
/// blur under overflow rather than memory growing without bound.
class MetricsRegistry {
 public:
  static constexpr size_t kMaxLabelSetsPerFamily = 64;

  static MetricsRegistry& Global();

  /// The counter named `name`, created on first use.
  Counter& counter(std::string_view name);

  /// The counter of family `name` with dimensions `labels`.
  Counter& counter(std::string_view name, LabelSet labels);

  /// The gauge named `name`, created on first use.
  Gauge& gauge(std::string_view name);

  /// The quantile-accurate log histogram of family `name` with
  /// dimensions `labels` (empty set = the unlabeled instrument).
  LogHistogram& log_histogram(std::string_view name, LabelSet labels = {});

  void ResetAll();

  std::vector<CounterSnapshot> CounterSnapshots() const;
  std::vector<GaugeSnapshot> GaugeSnapshots() const;
  std::vector<LabeledCounterSnapshot> LabeledCounterSnapshots() const;
  std::vector<LogHistogramSnapshot> LogHistogramSnapshots() const;

 private:
  MetricsRegistry() = default;

  /// Family admission check under mutex_: true admits `encoded_key`,
  /// false redirects to the overflow instrument.
  bool AdmitLabelSetLocked(const std::string& family,
                           const std::string& encoded_key);

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  /// Labeled instruments, keyed "family\x1e<encoded labels>". The
  /// decoded label set rides along for snapshotting.
  struct LabeledCounter {
    LabelSet labels;
    Counter counter;
  };
  struct LabeledLogHistogram {
    LabelSet labels;
    LogHistogram histogram;
  };
  std::map<std::string, std::unique_ptr<LabeledCounter>, std::less<>>
      labeled_counters_;
  std::map<std::string, std::unique_ptr<LabeledLogHistogram>, std::less<>>
      log_histograms_;
  /// Distinct admitted label sets per family (overflow excluded).
  std::map<std::string, size_t, std::less<>> family_sizes_;
};

}  // namespace pdm::obs

#endif  // PDM_OBS_METRICS_H_
