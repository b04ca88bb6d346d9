#ifndef PDM_OBS_SNAPSHOT_H_
#define PDM_OBS_SNAPSHOT_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"

namespace pdm::obs {

/// Point-in-time capture of every instrument in the metrics registry —
/// the comparable artifact the benches publish and tools/metrics_diff
/// consumes (DESIGN.md 5k). The JSON form is versioned; readers reject
/// versions they do not understand instead of misparsing them.
struct MetricsSnapshot {
  static constexpr int kVersion = 2;

  int version = kVersion;
  std::string label;  // freeform provenance (bench name, CI run, ...)
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<LabeledCounterSnapshot> labeled_counters;
  std::vector<LogHistogramSnapshot> log_histograms;
};

/// Captures the global registry. Instruments appear in registry
/// (lexicographic) order, so two captures of the same process state are
/// byte-identical.
MetricsSnapshot CaptureMetricsSnapshot(std::string label = {});

/// Versioned JSON encoding (the exact inverse of ParseSnapshotJson).
std::string SnapshotToJson(const MetricsSnapshot& snapshot);

Status WriteSnapshotJsonFile(const std::string& path,
                             const MetricsSnapshot& snapshot);

/// Parses SnapshotToJson output (tolerates unknown keys; rejects
/// malformed JSON and unsupported versions).
Result<MetricsSnapshot> ParseSnapshotJson(std::string_view json);

Result<MetricsSnapshot> ReadSnapshotJsonFile(const std::string& path);

}  // namespace pdm::obs

#endif  // PDM_OBS_SNAPSHOT_H_
