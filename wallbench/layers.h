#ifndef PDM_WALLBENCH_LAYERS_H_
#define PDM_WALLBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "engine/plan_cache.h"
#include "harness.h"
#include "obs/trace.h"
#include "server/admission_queue.h"
#include "server/db_server.h"

namespace pdm::wallbench {

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Process-wide counters of one window, read right after it ended. Every
/// window starts with DbServer::ResetObservability, so they cover exactly
/// that window.
struct WindowCounters {
  uint64_t server_statements = 0;
  uint64_t fingerprint_calls = 0;
  uint64_t write_conflicts = 0;
  uint64_t gc_runs = 0;
  uint64_t versions_pruned = 0;
  double queue_wait_p50_s = 0;
  PlanCacheStats plan_cache;
  std::vector<AdmissionQueue::WaveLogEntry> waves;
};

WindowCounters ReadCounters(DbServer& server);

/// Everything a traced window leaves behind.
struct TracedWindow {
  Window window;
  std::vector<obs::SpanRecord> spans;
  size_t dropped_spans = 0;
  std::vector<DbServer::StatementLogEntry> log;
  WindowCounters counters;
};

/// Runs the workload for `seconds` with the tracer and the unbounded
/// statement log on, and harvests both.
Status RunTracedWindow(Workload& workload, double seconds, TracedWindow* out);

/// Set-up times, medians over the run's set-up repetitions.
struct SetupTimes {
  double generate_s = 0;
  double warmup_s = 0;
};

/// Nearest-rank-interpolated quantile `q` of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);

/// Wall times in seconds of the window's samples of `op`.
std::vector<double> WallTimes(const Window& window, Op op);

/// Median wall of the last quarter of the window's `op` samples over that
/// of the first quarter, minus one (0 with fewer than 8 samples).
double DriftRatio(const Window& window, Op op);

/// Cuts the window into `slices` equal spans of completion time and
/// returns, for each span in which `op` samples completed, quantile `q` of
/// their wall times: taken per Sample::variant and averaged over the
/// variants, so that a quantile of a rotation over strategies of
/// different speed does not jump between them. A low quantile of these
/// per-slice figures is barely moved by a host slowdown that covers part
/// of the slices, while a slower program moves every slice.
std::vector<double> SliceQuantiles(const Window& window, Op op, double q,
                                   size_t slices);

/// For each of `slices` equal spans of the window in which at least two
/// actions completed, the actions completed in it per second.
std::vector<double> SliceRates(const Window& window, size_t slices);

/// Replays the traced window's statements through the per-stage public
/// calls on the warm server, and derives every per-layer metric from the
/// untraced window, the traced window and the replay. Prints the
/// per-layer table and the model-vs-wall stage table.
Result<std::vector<Metric>> LayerMetrics(
    Workload& workload, const Window& untraced,
    const WindowCounters& untraced_counters, const TracedWindow& traced,
    const SetupTimes& setup);

}  // namespace pdm::wallbench

#endif  // PDM_WALLBENCH_LAYERS_H_
