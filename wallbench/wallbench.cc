// Wall-clock PDM action benchmark: runs one closed-loop workload against
// the simulated deployment, checks every action against its reference,
// and prints its metrics by name with units. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   wallbench --workload navigate|engine-scan|contended --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 reports the end-to-end metrics of one untraced window of S
// seconds. --trace 1 splits the S seconds into an untraced window and a
// traced window (half the run, at most 4 s), replays the traced
// statements through the per-stage public calls, writes the spans as
// Chrome trace JSON to DIR/<workload>.trace.json and reports the
// per-layer metrics. Exits non-zero if any action or invariant is wrong
// or a span was dropped.

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "obs/export.h"

namespace pdm::wallbench {
namespace {

/// Set-up repeats at least kMinSetupReps times and until kSetupBudgetS
/// seconds have passed (at most kMaxSetupReps times); setup_s is the
/// median. Small deployments thus get enough repetitions for a steady
/// median without stretching the large one's run.
constexpr int kMinSetupReps = 4;
constexpr int kMaxSetupReps = 30;
constexpr double kSetupBudgetS = 3.0;

/// Longest traced window of a --trace 1 run; the rest of the run is the
/// untraced window. Bounds the span and statement-log memory and the size
/// of the Chrome trace file.
constexpr double kMaxTracedS = 4.0;

/// The end-to-end action metrics cut the untraced window into kSlices
/// equal slices of completion time, compute their figure in every slice
/// and report quantile kFastSlices of the slice figures (latency; the
/// mirror quantile for throughput), i.e. the figure of the fastest
/// quarter of the window. A shared host has slow phases that last tens of
/// seconds and cover part of a run; they leave this figure alone, while a
/// slower program moves every slice.
constexpr size_t kSlices = 6;
constexpr double kFastSlices = 0.25;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseOptions(int argc, char** argv, Options* options) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && options->seconds > 0 &&
                     options->seconds <= 120;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      options->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out-dir") {
      options->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         MakeWorkload(options->workload, options->seed) != nullptr;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is kB
}

void PrintSlices(const char* label, const std::vector<double>& values,
                 double scale) {
  std::printf("  %s by slice:", label);
  for (double value : values) std::printf(" %.1f", value * scale);
  std::printf("\n");
}

void PrintActions(const char* label, const Window& window) {
  std::printf("\n%s window: %.3f s, %zu actions\n", label, window.wall_s,
              window.samples.size());
  std::printf("  %-9s %8s %10s %10s %10s %10s %8s\n", "action", "count",
              "mean-ms", "p50-ms", "p90-ms", "max-ms", "failed");
  for (size_t i = 0; i < kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    const std::vector<double> walls = WallTimes(window, op);
    if (walls.empty()) continue;
    size_t failed = 0;
    for (const Sample& sample : window.samples) {
      failed += sample.op == op && !sample.ok ? 1 : 0;
    }
    double sum = 0;
    for (double wall : walls) sum += wall;
    std::printf("  %-9s %8zu %10.3f %10.3f %10.3f %10.3f %8zu\n", OpName(op),
                walls.size(), sum / static_cast<double>(walls.size()) * 1e3,
                Quantile(walls, 0.5) * 1e3,
                Quantile(walls, 0.9) * 1e3, Quantile(walls, 1.0) * 1e3,
                failed);
  }
  std::printf("  mle drift, last vs first quarter: %+.3f\n",
              DriftRatio(window, Op::kMle));
  std::vector<double> by_variant;
  for (size_t variant = 0;; ++variant) {
    std::vector<double> walls;
    for (const Sample& sample : window.samples) {
      if (sample.op == Op::kMle && sample.variant == variant) {
        walls.push_back(sample.wall_s);
      }
    }
    if (walls.empty()) break;
    by_variant.push_back(Quantile(walls, 0.5));
  }
  std::printf("  mle p50-ms by strategy:");
  for (double p50 : by_variant) std::printf(" %.1f", p50 * 1e3);
  std::printf("\n");
  PrintSlices("mle p50-ms", SliceQuantiles(window, Op::kMle, 0.5, kSlices),
              1e3);
  PrintSlices("mle p90-ms", SliceQuantiles(window, Op::kMle, 0.9, kSlices),
              1e3);
  PrintSlices("actions/s", SliceRates(window, kSlices), 1);
}

size_t Failures(const Window& window) {
  size_t failed = 0;
  for (const Sample& sample : window.samples) failed += sample.ok ? 0 : 1;
  return failed;
}

std::string MetricsJson(bool correct, size_t attempted, size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  return json;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "wallbench: %s\n", status.ToString().c_str());
  return 1;
}

int Run(const Options& options) {
  std::printf("wallbench: workload %s, seed %llu, %.0f s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);

  // Set-up, repeated: create the deployment and run the warm-up pass
  // that computes the references. Only the last repetition is kept.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup, generate, warmup;
  double setup_total = 0;
  for (int rep = 0; rep < kMaxSetupReps &&
                    (rep < kMinSetupReps || setup_total < kSetupBudgetS);
       ++rep) {
    workload.reset();
    workload = MakeWorkload(options.workload, options.seed);
    MoveToCpu(static_cast<size_t>(rep));
    const Clock::time_point t0 = Clock::now();
    if (Status s = workload->Create(); !s.ok()) return Fail(s);
    const Clock::time_point t1 = Clock::now();
    if (Status s = workload->WarmUp(); !s.ok()) return Fail(s);
    const Clock::time_point t2 = Clock::now();
    generate.push_back(SecondsBetween(t0, t1));
    warmup.push_back(SecondsBetween(t1, t2));
    setup.push_back(SecondsBetween(t0, t2));
    setup_total += setup.back();
  }
  const SetupTimes setup_times{Quantile(generate, 0.5), Quantile(warmup, 0.5)};
  std::printf("set-up: median %.3f s over %zu repetitions (generate %.3f s, "
              "warm-up %.3f s)\n",
              Quantile(setup, 0.5), setup.size(), setup_times.generate_s,
              setup_times.warmup_s);

  DbServer& server = workload->experiment().server();
  const double traced_s =
      options.trace ? std::min(options.seconds / 2, kMaxTracedS) : 0;
  const double untraced_s = options.seconds - traced_s;
  Window untraced;
  server.ResetObservability();
  if (Status s = workload->Run(untraced_s, &untraced); !s.ok()) return Fail(s);
  const WindowCounters counters = ReadCounters(server);
  PrintActions("untraced", untraced);

  std::vector<Metric> metrics;
  size_t attempted = untraced.samples.size();
  size_t failed = Failures(untraced);
  bool correct = true;
  if (options.trace) {
    TracedWindow traced;
    if (Status s = RunTracedWindow(*workload, traced_s, &traced);
        !s.ok()) {
      return Fail(s);
    }
    PrintActions("traced", traced.window);
    attempted += traced.window.samples.size();
    failed += Failures(traced.window);
    if (traced.dropped_spans != 0) {
      std::fprintf(stderr, "wallbench: traced run invalid, %zu spans dropped\n",
                   traced.dropped_spans);
      correct = false;
    }
    const std::string path =
        options.out_dir + "/" + options.workload + ".trace.json";
    if (Status s = obs::WriteChromeTraceFile(path, traced.spans); !s.ok()) {
      return Fail(s);
    }
    std::printf("chrome trace: %s (%zu spans)\n", path.c_str(),
                traced.spans.size());
    Result<std::vector<Metric>> layers =
        LayerMetrics(*workload, untraced, counters, traced, setup_times);
    if (!layers.ok()) return Fail(layers.status());
    metrics = std::move(*layers);
  } else {
    metrics = {
        {"setup_s", Quantile(setup, 0.5), "s"},
        {"mle_p50_ms",
         Quantile(SliceQuantiles(untraced, Op::kMle, 0.5, kSlices),
                  kFastSlices) *
             1e3,
         "ms"},
        {"actions_per_s",
         Quantile(SliceRates(untraced, kSlices), 1 - kFastSlices), "1/s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    std::printf("\nend-to-end metrics:\n");
    for (const Metric& metric : metrics) {
      std::printf("  %-16s %14.6f %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }

  // Invariants of the whole run.
  if (Status s = workload->Verify(); !s.ok()) {
    std::fprintf(stderr, "wallbench: %s\n", s.ToString().c_str());
    correct = false;
  }
  // Version GC runs after every gc_interval_waves DML-carrying waves and
  // may defer while a snapshot is live; over several intervals it must
  // have run at least once.
  size_t dml_waves = 0;
  for (const AdmissionQueue::WaveLogEntry& wave : counters.waves) {
    dml_waves += wave.dml_statements > 0 ? 1 : 0;
  }
  if (dml_waves >= 4 * server.config().gc_interval_waves &&
      counters.gc_runs == 0) {
    std::fprintf(stderr,
                 "wallbench: no version GC ran in %zu DML-carrying waves\n",
                 dml_waves);
    correct = false;
  }
  if (failed != 0) {
    std::fprintf(stderr, "wallbench: %zu of %zu actions wrong\n", failed,
                 attempted);
    correct = false;
  }
  std::printf("%s\n", MetricsJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pdm::wallbench

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // glibc creates a malloc arena whenever a thread finds the others'
  // locked, up to eight per CPU, so how many a multi-client run ends up
  // with - and its peak resident memory - varies from run to run (31 to
  // 40 MB on contended). A cap of two makes peak_rss_mb repeat within
  // 3%; measured on a 4-vCPU VM it leaves the contended workload's action
  // times unchanged (a cap of one slows them by a third).
  mallopt(M_ARENA_MAX, 2);
#endif
  pdm::wallbench::Options options;
  if (!pdm::wallbench::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload navigate|engine-scan|contended "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  return pdm::wallbench::Run(options);
}
