// Extension table (DESIGN.md 5h): MVCC snapshot reads under concurrent
// DML through the shared admission queue. Eight level-batched readers
// replay the multi-level expand while 0/1/2/4 writers cycle
// check-out/check-in on a shared subassembly: with the MVCC wave lanes
// reader latency stays flat as writers are added.
//
// Reports, per writer count: reader wall-clock p50/max, wave/statement/
// DML totals, server-side first-writer-wins conflicts vs client-side
// retries, and version-GC counters. Fails non-zero if
//   * any reader tree deviates from the quiesced reference,
//   * the median over interleaved reps of the reader p50 ratio, 4
//     writers over the zero-writer baseline, exceeds the flatness bound,
//   * server conflicts and client retries do not reconcile.
// Writes a Chrome-trace JSON artifact of the traced 4-writer cell
// (argv[1], default "concurrent_dml_trace.json").

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/admission_queue.h"

namespace pdm::bench {
namespace {

using model::ActionKind;
using model::StrategyKind;

constexpr size_t kReaders = 8;
constexpr size_t kWriterCycles = 3;
/// Interleaved reps of the check-out writer sweep: each rep runs the
/// 0/1/2/4-writer cells back to back, so its 4-writer/0-writer ratio
/// compares runs taken moments apart, and the gate takes the median of
/// those ratios. Ratios of independently taken p50s swung past the
/// bound on a shared machine although their medians did not move.
constexpr size_t kFlatnessReps = 7;
constexpr size_t kWriterCounts[] = {0, 1, 2, 4};

/// Reader p50 / flatness bound. Wall clock on a shared machine is
/// noisy and writer DML shares the CPU with the readers, so the bound
/// is deliberately generous.
constexpr double kFlatnessBound = 1.10;

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().counter(name).value();
}

struct Cell {
  size_t writers = 0;
  double p50_ms = 0;
  double max_ms = 0;
  size_t waves = 0;
  size_t statements = 0;
  size_t dml_statements = 0;
  size_t conflicts = 0;
  size_t conflict_retries = 0;
  bool trees_identical = true;
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Folds reps of one cell into one row: the median reader p50, the
/// worst reader, summed counters, and trees identical only if every
/// rep's were.
Cell Summarize(const std::vector<Cell>& reps) {
  Cell sum = reps.front();
  std::vector<double> p50s;
  for (size_t i = 0; i < reps.size(); ++i) {
    const Cell& c = reps[i];
    p50s.push_back(c.p50_ms);
    if (i == 0) continue;
    sum.max_ms = std::max(sum.max_ms, c.max_ms);
    sum.waves += c.waves;
    sum.statements += c.statements;
    sum.dml_statements += c.dml_statements;
    sum.conflicts += c.conflicts;
    sum.conflict_retries += c.conflict_retries;
    sum.trees_identical = sum.trees_identical && c.trees_identical;
  }
  sum.p50_ms = Median(std::move(p50s));
  return sum;
}

/// Runs one writer-count cell against a fresh deployment.
Result<Cell> RunCell(const client::ExperimentConfig& config,
                     const std::string& reference_tree, size_t writers,
                     bool trace, bool verbose) {
  Cell cell;
  cell.writers = writers;
  {
    PDM_ASSIGN_OR_RETURN(std::unique_ptr<client::Experiment> experiment,
                         client::Experiment::Create(config));
    client::Experiment& e = *experiment;
    e.server().mutable_config().batch_threads = 4;
    // Aggressive GC cadence so the bench exercises the version pruner.
    e.server().mutable_config().gc_interval_waves = 8;

    client::ConcurrentDmlOptions options;
    options.readers = kReaders;
    options.writers = writers;
    options.writer_cycles = kWriterCycles;
    // All writers work the same first-level subassembly (BFS
    // generation: the root's first child is root_obid + 1). That is the
    // realistic PDM pattern — engineers check out a subassembly, not
    // the product — and it keeps every writer contending on the same
    // rows while their DML stays small next to the readers' expands.
    options.writer_root_obid = e.product().root_obid + 1;
    if (trace) obs::Tracer::Global().Enable(true);
    PDM_ASSIGN_OR_RETURN(client::ConcurrentDmlResult run,
                         client::RunConcurrentDmlAction(e, options));
    if (trace) obs::Tracer::Global().Enable(false);

    if (verbose) {
      for (const AdmissionQueue::WaveLogEntry& w :
           e.server().admission_queue().wave_log()) {
        std::printf("  wave %llu: stmts=%zu unique=%zu subs=%zu "
                    "clients=%zu ro=%d dml=%zu conflicts=%zu\n",
                    static_cast<unsigned long long>(w.wave_id), w.statements,
                    w.unique_statements, w.submissions, w.clients,
                    w.read_only ? 1 : 0, w.dml_statements, w.conflicts);
      }
    }
    cell.p50_ms = 1e3 * Median(run.reader_wall_seconds);
    cell.max_ms = 1e3 * *std::max_element(run.reader_wall_seconds.begin(),
                                          run.reader_wall_seconds.end());
    cell.waves = run.waves;
    cell.statements = run.statements;
    cell.dml_statements = run.dml_statements;
    cell.conflicts = run.conflicts;
    cell.conflict_retries = run.conflict_retries;
    for (const client::ActionResult& r : run.reader_results) {
      if (r.tree.ToString(1 << 20) != reference_tree) {
        cell.trees_identical = false;
      }
    }
  }
  return cell;
}

int Run(const char* trace_path) {
  PrintBanner("Concurrent DML extension: MVCC snapshot reads under writers");

  const model::TreeParams tree{4, 9, 0.6};
  const model::NetworkParams net;
  client::ExperimentConfig config = MakeExperimentConfig(tree, net);

  // Quiesced reference tree for the byte-identical reader check.
  Result<std::unique_ptr<client::Experiment>> reference_experiment =
      client::Experiment::Create(config);
  if (!reference_experiment.ok()) {
    std::fprintf(stderr, "reference experiment failed: %s\n",
                 reference_experiment.status().ToString().c_str());
    return 1;
  }
  Result<client::ActionResult> reference =
      (*reference_experiment)
          ->RunAction(StrategyKind::kBatchedEarly,
                      ActionKind::kMultiLevelExpand);
  if (!reference.ok()) {
    std::fprintf(stderr, "reference run failed: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }
  const std::string reference_tree = reference->tree.ToString(1 << 20);

  const uint64_t conflicts_before = CounterValue("mvcc.write_conflicts");
  const uint64_t retries_before = CounterValue("mvcc.conflict_retries");

  std::printf("%-7s | %9s %9s | %6s %7s %5s | %9s %8s | %s\n", "writers",
              "p50(ms)", "max(ms)", "waves", "stmts", "dml", "conflicts",
              "retries", "trees");

  // PDM_BENCH_VERBOSE=1 dumps the wave log of the last 4-writer cell.
  const bool verbose = std::getenv("PDM_BENCH_VERBOSE") != nullptr;

  // Check-out/check-in writers at increasing counts: the flatness
  // claim on the realistic PDM action mix, in interleaved reps.
  constexpr size_t kCounts = std::size(kWriterCounts);
  std::vector<std::vector<Cell>> sweep(kCounts);
  std::vector<double> flatness_ratios;
  for (size_t rep = 0; rep < kFlatnessReps; ++rep) {
    for (size_t w = 0; w < kCounts; ++w) {
      const size_t writers = kWriterCounts[w];
      const bool last = rep + 1 == kFlatnessReps && w + 1 == kCounts;
      Result<Cell> cell = RunCell(config, reference_tree, writers,
                                  /*trace=*/last, verbose && last);
      if (!cell.ok()) {
        std::fprintf(stderr, "cell failed (writers=%zu): %s\n", writers,
                     cell.status().ToString().c_str());
        return 1;
      }
      sweep[w].push_back(*cell);
    }
    flatness_ratios.push_back(sweep[kCounts - 1].back().p50_ms /
                              sweep[0].back().p50_ms);
  }
  std::vector<Cell> cells;
  for (const std::vector<Cell>& reps : sweep) cells.push_back(Summarize(reps));

  for (const Cell& c : cells) {
    std::printf("%-7zu | %9.2f %9.2f | %6zu %7zu %5zu | %9zu %8zu | %s\n",
                c.writers, c.p50_ms, c.max_ms, c.waves, c.statements,
                c.dml_statements, c.conflicts, c.conflict_retries,
                c.trees_identical ? "identical" : "DEVIATE");
  }

  const uint64_t conflicts_total =
      CounterValue("mvcc.write_conflicts") - conflicts_before;
  const uint64_t retries_total =
      CounterValue("mvcc.conflict_retries") - retries_before;
  std::printf(
      "\nobs reconciliation: mvcc.write_conflicts +%llu, "
      "mvcc.conflict_retries +%llu, mvcc.gc_runs %llu, "
      "mvcc.versions_pruned %llu, mvcc.gc_deferred %llu\n",
      static_cast<unsigned long long>(conflicts_total),
      static_cast<unsigned long long>(retries_total),
      static_cast<unsigned long long>(CounterValue("mvcc.gc_runs")),
      static_cast<unsigned long long>(CounterValue("mvcc.versions_pruned")),
      static_cast<unsigned long long>(CounterValue("mvcc.gc_deferred")));

  int failures = 0;
  for (const Cell& c : cells) {
    if (!c.trees_identical) {
      std::fprintf(stderr,
                   "FAIL: reader tree deviates from the quiesced reference "
                   "(writers=%zu)\n",
                   c.writers);
      ++failures;
    }
    // Per-cell reconciliation holds whenever every writer eventually
    // succeeded (a hard error would have failed the run): one client
    // retry per server-side first-writer-wins loss.
    if (c.conflicts != c.conflict_retries) {
      std::fprintf(stderr,
                   "FAIL: %zu server conflicts vs %zu client retries "
                   "(writers=%zu)\n",
                   c.conflicts, c.conflict_retries, c.writers);
      ++failures;
    }
  }
  std::printf("per-rep reader p50 ratios, 4 writers / 0 writers:");
  for (double r : flatness_ratios) std::printf(" %.3f", r);
  std::printf("\n");
  const double flatness = Median(flatness_ratios);
  std::printf(
      "reader flatness: %.3fx the zero-writer baseline (median of %zu "
      "interleaved reps, bound %.2fx)\n",
      flatness, kFlatnessReps, kFlatnessBound);
  if (flatness > kFlatnessBound) {
    std::fprintf(stderr,
                 "FAIL: reader p50 at 4 writers is %.3fx the zero-writer "
                 "baseline (median over reps), above the %.2fx bound\n",
                 flatness, kFlatnessBound);
    ++failures;
  }

  std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Snapshot();
  Status written = obs::WriteChromeTraceFile(trace_path, spans);
  if (!written.ok()) {
    std::fprintf(stderr, "FAIL: trace artifact: %s\n",
                 written.ToString().c_str());
    ++failures;
  } else {
    std::printf("trace artifact: %s (%zu spans of the traced 4-writer "
                "cell)\n",
                trace_path, spans.size());
  }

  std::printf(
      "\n(p50/max = reader wall clock: median p50 and worst reader over "
      "%zu interleaved reps;\ncounters summed over reps. Level-batched "
      "readers vs check-out/check-in writers.)\n\n",
      kFlatnessReps);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pdm::bench

int main(int argc, char** argv) {
  return pdm::bench::Run(argc > 1 ? argv[1] : "concurrent_dml_trace.json");
}
