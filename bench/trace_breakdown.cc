// Per-component reconciliation of the tracer against the cost model
// (DESIGN.md 5f): runs the Table 2/3/4 actions over the paper's grid
// with tracing enabled, sums the recorded spans by model term, and
// asserts that
//   * the traced t_lat sum matches eq. (2) evaluated on the realized
//     round-trip count,
//   * the traced t_transfer sum matches eq. (3) evaluated on the
//     realized packet/byte counts,
//   * the traced t_server sum matches the server-cost model recomputed
//     independently from the statement log,
//   * t_lat + t_transfer reproduces the WAN link's total exactly,
// each within 1% (the first three are exact in practice; the tolerance
// absorbs floating-point accumulation order). Closed-form deviations
// against model::Predict are printed for reference — those carry the
// stochastic sigma realization and are NOT asserted here (the
// simulation-agreement tests own that bound).
//
// Also writes one representative action's spans as Chrome trace-event
// JSON (chrome://tracing / Perfetto): --json PATH, default
// trace_breakdown.json. Exits non-zero on any reconciliation failure.
//
// Telemetry surfaces (DESIGN.md 5k), accumulated across the whole grid
// (each net scenario runs under its own site label):
//  * per-site / per-class p50/p99/p999 quantile table from the
//    dimensioned "server.statement_sim_seconds" histograms;
//  * the merged slow-query top-K across all cells — gated: the single
//    most expensive statement must be a recursive expand;
//  * --metrics PATH writes the versioned metrics JSON snapshot,
//    --slow PATH the slow-query records (both consumed by CI).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "server/db_server.h"
#include "server/slow_query_log.h"

namespace pdm::bench {
namespace {

using model::ActionKind;
using model::StrategyKind;

struct CellCheck {
  double measured = 0;
  double expected = 0;

  double deviation() const {
    if (expected == 0 && measured == 0) return 0;
    if (expected == 0) return 1;
    return std::fabs(measured - expected) / expected;
  }
};

/// t_server recomputed from the statement log — an independent pass
/// over the same per-statement facts the spans were charged from.
/// Agreement means the tracer saw every executed statement exactly
/// once; coalesced fan-out slots never reached the engine and carry no
/// span, so they are skipped on both sides.
double ServerSecondsFromLog(const DbServer& server) {
  double sum = 0;
  for (const DbServer::StatementLogEntry& entry : server.statement_log()) {
    if (entry.coalesced) continue;
    sum += model::ServerSeconds(server.config().server_cost, entry.Work());
  }
  return sum;
}

struct ActionSpec {
  StrategyKind strategy;
  ActionKind action;
};

/// Site labels for the three paper network scenarios, in
/// PaperNetworkScenarios order: the 256 kbit and 512 kbit WANs and the
/// fast 1 Mbit link.
const char* SiteName(size_t net_index) {
  static const char* kSites[] = {"wan256k", "wan512k", "fast1m"};
  return net_index < 3 ? kSites[net_index] : "other";
}

int Run(const std::string& json_path, const std::string& metrics_path,
        const std::string& slow_path) {
  constexpr double kTolerance = 0.01;
  const std::vector<model::TreeParams> trees = model::PaperTreeScenarios();
  const std::vector<model::NetworkParams> nets =
      model::PaperNetworkScenarios();
  const std::vector<ActionSpec> specs = {
      {StrategyKind::kNavigationalLate, ActionKind::kQuery},
      {StrategyKind::kNavigationalLate, ActionKind::kSingleLevelExpand},
      {StrategyKind::kNavigationalLate, ActionKind::kMultiLevelExpand},
      {StrategyKind::kNavigationalEarly, ActionKind::kQuery},
      {StrategyKind::kNavigationalEarly, ActionKind::kSingleLevelExpand},
      {StrategyKind::kNavigationalEarly, ActionKind::kMultiLevelExpand},
      {StrategyKind::kRecursive, ActionKind::kMultiLevelExpand},
  };

  PrintBanner("trace_breakdown: traced spans vs eqs. (1)-(3) per component");
  std::printf(
      "%-4s %-8s %-18s %-6s | %10s %10s %10s %10s | %8s %9s\n",
      "net", "tree", "strategy", "action", "t_lat", "t_transfer", "t_server",
      "total", "max-dev", "closed-fm");

  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.set_capacity(1 << 18);
  // One fresh metrics window for the whole grid: the dimensioned
  // quantile tables below aggregate across all 63 cells, so the
  // registry resets once here and never per cell (each cell gets a
  // fresh Experiment, so statement/plan-cache/wave logs are new
  // anyway; only the tracer's span ring is cleared per cell).
  obs::MetricsRegistry::Global().ResetAll();

  size_t failures = 0;
  std::vector<obs::SpanRecord> representative;
  std::vector<SlowQueryRecord> slow_merged;
  for (size_t ni = 0; ni < nets.size(); ++ni) {
    for (size_t ti = 0; ti < trees.size(); ++ti) {
      for (const ActionSpec& spec : specs) {
        client::ExperimentConfig config =
            MakeExperimentConfig(trees[ti], nets[ni]);
        config.wan.site = SiteName(ni);
        Result<std::unique_ptr<client::Experiment>> experiment =
            client::Experiment::Create(config);
        if (!experiment.ok()) {
          std::fprintf(stderr, "experiment: %s\n",
                       experiment.status().ToString().c_str());
          return 1;
        }
        client::Experiment& e = **experiment;
        // Unbounded log for the reconciliation pass: the deepest MLE
        // ships ~3280 statements and every one must be accounted.
        e.server().mutable_config().statement_log_capacity = 0;
        e.server().EnableStatementLog(true);
        tracer.Enable(true);
        tracer.Clear();

        Result<client::ActionResult> result =
            e.RunAction(spec.strategy, spec.action);
        std::vector<obs::SpanRecord> spans = tracer.Snapshot();
        tracer.Enable(false);
        if (!result.ok()) {
          std::fprintf(stderr, "action: %s\n",
                       result.status().ToString().c_str());
          return 1;
        }

        const net::WanStats& wan = result->wan;
        obs::TermBreakdown breakdown = obs::BreakdownByTerm(spans);

        // Eqs. (1)-(3) on the realized traffic counts.
        model::TrafficCounts counts;
        counts.round_trips = static_cast<double>(wan.round_trips);
        counts.request_packets = static_cast<double>(wan.request_packets);
        counts.response_payload_bytes = wan.response_payload_bytes;
        model::ResponseTime predicted =
            model::PredictFromTraffic(nets[ni], counts);

        CellCheck checks[4] = {
            {breakdown.sim(obs::ModelTerm::kLat), predicted.latency_part},
            {breakdown.sim(obs::ModelTerm::kTransfer),
             predicted.transfer_part},
            {breakdown.sim(obs::ModelTerm::kServer),
             ServerSecondsFromLog(e.server())},
            {breakdown.sim(obs::ModelTerm::kLat) +
                 breakdown.sim(obs::ModelTerm::kTransfer),
             wan.total_seconds()},
        };
        double max_dev = 0;
        for (const CellCheck& check : checks) {
          max_dev = std::max(max_dev, check.deviation());
        }
        bool ok = max_dev <= kTolerance;
        if (!ok) ++failures;

        // Closed-form deviation (informational): eq. (1)-(6) evaluated
        // on the tree parameters, stochastic sigma realization and all.
        model::ResponseTime closed =
            model::Predict(spec.strategy, spec.action, trees[ti], nets[ni]);
        double measured_total = checks[3].measured;
        double closed_dev =
            closed.total() == 0
                ? 0
                : (measured_total - closed.total()) / closed.total();

        std::printf(
            "%-4zu a%db%d    %-18s %-6s | %10.3f %10.3f %10.5f %10.3f | "
            "%7.3f%% %8.2f%%%s\n",
            ni, trees[ti].depth, trees[ti].branching,
            std::string(model::StrategyKindName(spec.strategy)).c_str(),
            spec.action == ActionKind::kQuery ? "query"
            : spec.action == ActionKind::kSingleLevelExpand ? "sle"
                                                            : "mle",
            checks[0].measured, checks[1].measured, checks[2].measured,
            measured_total, max_dev * 100.0, closed_dev * 100.0,
            ok ? "" : "  RECONCILIATION FAILED");

        // Representative export: the richest single-trace picture —
        // navigational late MLE on the paper's headline WAN/tree.
        if (ni == 0 && ti == 0 &&
            spec.strategy == StrategyKind::kNavigationalLate &&
            spec.action == ActionKind::kMultiLevelExpand) {
          representative = std::move(spans);
        }

        // Merge this cell's slow-query top-K into the grid-wide list
        // (each cell's server — and so its slow-query log — is fresh).
        for (SlowQueryRecord& rec : e.server().slow_query_log().TopK()) {
          slow_merged.push_back(std::move(rec));
        }
      }
    }
  }

  if (!representative.empty()) {
    obs::TermBreakdown breakdown = obs::BreakdownByTerm(representative);
    std::printf("\nrepresentative action (net 0, a3b9, navigational-late "
                "mle): %zu spans\n%s",
                representative.size(),
                obs::RenderBreakdownTable(breakdown).c_str());
    Status written = obs::WriteChromeTraceFile(json_path, representative);
    if (!written.ok()) {
      std::fprintf(stderr, "trace export: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("chrome trace written to %s (load in chrome://tracing or "
                "ui.perfetto.dev)\n",
                json_path.c_str());
  }

  // Per-site / per-class quantile table from the dimensioned statement
  // histograms, accumulated over the whole grid (DESIGN.md 5k).
  std::printf("\nper-site/per-class simulated statement cost quantiles:\n");
  std::printf("%-10s %-8s %-6s %10s %12s %12s %12s\n", "site", "class",
              "engine", "count", "p50-s", "p99-s", "p999-s");
  std::vector<obs::LogHistogramSnapshot> log_hists =
      obs::MetricsRegistry::Global().LogHistogramSnapshots();
  for (const obs::LogHistogramSnapshot& h : log_hists) {
    if (h.name != "server.statement_sim_seconds" || h.total_count == 0) {
      continue;
    }
    std::string site, stmt_class, engine;
    for (const auto& [key, value] : h.labels) {
      if (key == "site") site = value;
      else if (key == "stmt_class") stmt_class = value;
      else if (key == "engine") engine = value;
    }
    std::printf("%-10s %-8s %-6s %10llu %12.6f %12.6f %12.6f\n", site.c_str(),
                stmt_class.c_str(), engine.c_str(),
                static_cast<unsigned long long>(h.total_count), h.p50, h.p99,
                h.p999);
  }

  // Grid-wide slow-query top list: the statements a DBA tuning this
  // deployment would look at first — the full-product query-all scans
  // and the recursive structure expand.
  std::sort(slow_merged.begin(), slow_merged.end(),
            [](const SlowQueryRecord& a, const SlowQueryRecord& b) {
              return a.sim_seconds > b.sim_seconds;
            });
  constexpr size_t kGlobalTopK = 16;
  if (slow_merged.size() > kGlobalTopK) slow_merged.resize(kGlobalTopK);
  std::printf("\nslow-query top %zu across the grid (by simulated cost):\n",
              slow_merged.size());
  std::printf("%-10s %-8s %-6s %12s %10s %10s  %s\n", "site", "class",
              "engine", "sim-s", "cte-rows", "rows", "sql (head)");
  for (const SlowQueryRecord& rec : slow_merged) {
    std::printf("%-10s %-8s %-6s %12.6f %10zu %10zu  %.48s\n",
                rec.site.c_str(), rec.stmt_class.c_str(), rec.engine.c_str(),
                rec.sim_seconds, rec.cte_rows_scanned,
                rec.rows_scanned, rec.sql.c_str());
  }
  // Gate: the log caught the known-slowest paper-grid statements — the
  // top entry carries real cost, and the recursive structure expand
  // (with CTE work) is the most expensive statement after the
  // query-all scans: only `scan` statements rank above it, and at most
  // kMaxScansAboveExpand of them — the query-all of both trees at each
  // of the three sites. Its link branch is an index scan (DESIGN.md
  // 5m), so even charged at the batchwise per-row rate
  // (per_row_scan_vec_s) the a7b5 full-product query-all outranks it.
  constexpr size_t kMaxScansAboveExpand = 6;
  bool expand_after_scans = false;
  for (size_t i = 0; i < slow_merged.size() && i <= kMaxScansAboveExpand;
       ++i) {
    const SlowQueryRecord& rec = slow_merged[i];
    if (rec.stmt_class == "expand" && rec.cte_rows_scanned > 0) {
      expand_after_scans = true;
      break;
    }
    if (rec.stmt_class != "scan") break;
  }
  if (slow_merged.empty() || slow_merged.front().sim_seconds <= 0 ||
      !expand_after_scans) {
    std::fprintf(stderr,
                 "\nslow-query gate FAILED: expected a recursive expand "
                 "with CTE work right behind the query-all scans in "
                 "the grid's most expensive statements\n");
    ++failures;
  }

  if (!metrics_path.empty()) {
    obs::MetricsSnapshot snapshot =
        obs::CaptureMetricsSnapshot("trace_breakdown");
    Status written = obs::WriteSnapshotJsonFile(metrics_path, snapshot);
    if (!written.ok()) {
      std::fprintf(stderr, "metrics export: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("\nmetrics snapshot written to %s (%zu log histograms)\n",
                metrics_path.c_str(), snapshot.log_histograms.size());
  }
  if (!slow_path.empty()) {
    std::string json = SlowQueryRecordsToJson(slow_merged);
    std::FILE* file = std::fopen(slow_path.c_str(), "wb");
    if (file == nullptr ||
        std::fwrite(json.data(), 1, json.size(), file) != json.size() ||
        std::fclose(file) != 0) {
      std::fprintf(stderr, "slow-query export: cannot write %s\n",
                   slow_path.c_str());
      return 1;
    }
    std::printf("slow-query records written to %s\n", slow_path.c_str());
  }

  if (failures > 0) {
    std::fprintf(stderr, "\n%zu cell(s)/gate(s) exceeded the %.0f%% "
                 "tolerance\n",
                 failures, kTolerance * 100.0);
    return 1;
  }
  std::printf("\nall cells reconciled within %.0f%%\n", kTolerance * 100.0);
  return 0;
}

}  // namespace
}  // namespace pdm::bench

int main(int argc, char** argv) {
  std::string json_path = "trace_breakdown.json";
  std::string metrics_path;
  std::string slow_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--slow") == 0 && i + 1 < argc) {
      slow_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json PATH] [--metrics PATH] [--slow PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  return pdm::bench::Run(json_path, metrics_path, slow_path);
}
