// Extension: server-side evaluation cost. The paper ignores local query
// evaluation ("transmission costs are the dominating limitation
// factor") and remarks that in higher-bandwidth environments it may
// matter. We measure it: engine rows scanned and wall time per strategy,
// per shape — the recursive statement concentrates work at the server
// but does it once.

#include <chrono>
#include <cstdio>

#include "bench_util.h"

namespace pdm::bench {
namespace {

using Clock = std::chrono::steady_clock;
using model::ActionKind;
using model::StrategyKind;

int Run() {
  PrintBanner("Extension: server-side cost per strategy (paper Section 6)");
  std::printf("%-12s %-18s %12s %14s %14s %12s\n", "shape", "strategy",
              "stmts", "rows-scanned", "cte-rows", "wall-ms");

  const model::TreeParams shapes[] = {{3, 9, 0.6}, {5, 5, 0.6}};
  for (const model::TreeParams& tree : shapes) {
    for (StrategyKind strategy :
         {StrategyKind::kNavigationalLate, StrategyKind::kNavigationalEarly,
          StrategyKind::kRecursive}) {
      model::NetworkParams net;
      client::ExperimentConfig config = MakeExperimentConfig(tree, net);
      Result<std::unique_ptr<client::Experiment>> experiment =
          client::Experiment::Create(config);
      if (!experiment.ok()) return 1;
      client::Experiment& e = **experiment;
      e.server().EnableStatementLog(true);

      // The statement log carries per-statement engine stats; we print
      // the final statement's scan counters and wall time for total
      // server work.
      Clock::time_point start = Clock::now();
      Result<client::ActionResult> result =
          e.RunAction(strategy, ActionKind::kMultiLevelExpand);
      Clock::time_point end = Clock::now();
      if (!result.ok()) {
        std::fprintf(stderr, "action failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      const std::vector<DbServer::StatementLogEntry>& log =
          e.server().statement_log();
      size_t last_rows = log.empty() ? 0 : log.back().rows_scanned;
      size_t last_cte = log.empty() ? 0 : log.back().cte_rows_scanned;
      std::printf("α=%d,ω=%d %4s %-18s %12zu %14zu %14zu %12.2f\n",
                  tree.depth, tree.branching, "",
                  std::string(model::StrategyKindName(strategy)).c_str(),
                  log.size(), last_rows, last_cte,
                  std::chrono::duration<double>(end - start).count() * 1000);
    }
  }
  std::printf(
      "\n(rows-scanned / cte-rows are those of the *last* statement; for\n"
      "the navigational strategies each of the stmts is a point lookup\n"
      "served from the column index.)\n\n");
  return 0;
}

}  // namespace
}  // namespace pdm::bench

int main() { return pdm::bench::Run(); }
