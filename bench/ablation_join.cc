// Ablation: join strategy. The recursive members join
// rtbl ⋈ link ⋈ {assy,comp}; the navigational expand storm issues
// hundreds of point-joins. We compare:
//   * nested-loop joins only               (use_index_join = off)
//   * index joins over the shared table index (default)
// and report local wall time plus the engine's join counters, summed
// over every statement of the action. The bench exits non-zero when a
// counter that must move stays 0 (nlj-only without nested-loop probes,
// index without index probes), or when an index row counts a
// nested-loop probe: every join these actions issue is an index join.

#include <chrono>
#include <cstdio>

#include "bench_util.h"

namespace pdm::bench {
namespace {

using Clock = std::chrono::steady_clock;
using model::ActionKind;
using model::StrategyKind;

int Run() {
  PrintBanner("Ablation: nested-loop joins vs index joins");
  std::printf("%-18s %-22s %-10s %10s %14s %14s\n", "shape", "workload",
              "joins", "wall-ms", "nlj-probes", "index-probes");

  struct Case {
    model::TreeParams tree;
    StrategyKind strategy;
    ActionKind action;
    const char* label;
  };
  const Case cases[] = {
      {{3, 9, 0.6}, StrategyKind::kRecursive, ActionKind::kMultiLevelExpand,
       "recursive MLE"},
      {{5, 5, 0.6}, StrategyKind::kRecursive, ActionKind::kMultiLevelExpand,
       "recursive MLE"},
      {{5, 5, 0.6}, StrategyKind::kNavigationalEarly,
       ActionKind::kMultiLevelExpand, "navigational storm"},
  };

  for (const Case& c : cases) {
    for (bool index_join : {false, true}) {
      model::NetworkParams net;
      client::ExperimentConfig config = MakeExperimentConfig(c.tree, net);
      Result<std::unique_ptr<client::Experiment>> experiment =
          client::Experiment::Create(config);
      if (!experiment.ok()) {
        std::fprintf(stderr, "setup failed: %s\n",
                     experiment.status().ToString().c_str());
        return 1;
      }
      Database& db = (*experiment)->server().database();
      db.options().binder.use_index_join = index_join;

      Clock::time_point start = Clock::now();
      Result<client::ActionResult> result =
          (*experiment)->RunAction(c.strategy, c.action);
      Clock::time_point end = Clock::now();
      if (!result.ok()) {
        std::fprintf(stderr, "action failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      // The server keeps no join counters, so the action runs once more
      // under an unbounded statement log (the α=5,ω=5 storm nears the
      // default ring) and each logged statement is replayed with its
      // own ExecStats; the timed run above stays unlogged.
      DbServer& server = (*experiment)->server();
      server.mutable_config().statement_log_capacity = 0;
      server.EnableStatementLog(true);
      if (!(*experiment)->RunAction(c.strategy, c.action).ok()) return 1;
      server.EnableStatementLog(false);
      size_t nl_probes = 0;
      size_t index_probes = 0;
      for (const DbServer::StatementLogEntry& entry : server.statement_log()) {
        ExecStats stats;
        Status status = db.Execute(entry.sql, nullptr, &stats);
        if (!status.ok()) {
          std::fprintf(stderr, "replay failed: %s\n",
                       status.ToString().c_str());
          return 1;
        }
        nl_probes += stats.nl_join_probes;
        index_probes += stats.index_join_probes;
      }
      std::printf("α=%d,ω=%d %10s %-22s %-10s %10.2f %14zu %14zu\n",
                  c.tree.depth, c.tree.branching, "", c.label,
                  index_join ? "index" : "nlj-only",
                  std::chrono::duration<double>(end - start).count() * 1000,
                  nl_probes, index_probes);
      if ((index_join ? index_probes : nl_probes) == 0) {
        std::fprintf(stderr, "%s: no %s probes counted\n", c.label,
                     index_join ? "index" : "nested-loop");
        return 1;
      }
      if (index_join && nl_probes > 0) {
        std::fprintf(stderr, "%s: %zu nested-loop probes with index joins\n",
                     c.label, nl_probes);
        return 1;
      }
    }
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace pdm::bench

int main() { return pdm::bench::Run(); }
