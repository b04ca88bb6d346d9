// Ablation: semi-naive vs naive recursive CTE evaluation (the design
// choice behind the paper's reliance on "efficient implementations for
// the processing of recursive SQL queries", reference [10]).
//
// For each shape the same recursive tree query runs under both modes on
// a local Database (no WAN); we report wall time, iteration count and
// CTE rows touched — naive evaluation re-derives the whole frontier
// every round, so its row traffic grows quadratically with depth.

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "rules/query_builder.h"
#include "rules/query_modificator.h"

namespace pdm::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Shape {
  int depth;
  int branching;
  double sigma;
  const char* label;
};

int Run() {
  PrintBanner("Ablation: semi-naive vs naive recursion");
  std::printf("%-22s %-10s %10s %12s %14s\n", "shape", "mode", "wall-ms",
              "iterations", "cte-rows-read");

  const Shape shapes[] = {
      {3, 9, 0.6, "bushy α=3 ω=9"},
      {7, 5, 0.6, "paper α=7 ω=5"},
      {9, 3, 0.6, "deep α=9 ω=3"},
      {64, 1, 1.0, "chain α=64 ω=1"},
  };
  for (const Shape& shape : shapes) {
    for (bool semi_naive : {true, false}) {
      model::TreeParams tree{shape.depth, shape.branching, shape.sigma};
      model::NetworkParams net;  // irrelevant: local execution
      client::ExperimentConfig config = MakeExperimentConfig(tree, net);
      Result<std::unique_ptr<client::Experiment>> experiment =
          client::Experiment::Create(config);
      if (!experiment.ok()) {
        std::fprintf(stderr, "setup failed: %s\n",
                     experiment.status().ToString().c_str());
        return 1;
      }
      Database& db = (*experiment)->server().database();
      db.options().exec.semi_naive_recursion = semi_naive;

      std::unique_ptr<sql::SelectStmt> stmt =
          rules::BuildRecursiveTreeQuery((*experiment)->product().root_obid);
      rules::QueryModificator modificator(&(*experiment)->rule_table(),
                                          (*experiment)->user());
      Result<rules::ModificationSummary> mod =
          modificator.ApplyToRecursiveQuery(
              stmt.get(), rules::RuleAction::kMultiLevelExpand);
      if (!mod.ok()) {
        std::fprintf(stderr, "modification failed: %s\n",
                     mod.status().ToString().c_str());
        return 1;
      }

      ResultSet result;
      ExecStats stats;
      Clock::time_point start = Clock::now();
      Status status = db.ExecuteStatement(*stmt, &result, &stats);
      Clock::time_point end = Clock::now();
      if (!status.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      std::printf("%-22s %-10s %10.2f %12zu %14zu\n", shape.label,
                  semi_naive ? "semi-naive" : "naive",
                  std::chrono::duration<double>(end - start).count() * 1000,
                  stats.recursion_iterations,
                  stats.cte_rows_scanned);
    }
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace pdm::bench

int main() { return pdm::bench::Run(); }
