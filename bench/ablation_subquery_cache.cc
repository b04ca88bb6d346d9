// Ablation: uncorrelated-subquery caching. The paper's Section 5.3.1
// notes that its all-or-nothing encoding re-states the same subquery in
// the outer WHERE clauses, "but an intelligent query optimizer will
// recognize that the inner clause needs to be evaluated only once". We
// measure exactly that: the full recursive tree query with a ∀rows and a
// tree-aggregate rule, with the cache on vs off.

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "rules/query_builder.h"
#include "rules/query_modificator.h"
#include "sql/parser.h"

namespace pdm::bench {
namespace {

using Clock = std::chrono::steady_clock;

int Run() {
  PrintBanner("Ablation: uncorrelated subquery caching (paper 5.3.1)");
  std::printf("%-18s %-8s %10s %16s %12s\n", "shape", "cache", "wall-ms",
              "subquery-evals", "cache-hits");

  const model::TreeParams shapes[] = {{3, 9, 0.6}, {6, 4, 0.6}};
  for (const model::TreeParams& tree : shapes) {
    for (bool cached : {true, false}) {
      model::NetworkParams net;
      client::ExperimentConfig config = MakeExperimentConfig(tree, net);
      Result<std::unique_ptr<client::Experiment>> experiment =
          client::Experiment::Create(config);
      if (!experiment.ok()) {
        std::fprintf(stderr, "setup failed: %s\n",
                     experiment.status().ToString().c_str());
        return 1;
      }
      client::Experiment& e = **experiment;
      Database& db = e.server().database();
      db.options().exec.cache_uncorrelated_subqueries = cached;

      // Add a ∀rows and a tree-aggregate rule so steps A and B inject
      // subqueries into every outer SELECT.
      Result<sql::ExprPtr> pred = sql::ParseSqlExpression("dec <> 'x'");
      if (!pred.ok()) return 1;
      rules::Rule forall;
      forall.condition = std::make_unique<rules::ForAllRowsCondition>(
          "assy", std::move(*pred));
      e.rule_table().AddRule(std::move(forall));
      rules::Rule agg;
      agg.condition = std::make_unique<rules::TreeAggregateCondition>(
          AggKind::kCountStar, "", "assy", sql::BinaryOp::kLessEq,
          Value::Int64(1000000));
      e.rule_table().AddRule(std::move(agg));

      std::unique_ptr<sql::SelectStmt> stmt =
          rules::BuildRecursiveTreeQuery(e.product().root_obid);
      rules::QueryModificator modificator(&e.rule_table(), e.user());
      if (!modificator
               .ApplyToRecursiveQuery(stmt.get(),
                                      rules::RuleAction::kMultiLevelExpand)
               .ok()) {
        return 1;
      }

      ResultSet result;
      ExecStats stats;
      Clock::time_point start = Clock::now();
      Status status = db.ExecuteStatement(*stmt, &result, &stats);
      Clock::time_point end = Clock::now();
      if (!status.ok()) {
        std::fprintf(stderr, "query failed: %s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("α=%d,ω=%d %8s %-8s %10.2f %16zu %12zu\n", tree.depth,
                  tree.branching, "", cached ? "on" : "off",
                  std::chrono::duration<double>(end - start).count() * 1000,
                  stats.subquery_evaluations,
                  stats.subquery_cache_hits);
    }
  }
  std::printf("\n");
  return 0;
}

}  // namespace
}  // namespace pdm::bench

int main() { return pdm::bench::Run(); }
