// Extension table (DESIGN.md 5e): cross-client statement coalescing.
// N identical navigational sessions replay concurrently through the
// shared admission queue; the server deduplicates identical statements
// within each execution wave, so per-statement parse/plan work shrinks
// as the client count grows while every client still receives the
// byte-identical tree over unchanged per-client round trips.
//
// Sweeps client count x coalesce window and reports, per cell:
//   * waves formed, statements submitted, unique engine executions
//   * measured amortization (statements / unique) vs the closed-form
//     plan 1 / CoalescedParseCostFactor (model/cost_model.h)
//   * fingerprint (lexer) passes per statement — exactly 1.0 proves the
//     single-fingerprint batch path (no statement is ever lexed twice)
// and fails non-zero if any client's tree deviates from the solo
// uncoalesced reference run, or if an unbounded-window cell does not
// amortize by exactly the client count.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "server/admission_queue.h"
#include "sql/fingerprint.h"

namespace pdm::bench {
namespace {

using model::ActionKind;
using model::StrategyKind;

int Run() {
  PrintBanner(
      "Multi-client extension: MLE coalescing across concurrent sessions");

  const model::TreeParams tree{3, 9, 0.6};
  const model::NetworkParams net;

  // Solo uncoalesced reference: same deployment, one client, no queue.
  client::ExperimentConfig config = MakeExperimentConfig(tree, net);
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

  std::printf("%-8s %-8s | %6s %7s %7s | %8s %8s | %8s | %s\n", "clients",
              "window", "waves", "stmts", "unique", "amort", "planned",
              "fp/stmt", "trees");

  for (size_t clients : {1u, 2u, 4u, 8u}) {
    for (size_t window : {0u, 16u, 64u}) {
      // Fresh deployment per cell: cold plan cache, empty logs.
      Result<std::unique_ptr<client::Experiment>> experiment =
          client::Experiment::Create(config);
      if (!experiment.ok()) {
        std::fprintf(stderr, "experiment failed: %s\n",
                     experiment.status().ToString().c_str());
        return 1;
      }
      client::Experiment& e = **experiment;
      e.server().mutable_config().coalesce_window = window;
      e.server().mutable_config().batch_threads = 4;

      client::ConcurrentDmlOptions options;
      options.readers = clients;
      options.writers = 0;
      options.reader_strategy = StrategyKind::kBatchedEarly;
      options.reader_action = ActionKind::kMultiLevelExpand;

      const uint64_t fp_before = sql::FingerprintCallCount();
      Result<client::ConcurrentDmlResult> run =
          client::RunConcurrentDmlAction(e, options);
      const uint64_t fp_after = sql::FingerprintCallCount();
      if (!run.ok()) {
        std::fprintf(stderr, "multi-client run failed: %s\n",
                     run.status().ToString().c_str());
        return 1;
      }

      // Every client's tree and wire accounting must match the solo
      // uncoalesced run: coalescing shares server CPU, nothing else.
      bool identical = true;
      for (const client::ActionResult& r : run->reader_results) {
        if (r.tree.ToString(1 << 20) != reference_tree ||
            r.wan.round_trips != reference->wan.round_trips ||
            r.transmitted_rows != reference->transmitted_rows) {
          identical = false;
        }
      }

      double amort = run->DedupFactor();
      double planned =
          1.0 / model::CoalescedParseCostFactor(clients, tree, window);
      double fp_per_stmt =
          run->statements == 0
              ? 0.0
              : static_cast<double>(fp_after - fp_before) /
                    static_cast<double>(run->statements);

      std::printf("%-8zu %-8s | %6zu %7zu %7zu | %8.2f %8.2f | %8.2f | %s\n",
                  clients, window == 0 ? "inf" : std::to_string(window).c_str(),
                  run->waves, run->statements, run->unique_statements, amort,
                  planned, fp_per_stmt, identical ? "identical" : "DEVIATE");

      if (!identical) {
        std::fprintf(stderr,
                     "FAIL: coalesced run not byte-identical to the solo "
                     "reference (clients=%zu window=%zu)\n",
                     clients, window);
        return 1;
      }
      // Unbounded window + identical sessions = full lockstep: every
      // wave holds one level-batch per client, so amortization is
      // exactly the client count.
      if (window == 0 && std::fabs(amort - static_cast<double>(clients)) >
                             1e-9) {
        std::fprintf(stderr,
                     "FAIL: unbounded window amortization %.4f != clients "
                     "%zu\n",
                     amort, clients);
        return 1;
      }
      // The wave path lexes each statement exactly once (the batch-path
      // fingerprint is reused for classification, dedup and plan-cache
      // lookup).
      if (std::fabs(fp_per_stmt - 1.0) > 1e-9) {
        std::fprintf(stderr, "FAIL: %.4f fingerprint passes per statement\n",
                     fp_per_stmt);
        return 1;
      }
    }
  }
  std::printf(
      "\n(amort = statements per engine execution; planned = closed-form\n"
      "1/CoalescedParseCostFactor. Bounded windows deviate from the plan\n"
      "when submissions straddle waves — the plan assumes exact level\n"
      "alignment. fp/stmt = 1.0: each statement is lexed exactly once.)\n\n");
  return 0;
}

}  // namespace
}  // namespace pdm::bench

int main() { return pdm::bench::Run(); }
