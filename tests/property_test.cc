// Property-style tests: invariants of the closed-form model over a
// parameter sweep, and simulation-vs-model agreement across shapes.

#include <gtest/gtest.h>

#include "client/experiment.h"
#include "common/string_util.h"
#include "model/cost_model.h"

namespace pdm {
namespace {

using model::ActionKind;
using model::NetworkParams;
using model::Predict;
using model::ResponseTime;
using model::StrategyKind;
using model::TreeParams;

struct SweepCase {
  TreeParams tree;
  NetworkParams net;
};

class ModelPropertySweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ModelPropertySweep, StrategyOrderingHolds) {
  const SweepCase& c = GetParam();
  for (ActionKind action : {ActionKind::kQuery, ActionKind::kSingleLevelExpand,
                            ActionKind::kMultiLevelExpand}) {
    ResponseTime late =
        Predict(StrategyKind::kNavigationalLate, action, c.tree, c.net);
    ResponseTime early =
        Predict(StrategyKind::kNavigationalEarly, action, c.tree, c.net);
    ResponseTime rec = Predict(StrategyKind::kRecursive, action, c.tree, c.net);
    // Early evaluation never ships more data; recursion never uses more
    // round trips.
    EXPECT_LE(early.total(), late.total() + 1e-9);
    EXPECT_LE(rec.total(), early.total() + 1e-9);
    EXPECT_GT(rec.total(), 0.0);
    // Latency split: recursion always exactly one round trip pair.
    EXPECT_NEAR(rec.latency_part, 2 * c.net.latency_s, 1e-12);
    EXPECT_GE(late.latency_part, rec.latency_part - 1e-12);
  }
}

TEST_P(ModelPropertySweep, SavingsAreBounded) {
  const SweepCase& c = GetParam();
  ResponseTime late = Predict(StrategyKind::kNavigationalLate,
                              ActionKind::kMultiLevelExpand, c.tree, c.net);
  ResponseTime rec = Predict(StrategyKind::kRecursive,
                             ActionKind::kMultiLevelExpand, c.tree, c.net);
  double saving = model::SavingPercent(late, rec);
  EXPECT_GE(saving, 0.0);
  EXPECT_LT(saving, 100.0);
}

TEST_P(ModelPropertySweep, MonotoneInNetworkParameters) {
  const SweepCase& c = GetParam();
  NetworkParams faster = c.net;
  faster.dtr_kbit *= 2;
  NetworkParams closer = c.net;
  closer.latency_s /= 2;
  for (StrategyKind strategy :
       {StrategyKind::kNavigationalLate, StrategyKind::kRecursive}) {
    ResponseTime base =
        Predict(strategy, ActionKind::kMultiLevelExpand, c.tree, c.net);
    ResponseTime wide =
        Predict(strategy, ActionKind::kMultiLevelExpand, c.tree, faster);
    ResponseTime near =
        Predict(strategy, ActionKind::kMultiLevelExpand, c.tree, closer);
    EXPECT_LE(wide.total(), base.total() + 1e-9);
    EXPECT_LE(near.total(), base.total() + 1e-9);
    // Doubling bandwidth halves exactly the transfer part.
    EXPECT_NEAR(wide.transfer_part * 2, base.transfer_part, 1e-9);
    EXPECT_NEAR(near.latency_part * 2, base.latency_part, 1e-9);
  }
}

TEST_P(ModelPropertySweep, NodeCountIdentities) {
  const SweepCase& c = GetParam();
  // n_v <= total; early never transmits more than late, per action.
  EXPECT_LE(model::VisibleNodes(c.tree), model::TotalNodes(c.tree) + 1e-9);
  for (ActionKind action : {ActionKind::kQuery, ActionKind::kSingleLevelExpand,
                            ActionKind::kMultiLevelExpand}) {
    double late = model::TransmittedNodes(StrategyKind::kNavigationalLate,
                                          action, c.tree);
    double early = model::TransmittedNodes(StrategyKind::kNavigationalEarly,
                                           action, c.tree);
    EXPECT_LE(early, late + 1e-9);
  }
  // Full visibility collapses early and late volumes.
  TreeParams all_visible = c.tree;
  all_visible.sigma = 1.0;
  EXPECT_NEAR(model::TransmittedNodes(StrategyKind::kNavigationalEarly,
                                      ActionKind::kQuery, all_visible),
              model::TotalNodes(all_visible), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelPropertySweep,
    ::testing::Values(
        SweepCase{{3, 9, 0.6}, {0.15, 256, 4096, 512}},
        SweepCase{{9, 3, 0.6}, {0.15, 512, 4096, 512}},
        SweepCase{{7, 5, 0.6}, {0.05, 1024, 4096, 512}},
        SweepCase{{2, 2, 0.5}, {0.01, 64, 1024, 128}},
        SweepCase{{5, 4, 0.9}, {0.3, 128, 4096, 2048}},
        SweepCase{{4, 6, 0.1}, {0.5, 2048, 8192, 512}},
        SweepCase{{1, 1, 1.0}, {0.15, 256, 4096, 512}}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return StrFormat("d%db%di%zu", info.param.tree.depth,
                       info.param.tree.branching, info.index);
    });

// --- Simulation vs model across shapes ---------------------------------------

class SimulationAgreementSweep
    : public ::testing::TestWithParam<TreeParams> {};

TEST_P(SimulationAgreementSweep, CountsMatchModelExactlyOrClosely) {
  TreeParams tree = GetParam();
  client::ExperimentConfig config;
  config.generator.depth = tree.depth;
  config.generator.branching = tree.branching;
  config.generator.sigma = tree.sigma;
  config.wan.latency_s = 0.15;
  config.wan.dtr_kbit = 256;
  Result<std::unique_ptr<client::Experiment>> experiment =
      client::Experiment::Create(config);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  client::Experiment& e = **experiment;

  NetworkParams net{0.15, 256, 4096, 512};
  // Round trips are exact: MLE navigational = visible + 1; recursive = 1.
  Result<client::ActionResult> late = e.RunAction(
      StrategyKind::kNavigationalLate, ActionKind::kMultiLevelExpand);
  ASSERT_TRUE(late.ok()) << late.status();
  EXPECT_EQ(late->wan.round_trips, e.product().visible_nodes + 1);

  Result<client::ActionResult> rec =
      e.RunAction(StrategyKind::kRecursive, ActionKind::kMultiLevelExpand);
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec->wan.round_trips, 1u);
  EXPECT_EQ(rec->visible_nodes, e.product().visible_nodes);

  // Simulated totals stay within 25% of the closed form (integral σ).
  ResponseTime predicted = Predict(StrategyKind::kNavigationalLate,
                                   ActionKind::kMultiLevelExpand, tree, net);
  EXPECT_NEAR(late->seconds(), predicted.total(),
              0.25 * predicted.total() + 0.2);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SimulationAgreementSweep,
    ::testing::Values(TreeParams{2, 2, 0.5}, TreeParams{3, 3, 1.0},
                      TreeParams{3, 9, 0.6}, TreeParams{4, 4, 0.5},
                      TreeParams{5, 3, 0.6}, TreeParams{6, 2, 0.5}),
    [](const ::testing::TestParamInfo<TreeParams>& info) {
      return StrFormat("d%db%di%zu", info.param.depth,
                       info.param.branching, info.index);
    });

}  // namespace
}  // namespace pdm
