// Tests for the pipelined level-overlap expand (DESIGN.md 5g): byte
// identity with the batched client on the 5×5 product, the strictly
// smaller simulated total, degenerate trees (single level, empty
// intermediate level), fail-fast draining of an in-flight batch without
// deadlock, and a 4-client concurrent pipelined canary for TSan.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "client/experiment.h"
#include "model/cost_model.h"
#include "server/db_server.h"

namespace pdm {
namespace {

using model::ActionKind;
using model::StrategyKind;

Result<std::unique_ptr<client::Experiment>> MakeExperiment(int depth,
                                                           int branching,
                                                           double sigma) {
  client::ExperimentConfig config;
  config.generator.depth = depth;
  config.generator.branching = branching;
  config.generator.sigma = sigma;
  return client::Experiment::Create(config);
}

/// Acceptance check on the deterministic 5×5 product: the pipelined MLE
/// returns the byte-identical tree, ships the identical statements and
/// volume in the same α+1 round trips as the batched MLE — and its
/// simulated total is strictly below the batched one, by exactly the
/// hidden-latency sum.
TEST(PipelinedStrategy, FiveByFiveByteIdenticalAndStrictlyFaster) {
  Result<std::unique_ptr<client::Experiment>> experiment =
      MakeExperiment(5, 5, 0.6);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  client::Experiment& e = **experiment;

  const struct {
    StrategyKind pipelined;
    StrategyKind batched;
  } kVariants[] = {
      {StrategyKind::kPipelinedLate, StrategyKind::kBatchedLate},
      {StrategyKind::kPipelinedEarly, StrategyKind::kBatchedEarly}};
  for (const auto& variant : kVariants) {
    Result<client::ActionResult> batched =
        e.RunAction(variant.batched, ActionKind::kMultiLevelExpand);
    ASSERT_TRUE(batched.ok()) << batched.status();
    Result<client::ActionResult> pipelined =
        e.RunAction(variant.pipelined, ActionKind::kMultiLevelExpand);
    ASSERT_TRUE(pipelined.ok()) << pipelined.status();

    // Identical wire traffic: same α+1 round trips, same statements,
    // same request/response volume, batch for batch.
    EXPECT_EQ(pipelined->wan.round_trips, 6u);
    EXPECT_EQ(pipelined->wan.round_trips, batched->wan.round_trips);
    EXPECT_EQ(pipelined->wan.statements, batched->wan.statements);
    EXPECT_EQ(pipelined->wan.statements, e.product().visible_nodes + 1);
    EXPECT_DOUBLE_EQ(pipelined->wan.request_payload_bytes,
                     batched->wan.request_payload_bytes);
    EXPECT_DOUBLE_EQ(pipelined->wan.response_payload_bytes,
                     batched->wan.response_payload_bytes);
    EXPECT_DOUBLE_EQ(pipelined->wan.charged_bytes,
                     batched->wan.charged_bytes);

    // Byte-identical result.
    EXPECT_EQ(pipelined->tree.ToString(1 << 20),
              batched->tree.ToString(1 << 20));
    EXPECT_EQ(pipelined->transmitted_rows, batched->transmitted_rows);
    EXPECT_EQ(pipelined->visible_nodes, batched->visible_nodes);

    // Strictly faster, by exactly the hidden latency; latency and
    // transfer sums themselves are unchanged.
    EXPECT_DOUBLE_EQ(pipelined->wan.latency_seconds,
                     batched->wan.latency_seconds);
    EXPECT_DOUBLE_EQ(pipelined->wan.transfer_seconds,
                     batched->wan.transfer_seconds);
    EXPECT_GT(pipelined->wan.overlap_hidden_seconds, 0.0);
    EXPECT_DOUBLE_EQ(batched->wan.overlap_hidden_seconds, 0.0);
    EXPECT_LT(pipelined->seconds(), batched->seconds());
    EXPECT_DOUBLE_EQ(
        pipelined->seconds(),
        batched->seconds() - pipelined->wan.overlap_hidden_seconds);
    // Per level, the hidden part never exceeds the 2·T_Lat window.
    for (const net::ExchangeRecord& x : e.connection().link().exchanges()) {
      EXPECT_LE(x.hidden_seconds, 2 * e.config().wan.latency_s + 1e-12);
    }
  }
}

// A tree whose root has no visible children (σ=0, late eval): the whole
// MLE is the root's expand — one exchange, nothing to overlap, no empty
// second batch on the wire.
TEST(PipelinedStrategy, SingleLevelTreeHidesNothing) {
  Result<std::unique_ptr<client::Experiment>> experiment =
      MakeExperiment(1, 4, 0.0);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  client::Experiment& e = **experiment;

  Result<client::ActionResult> pipelined =
      e.RunAction(StrategyKind::kPipelinedLate, ActionKind::kMultiLevelExpand);
  ASSERT_TRUE(pipelined.ok()) << pipelined.status();
  EXPECT_EQ(pipelined->wan.round_trips, 1u);
  EXPECT_EQ(pipelined->wan.statements, 1u);
  EXPECT_DOUBLE_EQ(pipelined->wan.overlap_hidden_seconds, 0.0);
  EXPECT_EQ(pipelined->tree.num_nodes(), 1u);  // the root alone
  // The ω invisible children still crossed the WAN (late evaluation).
  EXPECT_EQ(pipelined->transmitted_rows, 4u);
  EXPECT_FALSE(e.connection().link().exchange_open());
}

// An empty intermediate level (σ=0 on a depth-2 product): the level-1
// frontier filters to nothing, so the pipeline stops after the root's
// exchange instead of shipping an empty batch — and stays byte-identical
// to the batched client.
TEST(PipelinedStrategy, EmptyIntermediateLevelStopsThePipeline) {
  Result<std::unique_ptr<client::Experiment>> experiment =
      MakeExperiment(2, 3, 0.0);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  client::Experiment& e = **experiment;

  Result<client::ActionResult> batched =
      e.RunAction(StrategyKind::kBatchedLate, ActionKind::kMultiLevelExpand);
  ASSERT_TRUE(batched.ok()) << batched.status();
  Result<client::ActionResult> pipelined =
      e.RunAction(StrategyKind::kPipelinedLate, ActionKind::kMultiLevelExpand);
  ASSERT_TRUE(pipelined.ok()) << pipelined.status();

  EXPECT_EQ(pipelined->wan.round_trips, 1u);
  EXPECT_EQ(pipelined->wan.round_trips, batched->wan.round_trips);
  EXPECT_EQ(pipelined->tree.ToString(1 << 20), batched->tree.ToString(1 << 20));
  EXPECT_DOUBLE_EQ(pipelined->wan.charged_bytes, batched->wan.charged_bytes);
  EXPECT_DOUBLE_EQ(pipelined->wan.overlap_hidden_seconds, 0.0);
}

// Fail-fast mid-pipeline: collect a level whose batch contains a failing
// statement while the next level's batch is already in flight. Dropping
// the never-collected PendingBatch must drain the server work and abort
// the exchange without deadlocking or corrupting the link.
TEST(PipelinedConnection, MidPipelineFailureDrainsOutstandingBatch) {
  Result<std::unique_ptr<client::Experiment>> experiment =
      MakeExperiment(2, 3, 1.0);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  client::Connection& conn = (*experiment)->connection();
  conn.ResetStats();

  {
    // Level 1: fine.
    client::Connection::PendingBatch first = conn.ExecuteBatchPipelined(
        {"SELECT COUNT(*) FROM assy"}, /*overlap_previous=*/false);
    ASSERT_TRUE(first.valid());
    std::vector<Result<ResultSet>> responses;
    first.Collect(&responses);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_TRUE(responses[0].ok());
    EXPECT_FALSE(first.valid());  // consumed

    // Level 2: one failing slot, collected after level 3 is in flight.
    client::Connection::PendingBatch second = conn.ExecuteBatchPipelined(
        {"SELECT COUNT(*) FROM comp", "SELECT nosuchcol FROM assy"},
        /*overlap_previous=*/true);
    client::Connection::PendingBatch third = conn.ExecuteBatchPipelined(
        {"SELECT COUNT(*) FROM assy"}, /*overlap_previous=*/true);
    // Only one exchange may be in flight per connection: the third batch
    // ran at the server but never entered the link's timeline.
    second.Collect(&responses);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_TRUE(responses[0].ok());
    EXPECT_FALSE(responses[1].ok());
    EXPECT_TRUE(third.valid());
    // `third` goes out of scope never collected: its destructor drains
    // the future and aborts the open exchange.
  }

  EXPECT_FALSE(conn.link().exchange_open());
  EXPECT_EQ(conn.stats().round_trips, 2u);  // the collected exchanges only
  EXPECT_GT(conn.stats().overlap_hidden_seconds, 0.0);

  // The link is fully usable afterwards.
  ResultSet out;
  ASSERT_TRUE(conn.Execute("SELECT COUNT(*) FROM assy", &out).ok());
  EXPECT_EQ(conn.stats().round_trips, 3u);
}

// Strategy-level fail-fast: expanding a root that does not exist makes
// the level-0 statement fail; the action must report the error cleanly,
// with no exchange left open and the connection still usable.
TEST(PipelinedStrategy, ActionErrorLeavesTheLinkClean) {
  Result<std::unique_ptr<client::Experiment>> experiment =
      MakeExperiment(2, 3, 1.0);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  client::Experiment& e = **experiment;

  // Drop the component table out from under the expand queries: every
  // level's statements now fail at bind time.
  ASSERT_TRUE(e.server().Execute("DROP TABLE comp", nullptr).ok());
  Result<client::ActionResult> pipelined =
      e.RunAction(StrategyKind::kPipelinedLate, ActionKind::kMultiLevelExpand);
  EXPECT_FALSE(pipelined.ok());
  EXPECT_FALSE(e.connection().link().exchange_open());
  ResultSet out;
  EXPECT_TRUE(e.connection().Execute("SELECT COUNT(*) FROM assy", &out).ok());
}

// TSan acceptance canary: four concurrent pipelined clients through the
// shared admission queue. Each client's speculative issues ride on
// background threads, all coalescing into waves, and every client still
// gets the byte-identical tree with pipelined timing on its own link.
TEST(PipelinedStrategy, FourConcurrentPipelinedClientsAgree) {
  Result<std::unique_ptr<client::Experiment>> experiment =
      MakeExperiment(3, 3, 0.6);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  client::Experiment& e = **experiment;
  e.server().mutable_config().batch_threads = 4;

  Result<client::ActionResult> solo =
      e.RunAction(StrategyKind::kPipelinedEarly, ActionKind::kMultiLevelExpand);
  ASSERT_TRUE(solo.ok()) << solo.status();

  client::ConcurrentDmlOptions options;
  options.readers = 4;
  options.writers = 0;
  options.reader_strategy = StrategyKind::kPipelinedEarly;
  options.reader_action = ActionKind::kMultiLevelExpand;
  Result<client::ConcurrentDmlResult> result =
      client::RunConcurrentDmlAction(e, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->reader_results.size(), 4u);
  for (const client::ActionResult& action : result->reader_results) {
    EXPECT_EQ(action.tree.ToString(1 << 20), solo->tree.ToString(1 << 20));
    EXPECT_EQ(action.wan.round_trips, solo->wan.round_trips);
    EXPECT_DOUBLE_EQ(action.wan.overlap_hidden_seconds,
                     solo->wan.overlap_hidden_seconds);
    EXPECT_DOUBLE_EQ(action.seconds(), solo->seconds());
  }
  e.server().mutable_config().batch_threads = 1;
}

}  // namespace
}  // namespace pdm
