// Tests for the shared admission queue (DESIGN.md 5e): wave formation
// with and without registered clients, fingerprint deduplication with
// result fan-out inside read-only waves, the serial no-dedup rule for
// DML waves, per-client result isolation, determinism of the
// multi-client driver across coalesce windows and thread counts, and a
// TSan canary hammering Submit from eight client threads.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "client/experiment.h"
#include "common/string_util.h"
#include "server/admission_queue.h"
#include "server/db_server.h"

namespace pdm {
namespace {

using model::ActionKind;
using model::StrategyKind;

/// A server with t(id INTEGER, name TEXT) of `rows` rows "n0".."n<rows-1>".
void Seed(DbServer* server, int rows) {
  ASSERT_TRUE(
      server->Execute("CREATE TABLE t (id INTEGER, name TEXT)", nullptr)
          .ok());
  for (int i = 0; i < rows; ++i) {
    ASSERT_TRUE(server
                    ->Execute(StrFormat("INSERT INTO t VALUES (%d, 'n%d')",
                                        i, i),
                              nullptr)
                    .ok());
  }
}

std::string PointQuery(int id) {
  return StrFormat("SELECT name FROM t WHERE id = %d", id);
}

TEST(AdmissionQueue, UnregisteredSubmissionFormsOwnWave) {
  DbServer server;
  Seed(&server, 4);
  // No registered clients: the submission must not block on a barrier.
  std::vector<std::string> statements = {PointQuery(0), PointQuery(1)};
  std::vector<DbServer::BatchStatementResult> results =
      server.Submit(7, statements);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].status.ok());
  ASSERT_TRUE(results[1].status.ok());
  EXPECT_EQ(results[0].result.At(0, 0).ToString(), "n0");
  EXPECT_EQ(results[1].result.At(0, 0).ToString(), "n1");

  std::vector<AdmissionQueue::WaveLogEntry> waves =
      server.admission_queue().wave_log();
  ASSERT_EQ(waves.size(), 1u);
  EXPECT_EQ(waves[0].statements, 2u);
  EXPECT_EQ(waves[0].unique_statements, 2u);
  EXPECT_EQ(waves[0].submissions, 1u);
  EXPECT_EQ(waves[0].clients, 1u);
  EXPECT_TRUE(waves[0].read_only);
}

TEST(AdmissionQueue, EmptySubmissionIsANoOp) {
  DbServer server;
  Seed(&server, 1);
  std::vector<std::string> statements;
  EXPECT_TRUE(server.Submit(1, statements).empty());
  EXPECT_TRUE(server.admission_queue().wave_log().empty());
}

TEST(AdmissionQueue, DedupsIdenticalSelectsWithinAWave) {
  // Five statements, two distinct fingerprints: one engine execution
  // per distinct statement, results fanned out byte-identically. A
  // direct batch is a one-submission wave, so it dedups the same way.
  std::vector<std::string> statements = {PointQuery(2), PointQuery(3),
                                         PointQuery(2), PointQuery(2),
                                         PointQuery(3)};
  for (bool direct : {false, true}) {
    SCOPED_TRACE(direct ? "ExecuteBatch" : "Submit");
    DbServer server;
    Seed(&server, 4);
    server.EnableStatementLog(true);
    server.database().plan_cache().ResetStats();
    std::vector<DbServer::BatchStatementResult> results =
        direct ? server.ExecuteBatch(statements)
               : server.Submit(1, statements);
    ASSERT_EQ(results.size(), 5u);
    for (size_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(results[i].status.ok()) << i;
    }
    EXPECT_EQ(results[0].result.ToString(1 << 20),
              results[2].result.ToString(1 << 20));
    EXPECT_EQ(results[0].result.ToString(1 << 20),
              results[3].result.ToString(1 << 20));
    EXPECT_EQ(results[1].result.ToString(1 << 20),
              results[4].result.ToString(1 << 20));
    EXPECT_EQ(results[0].result.At(0, 0).ToString(), "n2");
    EXPECT_EQ(results[1].result.At(0, 0).ToString(), "n3");
    // One engine execution (one plan-cache lookup) per unique statement.
    const PlanCacheStats cache = server.plan_cache_stats();
    EXPECT_EQ(cache.hits + cache.misses, 2u);

    std::vector<AdmissionQueue::WaveLogEntry> waves =
        server.admission_queue().wave_log();
    if (direct) {
      EXPECT_TRUE(waves.empty());  // the queue never saw the batch
    } else {
      ASSERT_EQ(waves.size(), 1u);
      EXPECT_EQ(waves[0].statements, 5u);
      EXPECT_EQ(waves[0].unique_statements, 2u);
      EXPECT_TRUE(waves[0].read_only);
    }

    // The statement log marks exactly the fan-out slots as coalesced,
    // and each carries its representative's response size.
    std::vector<DbServer::StatementLogEntry> log = server.statement_log();
    ASSERT_EQ(log.size(), 5u);
    size_t coalesced = 0;
    for (const DbServer::StatementLogEntry& entry : log) {
      if (direct) {
        EXPECT_EQ(entry.wave_id, 0u);
        EXPECT_EQ(entry.batch_id, log[0].batch_id);
        EXPECT_GT(entry.batch_id, 0u);
      } else {
        EXPECT_EQ(entry.wave_id, waves[0].wave_id);
      }
      if (entry.coalesced) ++coalesced;
    }
    EXPECT_EQ(coalesced, 3u);
    EXPECT_EQ(log[2].response_bytes, log[0].response_bytes);
  }
}

TEST(AdmissionQueue, LiteralsDistinguishDedupGroups) {
  DbServer server;
  Seed(&server, 4);
  // Same normalized shape, different literals: these must NOT coalesce
  // (the group key carries the type-tagged parameter values).
  std::vector<std::string> statements = {PointQuery(0), PointQuery(1)};
  std::vector<DbServer::BatchStatementResult> results =
      server.Submit(1, statements);
  ASSERT_TRUE(results[0].status.ok());
  ASSERT_TRUE(results[1].status.ok());
  EXPECT_NE(results[0].result.At(0, 0).ToString(),
            results[1].result.At(0, 0).ToString());
  EXPECT_EQ(server.admission_queue().wave_log()[0].unique_statements, 2u);
}

TEST(AdmissionQueue, DmlWaveRunsSeriallyWithoutDedup) {
  DbServer server;
  Seed(&server, 1);
  server.mutable_config().batch_threads = 8;
  // Two identical INSERTs are two inserts: no dedup outside read-only
  // waves, and execution stays in admission order.
  std::vector<std::string> statements = {
      "INSERT INTO t VALUES (50, 'dup')", "INSERT INTO t VALUES (50, 'dup')",
      "SELECT COUNT(*) FROM t WHERE id = 50"};
  std::vector<DbServer::BatchStatementResult> results =
      server.Submit(1, statements);
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[2].status.ok());
  EXPECT_EQ(results[2].result.At(0, 0).int64_value(), 2);

  std::vector<AdmissionQueue::WaveLogEntry> waves =
      server.admission_queue().wave_log();
  ASSERT_EQ(waves.size(), 1u);
  EXPECT_FALSE(waves[0].read_only);
  EXPECT_EQ(waves[0].unique_statements, 3u);
}

TEST(AdmissionQueue, BarrierCoalescesAcrossRegisteredClients) {
  DbServer server;
  Seed(&server, 4);
  AdmissionQueue& queue = server.admission_queue();
  queue.RegisterClient();
  queue.RegisterClient();

  // Two clients submit the identical statement; the barrier must merge
  // them into one wave with one engine execution.
  std::vector<std::string> statements = {PointQuery(1)};
  std::vector<DbServer::BatchStatementResult> a, b;
  std::thread ta([&] { a = server.Submit(0, statements); });
  std::thread tb([&] { b = server.Submit(1, statements); });
  ta.join();
  tb.join();
  queue.UnregisterClient();
  queue.UnregisterClient();

  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  ASSERT_TRUE(a[0].status.ok());
  ASSERT_TRUE(b[0].status.ok());
  EXPECT_EQ(a[0].result.ToString(1 << 20), b[0].result.ToString(1 << 20));

  std::vector<AdmissionQueue::WaveLogEntry> waves = queue.wave_log();
  ASSERT_EQ(waves.size(), 1u);
  EXPECT_EQ(waves[0].statements, 2u);
  EXPECT_EQ(waves[0].unique_statements, 1u);
  EXPECT_EQ(waves[0].submissions, 2u);
  EXPECT_EQ(waves[0].clients, 2u);
}

TEST(AdmissionQueue, PerClientResultIsolation) {
  DbServer server;
  Seed(&server, 4);
  AdmissionQueue& queue = server.admission_queue();
  queue.RegisterClient();
  queue.RegisterClient();

  // Client 0 submits a failing statement, client 1 a valid one, in the
  // same wave: the error must stay in client 0's slot only.
  std::vector<std::string> bad = {"SELECT nosuchcol FROM t"};
  std::vector<std::string> good = {PointQuery(3)};
  std::vector<DbServer::BatchStatementResult> a, b;
  std::thread ta([&] { a = server.Submit(0, bad); });
  std::thread tb([&] { b = server.Submit(1, good); });
  ta.join();
  tb.join();
  queue.UnregisterClient();
  queue.UnregisterClient();

  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_FALSE(a[0].status.ok());
  EXPECT_EQ(a[0].result.num_rows(), 0u);
  ASSERT_TRUE(b[0].status.ok());
  EXPECT_EQ(b[0].result.At(0, 0).ToString(), "n3");
}

TEST(AdmissionQueue, OversizedSubmissionStillExecutes) {
  DbServer server;
  Seed(&server, 8);
  server.mutable_config().coalesce_window = 2;
  // One submission larger than the window: it is never split and forms
  // a wave on its own.
  std::vector<std::string> statements = {PointQuery(0), PointQuery(1),
                                         PointQuery(2), PointQuery(3)};
  std::vector<DbServer::BatchStatementResult> results =
      server.Submit(1, statements);
  ASSERT_EQ(results.size(), 4u);
  for (size_t i = 0; i < 4; ++i) ASSERT_TRUE(results[i].status.ok()) << i;
  std::vector<AdmissionQueue::WaveLogEntry> waves =
      server.admission_queue().wave_log();
  ASSERT_EQ(waves.size(), 1u);
  EXPECT_EQ(waves[0].statements, 4u);
}

/// The multi-client driver must produce byte-identical per-client trees
/// for every (coalesce window, batch threads) combination — coalescing
/// shares server CPU, never results.
TEST(AdmissionQueue, MultiClientDriverDeterministicAcrossWindowsAndThreads) {
  client::ExperimentConfig config;
  config.generator.depth = 3;
  config.generator.branching = 4;
  config.generator.sigma = 0.6;

  // Solo uncoalesced reference.
  Result<std::unique_ptr<client::Experiment>> reference_experiment =
      client::Experiment::Create(config);
  ASSERT_TRUE(reference_experiment.ok()) << reference_experiment.status();
  Result<client::ActionResult> reference =
      (*reference_experiment)
          ->RunAction(StrategyKind::kBatchedEarly,
                      ActionKind::kMultiLevelExpand);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const std::string reference_tree = reference->tree.ToString(1 << 20);

  for (size_t window : {0u, 3u, 16u}) {
    for (size_t threads : {1u, 4u}) {
      Result<std::unique_ptr<client::Experiment>> experiment =
          client::Experiment::Create(config);
      ASSERT_TRUE(experiment.ok()) << experiment.status();
      client::Experiment& e = **experiment;
      e.server().mutable_config().coalesce_window = window;
      e.server().mutable_config().batch_threads = threads;

      client::ConcurrentDmlOptions options;
      options.readers = 3;
      options.writers = 0;
      options.reader_strategy = StrategyKind::kBatchedEarly;
      options.reader_action = ActionKind::kMultiLevelExpand;
      Result<client::ConcurrentDmlResult> run =
          client::RunConcurrentDmlAction(e, options);
      ASSERT_TRUE(run.ok()) << run.status() << " window=" << window
                            << " threads=" << threads;

      ASSERT_EQ(run->reader_results.size(), 3u);
      for (const client::ActionResult& r : run->reader_results) {
        EXPECT_EQ(r.tree.ToString(1 << 20), reference_tree)
            << "window=" << window << " threads=" << threads;
        // Wire invariant: per-client round trips unchanged by
        // coalescing.
        EXPECT_EQ(r.wan.round_trips, reference->wan.round_trips);
        EXPECT_EQ(r.wan.statements, reference->wan.statements);
        EXPECT_DOUBLE_EQ(r.wan.response_payload_bytes,
                         reference->wan.response_payload_bytes);
      }
      EXPECT_EQ(run->statements, 3 * reference->wan.statements);
      // An unbounded window keeps the identical sessions in lockstep:
      // every wave holds one level-batch per client, so the engine runs
      // exactly one client's worth of statements.
      if (window == 0) {
        EXPECT_EQ(run->unique_statements, reference->wan.statements);
      }
      EXPECT_GE(run->unique_statements, reference->wan.statements);
      EXPECT_LE(run->unique_statements, run->statements);
    }
  }
}

/// TSan canary: eight registered client threads hammer Submit with a
/// mix of shared and private statements through many waves. Run under
/// -DPDM_THREAD_SANITIZE=ON this exercises every queue/wave code path
/// for data races; the assertions double as a correctness check.
TEST(AdmissionQueue, TsanCanaryEightClientHammer) {
  DbServer server;
  Seed(&server, 32);
  server.mutable_config().batch_threads = 4;
  constexpr size_t kClients = 8;
  constexpr size_t kRounds = 25;
  AdmissionQueue& queue = server.admission_queue();
  for (size_t c = 0; c < kClients; ++c) queue.RegisterClient();

  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t round = 0; round < kRounds; ++round) {
        // One statement every client shares (dedups within the wave)
        // plus one private to this client (must not).
        std::vector<std::string> statements = {
            PointQuery(static_cast<int>(round % 8)),
            PointQuery(static_cast<int>(8 + (c + round) % 24))};
        std::vector<DbServer::BatchStatementResult> results =
            server.Submit(c, statements);
        if (results.size() != 2 || !results[0].status.ok() ||
            !results[1].status.ok() ||
            results[0].result.At(0, 0).ToString() !=
                StrFormat("n%zu", round % 8) ||
            results[1].result.At(0, 0).ToString() !=
                StrFormat("n%zu", 8 + (c + round) % 24)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      queue.UnregisterClient();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(queue.active_clients(), 0u);

  // Every statement of every round came back through some wave.
  size_t statements = 0;
  for (const AdmissionQueue::WaveLogEntry& wave : queue.wave_log()) {
    statements += wave.statements;
  }
  EXPECT_EQ(statements, kClients * kRounds * 2);
}

}  // namespace
}  // namespace pdm
