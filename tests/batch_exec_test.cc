// Tests for the batched execution path (DESIGN.md 5d): per-statement
// error semantics of DbServer::ExecuteBatch, determinism across
// batch_threads, statement-log batch/worker attribution and its
// identity across the standalone/batch/wave paths, the engine's
// thread-safety contract under concurrent cold-index builds and
// plan-cache fingerprint collisions, version GC and conflict freedom
// for direct writers, and the batched navigational strategy's α+1
// round-trip schedule on the 5×5 product.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/experiment.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "server/db_server.h"
#include "sql/fingerprint.h"

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

TEST(BatchExec, FailFastPerStatement) {
  DbServer server;
  Seed(&server, 8);
  // Slot 3 is not even parseable, so the batch falls back to serial
  // execution; errors must stay in their slots either way.
  std::vector<std::string> statements = {
      PointQuery(1), "SELECT nosuchcol FROM t", PointQuery(2),
      "THIS IS NOT SQL", PointQuery(3)};
  std::vector<DbServer::BatchStatementResult> results =
      server.ExecuteBatch(statements);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_FALSE(results[1].status.ok());
  EXPECT_TRUE(results[2].status.ok());
  EXPECT_FALSE(results[3].status.ok());
  EXPECT_TRUE(results[4].status.ok());
  // Error slots carry an empty result.
  EXPECT_EQ(results[1].result.num_rows(), 0u);
  EXPECT_EQ(results[0].result.num_rows(), 1u);
  EXPECT_EQ(results[4].result.At(0, 0).ToString(), "n3");
}

TEST(BatchExec, FailFastPerStatementParallel) {
  DbServer server;
  Seed(&server, 8);
  server.mutable_config().batch_threads = 4;
  // Every statement fingerprints as a SELECT (so the batch stays
  // parallel-eligible); the bad ones fail at bind time.
  std::vector<std::string> statements;
  for (int i = 0; i < 16; ++i) {
    statements.push_back(i % 4 == 2 ? "SELECT nosuchcol FROM t"
                                    : PointQuery(i % 8));
  }
  std::vector<DbServer::BatchStatementResult> results =
      server.ExecuteBatch(statements);
  ASSERT_EQ(results.size(), statements.size());
  for (int i = 0; i < 16; ++i) {
    if (i % 4 == 2) {
      EXPECT_FALSE(results[i].status.ok()) << i;
      EXPECT_EQ(results[i].result.num_rows(), 0u) << i;
    } else {
      ASSERT_TRUE(results[i].status.ok()) << i << ": "
                                          << results[i].status.ToString();
      EXPECT_EQ(results[i].result.At(0, 0).ToString(),
                StrFormat("n%d", i % 8))
          << i;
    }
  }
}

TEST(BatchExec, DmlBatchRunsSeriallyInStatementOrder) {
  DbServer server;
  Seed(&server, 2);
  server.mutable_config().batch_threads = 8;
  server.EnableStatementLog(true);
  // The INSERT forces the whole batch serial; the trailing SELECT must
  // observe it (statement order is execution order).
  std::vector<std::string> statements = {
      "SELECT COUNT(*) FROM t", "INSERT INTO t VALUES (99, 'n99')",
      PointQuery(99)};
  std::vector<DbServer::BatchStatementResult> results =
      server.ExecuteBatch(statements);
  ASSERT_TRUE(results[0].status.ok());
  ASSERT_TRUE(results[1].status.ok());
  ASSERT_TRUE(results[2].status.ok());
  EXPECT_EQ(results[0].result.At(0, 0).int64_value(), 2);
  EXPECT_EQ(results[2].result.At(0, 0).ToString(), "n99");
  for (const DbServer::StatementLogEntry& entry : server.statement_log()) {
    EXPECT_EQ(entry.worker, 0u);  // serial fallback = calling thread
  }
}

TEST(BatchExec, ResultsIdenticalAcrossThreadCounts) {
  DbServer server;
  Seed(&server, 32);
  std::vector<std::string> statements;
  for (int i = 0; i < 32; ++i) statements.push_back(PointQuery(i));

  server.mutable_config().batch_threads = 1;
  std::vector<DbServer::BatchStatementResult> reference =
      server.ExecuteBatch(statements);
  for (size_t threads : {2u, 4u, 8u}) {
    server.mutable_config().batch_threads = threads;
    std::vector<DbServer::BatchStatementResult> results =
        server.ExecuteBatch(statements);
    ASSERT_EQ(results.size(), reference.size()) << threads;
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok()) << threads << "/" << i;
      EXPECT_EQ(results[i].result.ToString(1 << 20),
                reference[i].result.ToString(1 << 20))
          << threads << "/" << i;
    }
  }
}

TEST(BatchExec, StatementLogRecordsBatchIdsAndWorkers) {
  DbServer server;
  Seed(&server, 8);
  server.EnableStatementLog(true);
  server.mutable_config().batch_threads = 4;

  std::vector<std::string> first = {PointQuery(0), PointQuery(1),
                                    PointQuery(2)};
  std::vector<std::string> second = {PointQuery(3), PointQuery(4)};
  server.ClearStatementLog();
  server.ExecuteBatch(first);
  server.ExecuteBatch(second);

  const std::vector<DbServer::StatementLogEntry>& log =
      server.statement_log();
  ASSERT_EQ(log.size(), 5u);
  // Statement order is preserved regardless of which worker ran what,
  // and the two batches carry distinct monotonically increasing ids.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(log[i].sql, first[i]);
    EXPECT_EQ(log[i].batch_id, log[0].batch_id);
    EXPECT_LT(log[i].worker, 4u);
  }
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(log[3 + i].sql, second[i]);
    EXPECT_EQ(log[3 + i].batch_id, log[3].batch_id);
  }
  EXPECT_GT(log[0].batch_id, 0u);
  EXPECT_GT(log[3].batch_id, log[0].batch_id);

  // Standalone Execute() is batch 0.
  ResultSet out;
  ASSERT_TRUE(server.Execute(PointQuery(5), &out).ok());
  EXPECT_EQ(server.statement_log().back().batch_id, 0u);
}

// Regression: a failed standalone statement used to return before its
// log entry was appended, while the batch path logged the same failure.
TEST(BatchExec, FailedStatementIsLoggedOnEveryPath) {
  DbServer server;
  Seed(&server, 2);
  server.EnableStatementLog(true);
  const std::string bad = "SELECT nope FROM t";

  ResultSet out;
  EXPECT_FALSE(server.Execute(bad, &out).ok());
  EXPECT_EQ(out.num_rows(), 0u);
  std::vector<DbServer::StatementLogEntry> log = server.statement_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].sql, bad);
  EXPECT_EQ(log[0].batch_id, 0u);
  EXPECT_EQ(log[0].result_rows, 0u);

  server.ClearStatementLog();
  std::vector<std::string> batch = {bad};
  EXPECT_FALSE(server.ExecuteBatch(batch)[0].status.ok());
  log = server.statement_log();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].sql, bad);
  EXPECT_GT(log[0].batch_id, 0u);
}

/// The record fields every path must agree on: everything except the
/// batch/wave/worker/client attribution and the wall-clock timings.
std::string RecordKey(const DbServer::StatementLogEntry& r) {
  return StrFormat(
      "%s|%s|rows=%zu|affected=%zu|bytes=%zu|hit=%d|coalesced=%d|"
      "scan=%zu|cte=%zu|vec=%zu|probe=%zu|vec_probe=%zu|agg=%zu|"
      "vec_agg=%zu|sim=%.17g",
      r.sql.c_str(), r.fingerprint.c_str(), r.result_rows, r.affected_rows,
      r.response_bytes, r.plan_cache_hit ? 1 : 0, r.coalesced ? 1 : 0,
      r.rows_scanned, r.cte_rows_scanned, r.vec_rows_scanned,
      r.join_probe_rows, r.vec_join_probe_rows, r.agg_input_rows,
      r.vec_agg_input_rows, r.sim_seconds);
}

// One statement body serves every path, so the statement log is the
// same record for record whichever path carried the statements — a
// failing statement and a DML included.
TEST(BatchExec, StatementLogIdenticalAcrossPaths) {
  const std::vector<std::string> statements = {
      "SELECT COUNT(*) FROM t", PointQuery(1), "SELECT nope FROM t",
      "INSERT INTO t VALUES (99, 'n99')", PointQuery(99), PointQuery(1)};
  enum class Path { kExecute, kBatch1, kBatch4, kWave };
  std::vector<std::string> reference;
  for (Path path : {Path::kExecute, Path::kBatch1, Path::kBatch4,
                    Path::kWave}) {
    DbServer server;  // fresh data and a cold plan cache per path
    Seed(&server, 4);
    server.EnableStatementLog(true);
    server.mutable_config().batch_threads = path == Path::kBatch4 ? 4 : 1;
    switch (path) {
      case Path::kExecute:
        for (const std::string& sql : statements) {
          (void)server.Execute(sql, nullptr);
        }
        break;
      case Path::kBatch1:
      case Path::kBatch4:
        server.ExecuteBatch(statements);
        break;
      case Path::kWave:
        server.Submit(/*client_id=*/7, statements);
        break;
    }
    std::vector<std::string> keys;
    for (const DbServer::StatementLogEntry& entry : server.statement_log()) {
      keys.push_back(RecordKey(entry));
      EXPECT_EQ(entry.client_id, path == Path::kWave ? 7u : 0u);
      EXPECT_EQ(entry.wave_id > 0, path == Path::kWave);
      EXPECT_EQ(entry.batch_id > 0, path == Path::kBatch1 ||
                                        path == Path::kBatch4);
    }
    ASSERT_EQ(keys.size(), statements.size());
    if (path == Path::kExecute) {
      reference = keys;
      EXPECT_EQ(server.statement_log()[3].affected_rows, 1u);
      EXPECT_EQ(server.statement_log()[4].result_rows, 1u);
      EXPECT_TRUE(server.statement_log()[5].plan_cache_hit);
    } else {
      EXPECT_EQ(keys, reference) << static_cast<int>(path);
    }
  }
}

TEST(BatchExec, ResetObservabilityClearsLogAndCacheCounters) {
  DbServer server;
  Seed(&server, 4);
  server.EnableStatementLog(true);
  ResultSet out;
  ASSERT_TRUE(server.Execute(PointQuery(1), &out).ok());
  ASSERT_TRUE(server.Execute(PointQuery(1), &out).ok());
  EXPECT_FALSE(server.statement_log().empty());
  EXPECT_GT(server.plan_cache_stats().hits + server.plan_cache_stats().misses,
            0u);

  server.ResetObservability();
  EXPECT_TRUE(server.statement_log().empty());
  EXPECT_EQ(server.plan_cache_stats().hits, 0u);
  EXPECT_EQ(server.plan_cache_stats().misses, 0u);
  // Cached plans themselves survive: the next repeat is a hit.
  ASSERT_TRUE(server.Execute(PointQuery(1), &out).ok());
  EXPECT_EQ(server.plan_cache_stats().hits, 1u);
}

TEST(BatchExec, ExecuteWithoutSizingConsumers) {
  DbServer server;
  Seed(&server, 4);
  // No response_bytes out-param and no statement log: the sizing walk is
  // skipped entirely; execution must still work.
  ResultSet out;
  ASSERT_TRUE(server.Execute("SELECT COUNT(*) FROM t", &out).ok());
  EXPECT_EQ(out.At(0, 0).int64_value(), 4);
}

// The thread-safety regression the concurrency contract exists for:
// statements of one parallel batch all hit the same cold lazy column
// index and the same plan-cache fingerprint. Run under
// -DPDM_THREAD_SANITIZE=ON this is the data-race canary.
TEST(BatchExec, ConcurrentColdIndexAndPlanCacheFingerprint) {
  for (int round = 0; round < 4; ++round) {
    DbServer server;  // fresh server: cold index, empty plan cache
    Seed(&server, 64);
    server.mutable_config().batch_threads = 8;
    std::vector<std::string> statements;
    for (int i = 0; i < 64; ++i) statements.push_back(PointQuery(i));
    std::vector<DbServer::BatchStatementResult> results =
        server.ExecuteBatch(statements);
    ASSERT_EQ(results.size(), 64u);
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(results[i].status.ok())
          << i << ": " << results[i].status.ToString();
      ASSERT_EQ(results[i].result.num_rows(), 1u) << i;
      EXPECT_EQ(results[i].result.At(0, 0).ToString(), StrFormat("n%d", i));
    }
    // Every statement shares one fingerprint; however the concurrent
    // lookups interleave (hit or miss), the counters must account for
    // all of them.
    PlanCacheStats stats = server.plan_cache_stats();
    EXPECT_EQ(stats.hits + stats.misses, 64u);
    EXPECT_EQ(stats.bypasses, 0u);

    // Warm: the same shape with other literals (ids in reverse order)
    // from 8 workers at once. Cached plans are immutable, so every
    // lookup hits the one shared entry; none steps around it.
    server.database().plan_cache().ResetStats();
    std::vector<std::string> warm;
    for (int i = 63; i >= 0; --i) warm.push_back(PointQuery(i));
    results = server.ExecuteBatch(warm);
    ASSERT_EQ(results.size(), 64u);
    for (int j = 0; j < 64; ++j) {
      ASSERT_TRUE(results[j].status.ok())
          << j << ": " << results[j].status.ToString();
      ASSERT_EQ(results[j].result.num_rows(), 1u) << j;
      EXPECT_EQ(results[j].result.At(0, 0).ToString(),
                StrFormat("n%d", 63 - j));
    }
    stats = server.plan_cache_stats();
    EXPECT_EQ(stats.hits, 64u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.bypasses, 0u);
  }
}

TEST(BatchExec, ConnectionBatchIsOneRoundTrip) {
  client::ExperimentConfig config;
  config.generator.depth = 2;
  config.generator.branching = 3;
  Result<std::unique_ptr<client::Experiment>> experiment =
      client::Experiment::Create(config);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  client::Connection& conn = (*experiment)->connection();

  conn.ResetStats();
  std::vector<std::string> statements = {
      "SELECT COUNT(*) FROM assy", "SELECT COUNT(*) FROM comp",
      "SELECT nosuchcol FROM assy"};
  std::vector<Result<ResultSet>> out;
  ASSERT_TRUE(conn.ExecuteBatch(statements, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(out[0].ok());
  EXPECT_TRUE(out[1].ok());
  EXPECT_FALSE(out[2].ok());
  EXPECT_EQ(conn.stats().round_trips, 1u);
  EXPECT_EQ(conn.stats().statements, 3u);
  EXPECT_EQ(conn.stats().messages, 2u);
}

TEST(BatchExec, EmptyConnectionBatchChargesNothing) {
  client::ExperimentConfig config;
  config.generator.depth = 2;
  config.generator.branching = 3;
  Result<std::unique_ptr<client::Experiment>> experiment =
      client::Experiment::Create(config);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  client::Connection& conn = (*experiment)->connection();

  conn.ResetStats();
  std::vector<std::string> statements;
  std::vector<Result<ResultSet>> out = {Result<ResultSet>(ResultSet())};
  ASSERT_TRUE(conn.ExecuteBatch(statements, &out).ok());
  EXPECT_TRUE(out.empty());  // stale slots are cleared, not kept
  EXPECT_EQ(conn.stats().round_trips, 0u);
  EXPECT_EQ(conn.stats().statements, 0u);
  EXPECT_EQ(conn.stats().messages, 0u);
  EXPECT_DOUBLE_EQ(conn.stats().total_seconds(), 0.0);

  out = {Result<ResultSet>(ResultSet())};
  ASSERT_TRUE(conn.ExecuteBatch(statements, &out, [](const ResultSet&) {
                    return size_t{512};
                  })
                  .ok());
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(conn.stats().round_trips, 0u);
}

TEST(BatchExec, BatchFingerprintsEachStatementExactlyOnce) {
  DbServer server;
  Seed(&server, 16);
  server.mutable_config().batch_threads = 4;
  std::vector<std::string> statements;
  for (int i = 0; i < 16; ++i) statements.push_back(PointQuery(i));
  // A lexically invalid statement: its error is the fingerprint's
  // status, not the result of lexing it again.
  const std::string bad = "SELECT name FROM t WHERE name = 'unterminated";
  const Status lex_error = sql::FingerprintSql(bad).status();
  ASSERT_EQ(lex_error.code(), StatusCode::kParseError);
  statements.push_back(bad);

  // The lane classification, the stmt_class label, the plan-cache
  // lookup and the parse share one fingerprint (= one lexer pass) per
  // statement, malformed ones included. Holds on both the cold and the
  // cache-hitting run, serial and parallel.
  for (size_t threads : {1u, 4u}) {
    server.mutable_config().batch_threads = threads;
    const uint64_t before = sql::FingerprintCallCount();
    std::vector<DbServer::BatchStatementResult> results =
        server.ExecuteBatch(statements);
    const uint64_t after = sql::FingerprintCallCount();
    ASSERT_EQ(results.size(), statements.size());
    for (size_t i = 0; i + 1 < results.size(); ++i) {
      ASSERT_TRUE(results[i].status.ok()) << results[i].status.ToString();
    }
    EXPECT_EQ(results.back().status.ToString(), lex_error.ToString());
    EXPECT_EQ(results.back().result.num_rows(), 0u);
    EXPECT_EQ(after - before, statements.size()) << "threads=" << threads;
  }
}

// Regression: version GC used to run only after admission waves, so
// direct writers (unattached check-out clients, multi-site
// write-through to the primary) grew version chains without bound.
TEST(BatchExec, DirectDmlRunsVersionGc) {
  DbServer server;
  Seed(&server, 4);
  server.mutable_config().gc_interval_waves = 2;
  obs::Counter& gc_runs =
      obs::MetricsRegistry::Global().counter("mvcc.gc_runs");
  const uint64_t before = gc_runs.value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        server.Execute(StrFormat("UPDATE t SET name = 'u%d' WHERE id = 1", i))
            .ok());
  }
  EXPECT_GE(gc_runs.value() - before, 1u);
  ResultSet out;
  ASSERT_TRUE(server.Execute(PointQuery(1), &out).ok());
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.At(0, 0).ToString(), "u3");
}

// Direct callers may run the scheduler concurrently. A standalone UPDATE
// is a one-submission wave that runs serially at the latest snapshot,
// resolved under the engine's DML mutex, so concurrent direct writers
// never lose a first-writer-wins race — while read-only batches on the
// worker pool keep reading one consistent snapshot. Under
// -DPDM_THREAD_SANITIZE=ON this is also a race canary.
TEST(BatchExec, ConcurrentDirectWritersNeverConflict) {
  DbServer server;
  Seed(&server, 8);
  server.mutable_config().batch_threads = 4;
  std::vector<std::string> reads;
  for (int i = 0; i < 8; ++i) reads.push_back(PointQuery(i));
  reads.push_back(PointQuery(1));  // a duplicate to coalesce

  std::atomic<int> conflicts{0};
  std::atomic<int> failures{0};
  std::atomic<int> wrong_reads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 200; ++i) {
        Status s = server.Execute(
            StrFormat("UPDATE t SET name = 'w%d_%d' WHERE id = 1", w, i));
        if (s.code() == StatusCode::kWriteConflict) ++conflicts;
        if (!s.ok()) ++failures;
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        std::vector<DbServer::BatchStatementResult> results =
            server.ExecuteBatch(reads);
        for (size_t i = 0; i < results.size(); ++i) {
          if (!results[i].status.ok()) {
            ++failures;
            continue;
          }
          const int id = i < 8 ? static_cast<int>(i) : 1;
          if (results[i].result.num_rows() != 1) {
            ++wrong_reads;
            continue;
          }
          const std::string name = results[i].result.At(0, 0).ToString();
          const bool ok = id == 1 ? (name == "n1" || name[0] == 'w')
                                  : name == StrFormat("n%d", id);
          if (!ok) ++wrong_reads;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(conflicts.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wrong_reads.load(), 0);

  ResultSet out;
  ASSERT_TRUE(server.Execute(PointQuery(1), &out).ok());
  ASSERT_EQ(out.num_rows(), 1u);
  const std::string last = out.At(0, 0).ToString();
  EXPECT_TRUE(last == "w0_199" || last == "w1_199") << last;
}

/// The tentpole's acceptance check on the deterministic 5×5 product:
/// batched MLE retrieves the byte-identical tree in exactly α+1 round
/// trips, for both rule-evaluation variants and all thread counts.
TEST(BatchedStrategy, FiveByFiveExactRoundTripsAndIdenticalTree) {
  client::ExperimentConfig config;
  config.generator.depth = 5;
  config.generator.branching = 5;
  config.generator.sigma = 0.6;
  Result<std::unique_ptr<client::Experiment>> experiment =
      client::Experiment::Create(config);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  client::Experiment& e = **experiment;

  Result<client::ActionResult> nav_late = e.RunAction(
      StrategyKind::kNavigationalLate, ActionKind::kMultiLevelExpand);
  Result<client::ActionResult> nav_early = e.RunAction(
      StrategyKind::kNavigationalEarly, ActionKind::kMultiLevelExpand);
  ASSERT_TRUE(nav_late.ok()) << nav_late.status();
  ASSERT_TRUE(nav_early.ok()) << nav_early.status();

  const struct {
    StrategyKind batched;
    const client::ActionResult* reference;
  } kVariants[] = {{StrategyKind::kBatchedLate, &*nav_late},
                   {StrategyKind::kBatchedEarly, &*nav_early}};
  for (const auto& variant : kVariants) {
    for (size_t threads : {1u, 4u}) {
      e.server().mutable_config().batch_threads = threads;
      e.server().EnableStatementLog(true);
      e.server().ResetObservability();
      Result<client::ActionResult> batched =
          e.RunAction(variant.batched, ActionKind::kMultiLevelExpand);
      ASSERT_TRUE(batched.ok()) << batched.status();

      // α+1 round trips on the wire, n_v+1 statements inside them.
      EXPECT_EQ(batched->wan.round_trips, 6u);
      EXPECT_EQ(batched->wan.statements, e.product().visible_nodes + 1);
      EXPECT_EQ(batched->wan.statements, variant.reference->wan.round_trips);

      // The statement log agrees: every expand belongs to one of α+1
      // batches.
      std::set<uint64_t> batch_ids;
      size_t logged = 0;
      for (const DbServer::StatementLogEntry& entry :
           e.server().statement_log()) {
        if (entry.batch_id == 0) continue;  // late-eval local rule probe
        batch_ids.insert(entry.batch_id);
        ++logged;
      }
      EXPECT_EQ(batch_ids.size(), 6u);
      EXPECT_EQ(logged, batched->wan.statements);

      // Byte-identical tree and identical transmitted volume.
      EXPECT_EQ(batched->tree.ToString(1 << 20),
                variant.reference->tree.ToString(1 << 20));
      EXPECT_EQ(batched->transmitted_rows,
                variant.reference->transmitted_rows);
      EXPECT_EQ(batched->visible_nodes, variant.reference->visible_nodes);
      // Fewer round trips must never change what is shipped.
      EXPECT_DOUBLE_EQ(batched->wan.response_payload_bytes,
                       variant.reference->wan.response_payload_bytes);
      EXPECT_LT(batched->wan.total_seconds(),
                variant.reference->wan.total_seconds());
    }
  }
  e.server().mutable_config().batch_threads = 1;
}

}  // namespace
}  // namespace pdm
