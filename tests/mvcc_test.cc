// Tests for MVCC snapshot reads (DESIGN.md 5h): snapshot isolation
// across UPDATE at the engine level, deterministic first-writer-wins
// conflicts with full statement rollback, version-GC defer/prune
// behaviour, conflict surfacing through mixed reader/writer waves, the
// concurrent check-out workload driver (byte-identical reader trees,
// server/client conflict counter reconciliation), a table-level
// snapshot-stability stress that doubles as a TSan canary, and
// vectorized visibility over the columnar fragments (version chains
// crossing the fragment boundary, concurrent fragment scans, the
// batchwise query-all at a pinned snapshot under a writer, the bridge
// scan and the index join across an unpublished append).

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "catalog/table.h"
#include "client/experiment.h"
#include "common/status.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "exec/executor.h"
#include "exec/vec_batch.h"
#include "obs/metrics.h"
#include "plan/binder.h"
#include "rules/query_builder.h"
#include "server/admission_queue.h"
#include "server/db_server.h"
#include "sql/parser.h"
#include "table_test_peer.h"

namespace pdm {
namespace {

using model::ActionKind;
using model::StrategyKind;

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().counter(name).value();
}

TEST(MvccEngine, PinnedSnapshotSeesPreUpdateRows) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE t (id INTEGER, name VARCHAR);
    INSERT INTO t VALUES (1, 'old'), (2, 'old');
  )sql")
                  .ok());

  Database::Snapshot snap = db.AcquireSnapshot();
  ASSERT_TRUE(snap.valid());

  ResultSet ack;
  ASSERT_TRUE(
      db.Execute("UPDATE t SET name = 'new' WHERE id = 1", &ack).ok());
  EXPECT_EQ(ack.affected_rows, 1u);

  // The snapshot predates the UPDATE's commit: reads against it keep
  // seeing the old values while a fresh read sees the new ones.
  ExecStats stats;
  ResultSet pinned;
  ASSERT_TRUE(db.Execute("SELECT name FROM t WHERE id = 1", &pinned, &stats,
                         snap.ts())
                  .ok());
  ASSERT_EQ(pinned.num_rows(), 1u);
  EXPECT_EQ(pinned.At(0, 0).ToString(), "old");

  ResultSet latest;
  ASSERT_TRUE(
      db.Execute("SELECT name FROM t WHERE id = 1", &latest, &stats).ok());
  ASSERT_EQ(latest.num_rows(), 1u);
  EXPECT_EQ(latest.At(0, 0).ToString(), "new");
}

TEST(MvccEngine, StaleSnapshotUpdateLosesFirstWriterWinsAndRollsBack) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE t (id INTEGER, name VARCHAR);
    INSERT INTO t VALUES (1, 'old'), (2, 'old');
  )sql")
                  .ok());
  const uint64_t conflicts_before = CounterValue("mvcc.write_conflicts");

  // A snapshot taken now becomes stale the moment the first writer
  // commits — replaying the race deterministically.
  const uint64_t stale_ts = db.commit_clock();
  ExecStats stats;
  ResultSet ack;
  ASSERT_TRUE(
      db.Execute("UPDATE t SET name = 'first' WHERE id = 1", &ack, &stats)
          .ok());
  EXPECT_EQ(ack.affected_rows, 1u);

  // The second UPDATE targets ALL rows at the stale snapshot. Row 1's
  // version is already killed, so the whole statement must lose and
  // roll back — row 2 untouched despite matching.
  ResultSet out;
  Status lost =
      db.Execute("UPDATE t SET name = 'second'", &out, &stats, stale_ts);
  EXPECT_EQ(lost.code(), StatusCode::kWriteConflict);
  EXPECT_TRUE(IsRetryableConflict(lost.code()));
  EXPECT_EQ(CounterValue("mvcc.write_conflicts"), conflicts_before + 1);

  Result<ResultSet> names = db.Query("SELECT id, name FROM t ORDER BY 1");
  ASSERT_TRUE(names.ok()) << names.status();
  ASSERT_EQ(names->num_rows(), 2u);
  EXPECT_EQ(names->At(0, 1).ToString(), "first");
  EXPECT_EQ(names->At(1, 1).ToString(), "old");

  // A retry at a fresh snapshot succeeds — the conflict is transient.
  ASSERT_TRUE(
      db.Execute("UPDATE t SET name = 'second'", &out, &stats).ok());
  EXPECT_EQ(out.affected_rows, 2u);
}

TEST(MvccEngine, GcDefersUnderActiveSnapshotAndPrunesOnlyDead) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE t (id INTEGER, name VARCHAR);
    INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd');
  )sql")
                  .ok());
  // One UPDATE over all rows: 4 dead versions + 4 live successors.
  ASSERT_TRUE(db.Execute("UPDATE t SET name = 'u'").ok());

  const uint64_t deferred_before = CounterValue("mvcc.gc_deferred");
  const uint64_t runs_before = CounterValue("mvcc.gc_runs");
  const uint64_t pruned_before = CounterValue("mvcc.versions_pruned");

  {
    Database::Snapshot snap = db.AcquireSnapshot();
    ASSERT_TRUE(snap.valid());
    // A live snapshot pins the dead versions: GC must defer, not block.
    EXPECT_EQ(db.GarbageCollectVersions(), 0u);
    EXPECT_EQ(CounterValue("mvcc.gc_deferred"), deferred_before + 1);
    EXPECT_EQ(CounterValue("mvcc.gc_runs"), runs_before);
  }

  Result<ResultSet> before = db.Query("SELECT id, name FROM t ORDER BY id");
  ASSERT_TRUE(before.ok());

  // Snapshot released: GC prunes exactly the 4 dead versions and the
  // latest-visible data is unchanged.
  EXPECT_EQ(db.GarbageCollectVersions(), 4u);
  EXPECT_EQ(CounterValue("mvcc.gc_runs"), runs_before + 1);
  EXPECT_EQ(CounterValue("mvcc.versions_pruned"), pruned_before + 4);

  Result<ResultSet> after = db.Query("SELECT id, name FROM t ORDER BY id");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->ToString(1 << 20), before->ToString(1 << 20));

  // Nothing dead left: a second pass is a no-op AND must leave the
  // fully-live table's row data untouched (regression: the rebuild
  // must not move rows out of versions it then keeps).
  EXPECT_EQ(db.GarbageCollectVersions(), 0u);
  Result<ResultSet> after_noop =
      db.Query("SELECT id, name FROM t ORDER BY id");
  ASSERT_TRUE(after_noop.ok());
  EXPECT_EQ(after_noop->ToString(1 << 20), before->ToString(1 << 20));
}

TEST(MvccWaves, SameWaveUpdatesOnOneRowSurfaceRetryableConflict) {
  DbServer server;
  ASSERT_TRUE(
      server
          .Execute("CREATE TABLE t (id INTEGER, name TEXT)", nullptr)
          .ok());
  ASSERT_TRUE(server.Execute("INSERT INTO t VALUES (1, 'n')", nullptr)
                  .ok());
  AdmissionQueue& queue = server.admission_queue();
  queue.RegisterClient();
  queue.RegisterClient();

  // Two clients update the same row in the same wave. Both submissions
  // run on the serial writer lane against the wave snapshot; the second
  // finds the version killed and must surface a retryable conflict.
  std::vector<std::string> a_stmts = {"UPDATE t SET name = 'a' WHERE id = 1"};
  std::vector<std::string> b_stmts = {"UPDATE t SET name = 'b' WHERE id = 1"};
  std::vector<DbServer::BatchStatementResult> a, b;
  std::thread ta([&] { a = server.Submit(0, a_stmts); });
  std::thread tb([&] { b = server.Submit(1, b_stmts); });
  ta.join();
  tb.join();
  queue.UnregisterClient();
  queue.UnregisterClient();

  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  const Status& won = a[0].status.ok() ? a[0].status : b[0].status;
  const Status& lost = a[0].status.ok() ? b[0].status : a[0].status;
  EXPECT_TRUE(won.ok());
  EXPECT_EQ(lost.code(), StatusCode::kWriteConflict);
  EXPECT_TRUE(IsRetryableConflict(lost.code()));

  std::vector<AdmissionQueue::WaveLogEntry> waves = queue.wave_log();
  ASSERT_EQ(waves.size(), 1u);
  EXPECT_FALSE(waves[0].read_only);
  EXPECT_EQ(waves[0].dml_statements, 2u);
  EXPECT_EQ(waves[0].conflicts, 1u);
}

// Regression: the lane and the stmt_class label come from the statement
// fingerprint, whose lexer skips comments. A write behind a leading
// comment used to be labelled "scan" and scheduled as a barrier, which
// ran its whole wave serially and without reader dedup.
TEST(MvccWaves, CommentedDmlRunsOnTheWriterLane) {
  for (const char* dml : {"/* audit */ UPDATE t SET name = 'a' WHERE id = 1",
                          "-- tag\nDELETE FROM t WHERE id = 2"}) {
    SCOPED_TRACE(dml);
    DbServer server;
    ASSERT_TRUE(server.database()
                    .ExecuteScript(R"sql(
      CREATE TABLE t (id INTEGER, name TEXT);
      INSERT INTO t VALUES (1, 'n'), (2, 'n'), (3, 'n');
    )sql")
                    .ok());
    auto dml_count = [&server] {
      uint64_t n = 0;
      for (const char* engine : {"row", "vec"}) {
        n += obs::MetricsRegistry::Global()
                 .log_histogram("server.statement_sim_seconds",
                                {{"site", server.config().site},
                                 {"stmt_class", "dml"},
                                 {"engine", engine}})
                 .total_count();
      }
      return n;
    };
    const uint64_t dml_before = dml_count();

    AdmissionQueue& queue = server.admission_queue();
    queue.RegisterClient();
    queue.RegisterClient();
    std::vector<std::string> writer = {dml};
    std::vector<std::string> reader = {"SELECT name FROM t WHERE id = 3",
                                       "SELECT name FROM t WHERE id = 3"};
    std::vector<DbServer::BatchStatementResult> w, r;
    std::thread tw([&] { w = server.Submit(0, writer); });
    std::thread tr([&] { r = server.Submit(1, reader); });
    tw.join();
    tr.join();
    queue.UnregisterClient();
    queue.UnregisterClient();

    ASSERT_EQ(w.size(), 1u);
    ASSERT_TRUE(w[0].status.ok()) << w[0].status;
    EXPECT_EQ(w[0].result.affected_rows, 1u);
    ASSERT_EQ(r.size(), 2u);
    ASSERT_TRUE(r[0].status.ok() && r[1].status.ok());

    std::vector<AdmissionQueue::WaveLogEntry> waves = queue.wave_log();
    ASSERT_EQ(waves.size(), 1u);
    EXPECT_EQ(waves[0].submissions, 2u);
    EXPECT_FALSE(waves[0].read_only);
    EXPECT_EQ(waves[0].dml_statements, 1u);
    // The writer lane runs the DML and the reader submission's twin
    // SELECTs execute once; a barrier wave would execute all three.
    EXPECT_EQ(waves[0].unique_statements, 2u);
    EXPECT_EQ(dml_count() - dml_before, 1u);
  }
}

/// The concurrent check-out workload (DESIGN.md 5h): 8 readers expand
/// the product while 4 writers cycle check-out/check-in against the
/// same tree. Reader trees must be byte-identical to a quiesced run —
/// check-out flips only `checkedout` flags, which expand queries never
/// read, and every reader statement sees one consistent snapshot. Also
/// a TSan canary for the wave-lane split. Run under
/// -DPDM_THREAD_SANITIZE=ON this exercises snapshot acquisition, the
/// writer lane, conflict rollback and client retry concurrently.
TEST(MvccConcurrent, ReadersSeeQuiescedTreesWhileWritersCycle) {
  client::ExperimentConfig config;
  config.generator.depth = 3;
  config.generator.branching = 4;
  config.generator.sigma = 0.6;
  Result<std::unique_ptr<client::Experiment>> experiment =
      client::Experiment::Create(config);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  client::Experiment& e = **experiment;

  // Quiesced reference: same action, no writers anywhere.
  Result<client::ActionResult> reference =
      e.RunAction(StrategyKind::kBatchedEarly, ActionKind::kMultiLevelExpand);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const std::string reference_tree = reference->tree.ToString(1 << 20);

  client::ConcurrentDmlOptions options;
  options.readers = 8;
  options.writers = 4;
  options.writer_cycles = 3;
  Result<client::ConcurrentDmlResult> run =
      client::RunConcurrentDmlAction(e, options);
  ASSERT_TRUE(run.ok()) << run.status();

  ASSERT_EQ(run->reader_results.size(), 8u);
  for (const client::ActionResult& r : run->reader_results) {
    EXPECT_EQ(r.tree.ToString(1 << 20), reference_tree);
    EXPECT_EQ(r.visible_nodes, reference->visible_nodes);
  }
  ASSERT_EQ(run->reader_wall_seconds.size(), 8u);
  for (double seconds : run->reader_wall_seconds) {
    EXPECT_GT(seconds, 0.0);
  }

  // Two outcomes (check-out, check-in) per cycle per writer; a denied
  // action is a valid outcome, a hard error would have failed `run`.
  EXPECT_EQ(run->writer_results.size(), 4u * 3u * 2u);
  // The very first check-out wave starts from an all-checked-in tree,
  // so at least one writer's flag UPDATEs went through the waves.
  EXPECT_GT(run->dml_statements, 0u);
  EXPECT_GT(run->waves, 0u);

  // Reconciliation: the server counts one first-writer-wins loss per
  // conflicted execution, the clients one retry per loss — and every
  // chain ended in success (the driver surfaced no hard errors).
  EXPECT_EQ(run->conflicts, run->conflict_retries);
}

/// Table-level snapshot stability: reader threads iterate a fixed
/// snapshot while one writer keeps killing + appending versions. Every
/// read of the snapshot must see exactly the original rows.
TEST(MvccTable, FixedSnapshotIsStableUnderConcurrentWriter) {
  Table table("t", Schema({Column{"id", ColumnType::kInt64},
                           Column{"name", ColumnType::kString}}));
  constexpr int kRows = 256;
  constexpr uint64_t kRounds = 200;
  int64_t expected_sum = 0;
  for (int i = 0; i < kRows; ++i) {
    table.InsertUnchecked({Value::Int64(i), Value::String("v0")});
    expected_sum += i;
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(8);
  for (int r = 0; r < 8; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        size_t count = 0;
        int64_t sum = 0;
        bool originals_only = true;
        table.ForEachVisible(/*ts=*/0, [&](const Row& row) {
          ++count;
          sum += row[0].int64_value();
          if (row[1].string_value() != "v0") originals_only = false;
        });
        if (count != static_cast<size_t>(kRows) || sum != expected_sum ||
            !originals_only) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Single writer (the engine's contract): each round kills 16 rows'
  // open versions and appends successors at a fresh timestamp.
  std::thread writer([&] {
    for (uint64_t ts = 1; ts <= kRounds; ++ts) {
      table.UpdateRows(
          [&](const Row& row) {
            return row[0].int64_value() % 16 ==
                   static_cast<int64_t>(ts % 16);
          },
          [&](Row& row) {
            row[1] = Value::String(
                StrFormat("v%llu", static_cast<unsigned long long>(ts)));
          },
          ts);
    }
  });
  writer.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  // Updates never change the live row count, and the snapshot at the
  // final clock still holds every logical row.
  EXPECT_EQ(table.num_rows(), static_cast<size_t>(kRows));
  EXPECT_EQ(table.SnapshotRows(kRounds).size(), static_cast<size_t>(kRows));
}

/// Vectorized visibility (DESIGN.md 5i): one row updated until its
/// version chain crosses the 1024-row fragment boundary. Every pinned
/// snapshot must see exactly its version through the batch scan, whose
/// visibility pass walks both fragments (the range predicate keeps the
/// query off the equality-index row path).
TEST(MvccVectorized, VersionChainSpanningAFragmentBoundary) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE t (id INTEGER, v INTEGER);
    INSERT INTO t VALUES (1, 0);
  )sql")
                  .ok());

  // 1500 UPDATEs -> 1501 versions of the one logical row: fragment 0
  // holds versions 0..1023, fragment 1 the rest. Checkpoints pin the
  // snapshot right before selected commits, on both sides of and at the
  // boundary.
  constexpr int kUpdates = 1500;
  std::vector<std::pair<uint64_t, int64_t>> checkpoints;
  checkpoints.emplace_back(db.commit_clock(), 0);
  for (int i = 1; i <= kUpdates; ++i) {
    ASSERT_TRUE(db.Execute("UPDATE t SET v = v + 1 WHERE id = 1").ok());
    if (i == 1 || i == 700 || i == 1023 || i == 1024 || i == kUpdates) {
      checkpoints.emplace_back(db.commit_clock(), i);
    }
  }

  for (const auto& [ts, expected] : checkpoints) {
    ExecStats stats;
    ResultSet rs;
    ASSERT_TRUE(
        db.Execute("SELECT v FROM t WHERE v >= 0", &rs, &stats, ts).ok());
    ASSERT_EQ(rs.num_rows(), 1u) << "ts=" << ts;
    EXPECT_EQ(rs.At(0, 0).int64_value(), expected) << "ts=" << ts;
    // The whole chain spans two fragments, and only the one visible
    // version enters the selection vector.
    EXPECT_EQ(stats.vec_batches, 2u);
    EXPECT_EQ(stats.vec_rows_scanned, 1u);
    EXPECT_EQ(stats.rows_scanned, 1u);
  }
}

/// TSan canary for the columnar path: readers sweep the fragment
/// directory with FragmentAt + FillVisible (exactly what the batch
/// executor does) while a writer keeps killing + appending versions.
/// A pinned snapshot must keep resolving to the original rows.
TEST(MvccVectorized, FragmentScanStableUnderConcurrentWriter) {
  Table table("t", Schema({Column{"id", ColumnType::kInt64},
                           Column{"name", ColumnType::kString}}));
  constexpr int kRows = 300;  // spills the writer's appends past 1024
  constexpr uint64_t kRounds = 100;
  int64_t expected_sum = 0;
  for (int i = 0; i < kRows; ++i) {
    table.InsertUnchecked({Value::Int64(i), Value::String("v0")});
    expected_sum += i;
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      VecBatch batch;
      while (!stop.load(std::memory_order_acquire)) {
        const size_t bound = table.num_versions();
        const size_t frags = (bound + kFragmentRows - 1) >> kFragmentShift;
        size_t count = 0;
        int64_t sum = 0;
        bool originals_only = true;
        for (size_t frag = 0; frag < frags; ++frag) {
          batch.span = table.FragmentAt(frag, bound);
          batch.FillVisible(/*ts=*/0);
          const ColumnSpan ids = batch.span.column(0);
          const ColumnSpan names = batch.span.column(1);
          for (uint32_t slot : batch.sel) {
            ++count;
            sum += static_cast<int64_t>(ids.fixed[slot]);
            if (names.strs[slot] != "v0") originals_only = false;
          }
        }
        if (count != static_cast<size_t>(kRows) || sum != expected_sum ||
            !originals_only) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::thread writer([&] {
    for (uint64_t ts = 1; ts <= kRounds; ++ts) {
      table.UpdateRows(
          [&](const Row& row) {
            return row[0].int64_value() % 16 ==
                   static_cast<int64_t>(ts % 16);
          },
          [&](Row& row) {
            row[1] = Value::String(
                StrFormat("v%llu", static_cast<unsigned long long>(ts)));
          },
          ts);
    }
  });
  writer.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(table.num_versions(), static_cast<size_t>(kFragmentRows));
}

/// Executor-level TSan canary for VecSourceCursor's num_versions()
/// bound: the late-evaluation query-all — every UNION ALL branch a
/// VecSource with homogenizing fillers — reads an a7b5 product at a
/// pinned snapshot while a writer keeps flipping `checkedout` on the
/// root assembly, appending versions past the readers' bounds. Every
/// read must return exactly the pinned snapshot's rows.
TEST(MvccVectorized, VecQueryAllStableAtPinnedSnapshotUnderWriter) {
  client::ExperimentConfig config;
  config.generator.depth = 7;
  config.generator.branching = 5;
  config.generator.sigma = 0.6;
  Result<std::unique_ptr<client::Experiment>> experiment =
      client::Experiment::Create(config);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  Database& db = (*experiment)->server().database();
  const int64_t root = (*experiment)->product().root_obid;
  const std::string sql = rules::BuildFlatQuery()->ToSql();

  Database::Snapshot snap = db.AcquireSnapshot();
  ResultSet reference;
  ExecStats stats;
  ASSERT_TRUE(db.Execute(sql, &reference, &stats, snap.ts()).ok());
  ASSERT_GT(reference.num_rows(), 0u);
  ASSERT_EQ(stats.vec_rows_scanned, reference.num_rows());  // batchwise

  std::atomic<bool> stop{false};
  std::atomic<size_t> flips{0};
  std::thread writer([&] {
    for (bool flag = true; !stop.load(std::memory_order_acquire);
         flag = !flag) {
      const Status status = db.Execute(
          StrFormat("UPDATE assy SET checkedout = %s WHERE obid = %lld",
                    flag ? "TRUE" : "FALSE", static_cast<long long>(root)));
      if (status.ok()) flips.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::atomic<size_t> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      for (int read = 0; read < 3; ++read) {
        ResultSet out;
        ExecStats read_stats;
        if (!db.Execute(sql, &out, &read_stats, snap.ts()).ok() ||
            out.rows != reference.rows ||
            read_stats.vec_rows_scanned != reference.num_rows()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(flips.load(), 0u);
}

/// One executor tree over a bound SELECT, on the bridge (vectorized)
/// or on the row operators, reading at `snapshot_ts`.
struct OpenedScan {
  OpenedScan(Database* db, const PlanNode& plan, bool vectorized,
             uint64_t snapshot_ts)
      : ctx(&db->catalog(), &options, &stats, snapshot_ts) {
    options.vectorized_execution = vectorized;
    Result<std::unique_ptr<Executor>> created = CreateExecutor(plan, &ctx);
    EXPECT_TRUE(created.ok()) << created.status();
    if (created.ok()) executor = std::move(created).value();
    if (executor != nullptr) {
      EXPECT_TRUE(executor->Open().ok());
    }
  }

  /// Pulls up to `limit` more rows into `rows`.
  void Pull(size_t limit = std::numeric_limits<size_t>::max()) {
    Row row;
    for (size_t i = 0; executor != nullptr && i < limit; ++i) {
      Result<bool> has = executor->Next(&row);
      ASSERT_TRUE(has.ok()) << has.status();
      if (!*has) return;
      rows.push_back(row);
    }
  }

  ExecOptions options;
  ExecStats stats;
  ExecContext ctx;
  std::unique_ptr<Executor> executor;
  std::vector<Row> rows;
};

/// Binds `sql` (a SELECT) against the database's catalog.
Result<BoundSelect> BindForTest(Database* db, const char* sql) {
  PDM_ASSIGN_OR_RETURN(sql::StatementPtr stmt, sql::ParseSql(sql));
  Binder binder(&db->catalog(), &db->functions(), BinderOptions());
  return binder.BindSelect(static_cast<const sql::SelectStmt&>(*stmt));
}

/// Freshness seam of VecSourceCursor, the batch engine's table scan:
/// like ScanExecutor it fixes its scan bound when it opens. A
/// bridge scan opened while an append is stored but unpublished returns
/// exactly the row engine's result at the same snapshot, also when
/// Publish lands mid-scan; a scan opened after Publish sees the row on
/// both engines. The unpublished position falls inside the last
/// fragment, on a fragment boundary, and past one.
TEST(MvccVectorized, BridgeScanMatchesRowScanAcrossAnUnpublishedAppend) {
  for (int published : {1000, 1024, 1500}) {
    for (const char* sql :
         {"SELECT id, s FROM t WHERE id >= 0", "SELECT s, id FROM t"}) {
      SCOPED_TRACE(StrFormat("%d rows: %s", published, sql));
      Database db;
      ASSERT_TRUE(db.Execute("CREATE TABLE t (id INTEGER, s VARCHAR)").ok());
      Table* table = db.catalog().GetTable("t").value();
      for (int i = 0; i < published; ++i) {
        table->InsertUnchecked({Value::Int64(i), Value::String("v")});
      }
      const size_t pos = TableTestPeer::AppendUnpublished(
          table, {Value::Int64(published), Value::String("late")});
      Database::Snapshot snap = db.AcquireSnapshot();
      Result<BoundSelect> bound = BindForTest(&db, sql);
      ASSERT_TRUE(bound.ok()) << bound.status();
      const PlanNode& plan = *bound->root;

      // Opened and drained while the append is unpublished.
      OpenedScan vec_before(&db, plan, true, snap.ts());
      OpenedScan row_before(&db, plan, false, snap.ts());
      vec_before.Pull();
      row_before.Pull();
      EXPECT_EQ(vec_before.rows.size(), static_cast<size_t>(published));
      EXPECT_EQ(vec_before.rows, row_before.rows);
      EXPECT_GT(vec_before.stats.vec_batches, 0u);  // the bridge ran it
      EXPECT_EQ(row_before.stats.vec_batches, 0u);

      // Opened before Publish, which lands after the first row.
      OpenedScan vec_during(&db, plan, true, snap.ts());
      OpenedScan row_during(&db, plan, false, snap.ts());
      vec_during.Pull(1);
      row_during.Pull(1);
      TableTestPeer::Publish(table, pos);
      vec_during.Pull();
      row_during.Pull();
      EXPECT_EQ(vec_during.rows, row_during.rows);
      EXPECT_EQ(vec_during.rows, vec_before.rows);

      // Opened after Publish: both engines see the late row.
      OpenedScan vec_after(&db, plan, true, snap.ts());
      OpenedScan row_after(&db, plan, false, snap.ts());
      vec_after.Pull();
      row_after.Pull();
      EXPECT_EQ(vec_after.rows.size(), static_cast<size_t>(published) + 1);
      EXPECT_EQ(vec_after.rows, row_after.rows);
    }
  }
}

/// Freshness seam of VecIndexJoinExecutor, the batch engine's other
/// table reader: its matches come from the table's index, which may
/// carry a stored but unpublished append. Like the row index join it
/// admits a match only if the version is published and visible when
/// the probe runs, so at the same snapshot both engines return the same
/// rows whether Publish lands before the first output row or after it.
/// The late position falls inside the last fragment, on a fragment
/// boundary, and past one.
TEST(MvccVectorized, IndexJoinMatchesRowJoinAcrossAnUnpublishedAppend) {
  for (int published : {1000, 1024, 1500}) {
    for (size_t rows_before_publish : {0, 1}) {
      SCOPED_TRACE(StrFormat("%d rows, publish after %zu output rows",
                             published, rows_before_publish));
      Database db;
      ASSERT_TRUE(db.Execute("CREATE TABLE t (id INTEGER, s VARCHAR)").ok());
      ASSERT_TRUE(db.Execute("CREATE TABLE p (k INTEGER)").ok());
      // The late key is probed second, after the first output row.
      ASSERT_TRUE(db.Execute(StrFormat("INSERT INTO p VALUES (0), (%d), (%d)",
                                       published, published - 1))
                      .ok());
      Table* table = db.catalog().GetTable("t").value();
      for (int i = 0; i < published; ++i) {
        table->InsertUnchecked({Value::Int64(i), Value::String("v")});
      }
      const size_t pos = TableTestPeer::AppendUnpublished(
          table, {Value::Int64(published), Value::String("late")});
      Database::Snapshot snap = db.AcquireSnapshot();
      Result<BoundSelect> bound =
          BindForTest(&db, "SELECT p.k, t.s FROM p JOIN t ON p.k = t.id");
      ASSERT_TRUE(bound.ok()) << bound.status();
      const PlanNode& plan = *bound->root;

      // Opened and drained while the append is unpublished.
      OpenedScan vec_before(&db, plan, true, snap.ts());
      OpenedScan row_before(&db, plan, false, snap.ts());
      vec_before.Pull();
      row_before.Pull();
      EXPECT_EQ(vec_before.rows.size(), 2u);
      EXPECT_EQ(vec_before.rows, row_before.rows);
      EXPECT_GT(vec_before.stats.vec_join_probe_rows, 0u);  // the vec join
      EXPECT_EQ(row_before.stats.vec_join_probe_rows, 0u);
      EXPECT_GT(row_before.stats.index_join_probes, 0u);

      // Opened before Publish, which lands before or after the first
      // output row; the late key is probed after it either way.
      OpenedScan vec_during(&db, plan, true, snap.ts());
      OpenedScan row_during(&db, plan, false, snap.ts());
      vec_during.Pull(rows_before_publish);
      row_during.Pull(rows_before_publish);
      TableTestPeer::Publish(table, pos);
      vec_during.Pull();
      row_during.Pull();
      EXPECT_EQ(vec_during.rows.size(), 3u);
      EXPECT_EQ(vec_during.rows, row_during.rows);

      // Opened after Publish: both engines see the late row.
      OpenedScan vec_after(&db, plan, true, snap.ts());
      OpenedScan row_after(&db, plan, false, snap.ts());
      vec_after.Pull();
      row_after.Pull();
      EXPECT_EQ(vec_after.rows, row_after.rows);
      EXPECT_EQ(vec_after.rows, vec_during.rows);
    }
  }
}

}  // namespace
}  // namespace pdm
