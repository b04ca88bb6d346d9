// Row-vs-vectorized differentials for joins, aggregates and ORDER BY
// over the batch->row bridge (DESIGN.md 5j): with vectorized execution
// on, an index join runs on the batch engine, while a build-mode hash
// join, an aggregate and a sort stay row operators that pull bridged
// batches from below. Either way the results must be byte-identical to
// the all-row engine's on every edge it defines semantics for — NULL
// join keys, empty build sides, duplicate keys, residual predicates,
// multi-key joins, int64/double key mixing past the 2^53 exactness
// bound, empty aggregation input, all-NULL groups, DISTINCT,
// fragment-boundary groups, HAVING — plus ORDER BY tie stability and
// an MVCC-visibility-under-join canary (run it under TSan to catch
// fragment/index races).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "engine/database.h"
#include "query_with_stats.h"

namespace pdm {
namespace {

class VecJoinAggTest : public ::testing::Test {
 protected:
  /// obj(id, grp, val, dval): id = 0..rows-1 unique, grp = id % 7,
  /// val = 2*id except NULL when grp == 0 (so group 0 aggregates over
  /// NULLs only), dval = id * 0.25. Inserted in 256-row statements.
  static void FillObj(Database* db, size_t rows) {
    ASSERT_TRUE(db->Execute(
                      "CREATE TABLE obj (id INTEGER, grp INTEGER, "
                      "val INTEGER, dval DOUBLE)")
                    .ok());
    size_t next = 0;
    while (next < rows) {
      std::string sql = "INSERT INTO obj VALUES ";
      const size_t batch = std::min<size_t>(256, rows - next);
      for (size_t j = 0; j < batch; ++j) {
        const size_t i = next + j;
        if (j > 0) sql += ", ";
        const std::string val = i % 7 == 0 ? "NULL" : std::to_string(2 * i);
        sql += StrFormat("(%zu, %zu, %s, %zu.25)", i, i % 7, val.c_str(), i);
      }
      ASSERT_TRUE(db->Execute(sql).ok());
      next += batch;
    }
  }

  /// lnk(parent, child): parent = i / 3, child = i except NULL every
  /// 11th row — so children repeat per parent and some keys are NULL.
  static void FillLnk(Database* db, size_t rows) {
    ASSERT_TRUE(
        db->Execute("CREATE TABLE lnk (parent INTEGER, child INTEGER)").ok());
    size_t next = 0;
    while (next < rows) {
      std::string sql = "INSERT INTO lnk VALUES ";
      const size_t batch = std::min<size_t>(256, rows - next);
      for (size_t j = 0; j < batch; ++j) {
        const size_t i = next + j;
        if (j > 0) sql += ", ";
        const std::string child = i % 11 == 0 ? "NULL" : std::to_string(i);
        sql += StrFormat("(%zu, %s)", i / 3, child.c_str());
      }
      ASSERT_TRUE(db->Execute(sql).ok());
      next += batch;
    }
  }

  /// Runs `sql` with vectorized execution on, then off, and asserts the
  /// rendered results are identical. Returns the on-path stats so
  /// callers can pin which executor actually ran.
  static ExecStats Differential(Database* db, const std::string& sql) {
    db->options().exec.vectorized_execution = true;
    ExecStats vec_stats;
    Result<ResultSet> vec = QueryWithStats(*db, &vec_stats, sql);
    EXPECT_TRUE(vec.ok()) << sql << " -> " << vec.status();
    db->options().exec.vectorized_execution = false;
    ExecStats row_stats;
    Result<ResultSet> row = QueryWithStats(*db, &row_stats, sql);
    EXPECT_TRUE(row.ok()) << sql << " -> " << row.status();
    EXPECT_EQ(row_stats.vec_batches, 0u) << sql;
    db->options().exec.vectorized_execution = true;
    if (vec.ok() && row.ok()) {
      EXPECT_EQ(vec->ToString(1 << 24), row->ToString(1 << 24)) << sql;
    }
    return vec_stats;
  }
};

TEST_F(VecJoinAggTest, BuildModeJoinMatchesRowEngine) {
  Database db;
  FillObj(&db, 300);
  FillLnk(&db, 300);
  // The derived table leaves Project -> Scan[filtered] on the build
  // side — not index-join eligible, so the row join builds its hash
  // table from the bridged build side.
  ExecStats stats = Differential(
      &db,
      "SELECT l.parent, l.child, o.id FROM lnk AS l "
      "JOIN (SELECT id, grp FROM obj WHERE grp < 3) AS o "
      "ON l.child = o.id");
  EXPECT_GT(stats.join_probe_rows, 0u);
  EXPECT_EQ(stats.vec_join_probe_rows, 0u);
  EXPECT_GT(stats.hash_join_builds, 0u);
  EXPECT_GT(stats.vec_batches, 0u);
}

TEST_F(VecJoinAggTest, NullKeysNeverMatch) {
  Database db;
  FillObj(&db, 100);
  FillLnk(&db, 100);
  // lnk.child is NULL every 11th row; obj.val is NULL for grp 0. NULL
  // on either side of the equi-join must never produce a pair.
  Differential(&db,
               "SELECT l.child, o.id FROM lnk AS l "
               "JOIN obj AS o ON l.child = o.val WHERE o.id >= 0");
}

TEST_F(VecJoinAggTest, EmptyBuildSideYieldsNoRows) {
  Database db;
  FillObj(&db, 50);
  FillLnk(&db, 50);
  db.options().exec.vectorized_execution = true;
  Result<ResultSet> rs = db.Query(
      "SELECT l.child FROM lnk AS l JOIN obj AS o ON l.child = o.id "
      "WHERE o.grp < 0");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 0u);
}

TEST_F(VecJoinAggTest, DuplicateBuildKeysEmitAllMatchesInBuildOrder) {
  Database db;
  FillObj(&db, 120);
  // Self-join on grp: every probe hits ~17 build rows; emission order
  // (per probe row, matches in build order) must agree byte-for-byte.
  ExecStats stats = Differential(
      &db,
      "SELECT a.id, b.id FROM obj AS a JOIN obj AS b ON a.grp = b.grp "
      "WHERE b.val IS NOT NULL");
  EXPECT_GT(stats.vec_join_probe_rows, 0u);
}

TEST_F(VecJoinAggTest, MultiKeyJoinUsesGenericKeys) {
  Database db;
  FillObj(&db, 150);
  Differential(&db,
               "SELECT a.id, b.id FROM obj AS a "
               "JOIN obj AS b ON a.grp = b.grp AND a.val = b.val "
               "WHERE b.id < 100");
}

TEST_F(VecJoinAggTest, IntKeysJoinDoubleProbesExactly) {
  Database db;
  FillObj(&db, 60);
  FillLnk(&db, 60);
  // dval = id * 0.25 is integral only when id % 4 == 0: the double
  // probe against the int64 build keys must match exactly those.
  ExecStats stats = Differential(
      &db,
      "SELECT o.dval, l.child FROM obj AS o "
      "JOIN (SELECT child FROM lnk WHERE parent >= 0) AS l "
      "ON o.dval = l.child");
  EXPECT_GT(stats.join_probe_rows, 0u);
  EXPECT_EQ(stats.vec_join_probe_rows, 0u);
  EXPECT_GT(stats.hash_join_builds, 0u);
  EXPECT_GT(stats.vec_batches, 0u);
}

TEST_F(VecJoinAggTest, BuildKeysPastExactDoubleRangeDemoteToGenericTable) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE big (k INTEGER, tag VARCHAR)").ok());
  // 2^53 + 1 is not representable as a double; it must match only
  // itself, never a neighbour that rounds to the same double.
  ASSERT_TRUE(db.Execute("INSERT INTO big VALUES (1, 'small'), "
                         "(9007199254740993, 'huge'), (2, 'small2')")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE probe (k INTEGER)").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO probe VALUES (1), (9007199254740993), (3)")
          .ok());
  ExecStats stats = Differential(
      &db,
      "SELECT p.k, b.tag FROM probe AS p "
      "JOIN (SELECT k, tag FROM big WHERE k > 0) AS b ON p.k = b.k");
  EXPECT_GT(stats.join_probe_rows, 0u);
  EXPECT_EQ(stats.vec_join_probe_rows, 0u);
  EXPECT_GT(stats.hash_join_builds, 0u);
  EXPECT_GT(stats.vec_batches, 0u);
}

TEST_F(VecJoinAggTest, ResidualPredicateFiltersPairs) {
  Database db;
  FillObj(&db, 100);
  FillLnk(&db, 100);
  // The cross-side inequality can't be a hash key, so it survives as a
  // residual evaluated per emitted pair.
  Differential(&db,
               "SELECT l.parent, o.id FROM lnk AS l "
               "JOIN obj AS o ON l.child = o.id AND l.parent < o.grp "
               "WHERE o.id >= 0");
}

TEST_F(VecJoinAggTest, IndexJoinModeBatchesProbes) {
  Database db;
  FillObj(&db, 200);
  FillLnk(&db, 200);
  // Bare right scan + single key: both engines take the index-join
  // path; the vectorized one batches probes and gathers matched rows
  // column-at-a-time.
  ExecStats stats = Differential(&db,
                                 "SELECT l.parent, o.val FROM lnk AS l "
                                 "JOIN obj AS o ON l.child = o.id");
  EXPECT_GT(stats.vec_join_probe_rows, 0u);
  EXPECT_GT(stats.index_join_probes, 0u);
}

TEST_F(VecJoinAggTest, GroupByAggregatesMatchRowEngine) {
  Database db;
  FillObj(&db, 500);
  ExecStats stats = Differential(
      &db,
      "SELECT grp, COUNT(*), COUNT(val), SUM(val), MIN(val), MAX(val), "
      "AVG(val) FROM obj WHERE id >= 0 GROUP BY grp");
  EXPECT_GT(stats.agg_input_rows, 0u);  // the row aggregator ...
  EXPECT_GT(stats.vec_batches, 0u);     // ... over bridged batches
}

TEST_F(VecJoinAggTest, ScalarAggregateOverEmptyInput) {
  Database db;
  FillObj(&db, 50);
  db.options().exec.vectorized_execution = true;
  Result<ResultSet> rs =
      db.Query("SELECT COUNT(*), SUM(val), AVG(val) FROM obj WHERE id < 0");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->At(0, 0).int64_value(), 0);
  EXPECT_TRUE(rs->At(0, 1).is_null());
  EXPECT_TRUE(rs->At(0, 2).is_null());
  Differential(&db, "SELECT COUNT(*), SUM(val), AVG(val) FROM obj "
                    "WHERE id < 0");
  // GROUP BY over empty input yields no groups at all.
  Result<ResultSet> grouped = db.Query(
      "SELECT grp, COUNT(*) FROM obj WHERE id < 0 GROUP BY grp");
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->num_rows(), 0u);
}

TEST_F(VecJoinAggTest, AllNullGroupAggregates) {
  Database db;
  FillObj(&db, 140);
  // Group 0's val is entirely NULL: COUNT(val) = 0, SUM/AVG/MIN/MAX
  // NULL, COUNT(*) still counts the rows.
  db.options().exec.vectorized_execution = true;
  Result<ResultSet> rs = db.Query(
      "SELECT COUNT(*), COUNT(val), SUM(val), AVG(val), MIN(val) "
      "FROM obj WHERE grp = grp AND grp < 1 GROUP BY grp");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->At(0, 0).int64_value(), 20);
  EXPECT_EQ(rs->At(0, 1).int64_value(), 0);
  EXPECT_TRUE(rs->At(0, 2).is_null());
  EXPECT_TRUE(rs->At(0, 3).is_null());
  EXPECT_TRUE(rs->At(0, 4).is_null());
  Differential(&db,
               "SELECT grp, COUNT(*), COUNT(val), SUM(val), AVG(val) "
               "FROM obj WHERE id >= 0 GROUP BY grp");
}

TEST_F(VecJoinAggTest, DistinctAggregates) {
  Database db;
  FillObj(&db, 200);
  Differential(&db,
               "SELECT COUNT(DISTINCT grp), SUM(DISTINCT grp) FROM obj "
               "WHERE id >= 0");
  Differential(&db,
               "SELECT grp, COUNT(DISTINCT val) FROM obj WHERE id >= 0 "
               "GROUP BY grp");
}

TEST_F(VecJoinAggTest, DoubleSumsAccumulateInRowOrder) {
  Database db;
  FillObj(&db, 300);
  // Float addition is order-sensitive; both engines fold dval in scan
  // order so the rendered sums must agree exactly.
  Differential(&db,
               "SELECT grp, SUM(dval), AVG(dval) FROM obj WHERE id >= 0 "
               "GROUP BY grp");
}

TEST_F(VecJoinAggTest, GroupsSpanningTheFragmentBoundary) {
  Database db;
  FillObj(&db, 1025);  // two fragments: 1024 + 1
  ExecStats stats = Differential(
      &db,
      "SELECT grp, COUNT(*), SUM(val) FROM obj WHERE id >= 0 GROUP BY grp");
  EXPECT_EQ(stats.agg_input_rows, 1025u);
  EXPECT_GE(stats.vec_batches, 2u);
}

TEST_F(VecJoinAggTest, HavingFiltersFinishedGroups) {
  Database db;
  FillObj(&db, 130);
  Differential(&db,
               "SELECT grp, COUNT(*) FROM obj WHERE id >= 0 GROUP BY grp "
               "HAVING COUNT(*) > 18");
}

TEST_F(VecJoinAggTest, OrderByOverBridgedScanIsStable) {
  Database db;
  FillObj(&db, 400);
  db.options().exec.vectorized_execution = true;
  // Sort itself stays on the row path but its input arrives through
  // the batch->row bridge — and ties on grp must keep scan (= id)
  // order, pinned by SortExecutor's stable_sort.
  ExecStats stats;
  Result<ResultSet> rs = QueryWithStats(
      db, &stats, "SELECT grp, id FROM obj WHERE val IS NOT NULL ORDER BY grp");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_GT(stats.vec_batches, 0u);
  int64_t prev_grp = -1;
  int64_t prev_id = -1;
  for (size_t i = 0; i < rs->num_rows(); ++i) {
    const int64_t g = rs->At(i, 0).int64_value();
    const int64_t id = rs->At(i, 1).int64_value();
    ASSERT_GE(g, prev_grp);
    if (g == prev_grp) {
      ASSERT_GT(id, prev_id) << "tie broke scan order";
    }
    prev_grp = g;
    prev_id = id;
  }
  Differential(&db,
               "SELECT grp, id FROM obj WHERE val IS NOT NULL ORDER BY grp");
}

TEST_F(VecJoinAggTest, RowOnlyProjectionConsumesBridgedBatches) {
  Database db;
  FillObj(&db, 300);
  db.options().exec.vectorized_execution = true;
  // CASE is outside the vectorizable subset, so the projection runs on
  // the row path — fed by the bridge instead of a row-at-a-time scan.
  ExecStats stats = Differential(
      &db,
      "SELECT CASE WHEN val IS NULL THEN -1 ELSE val END FROM obj "
      "WHERE id >= 5");
  EXPECT_GT(stats.vec_batches, 0u);
}

TEST_F(VecJoinAggTest, AggregateOverJoinStaysCorrect) {
  Database db;
  FillObj(&db, 260);
  FillLnk(&db, 260);
  // The index join runs vectorized underneath and the row aggregator
  // folds its output.
  ExecStats stats = Differential(
      &db,
      "SELECT o.grp, COUNT(*) FROM lnk AS l "
      "JOIN obj AS o ON l.child = o.id GROUP BY o.grp");
  EXPECT_GT(stats.vec_join_probe_rows, 0u);
  EXPECT_GT(stats.agg_input_rows, 0u);
}

// MVCC canary: a writer rolls the whole table's gen forward while a
// reader joins against it. Snapshot isolation means every query must
// see exactly one generation across all joined rows — a torn read
// (mixing fragments from different versions) shows up as two distinct
// gens in one result. Run under TSan to also catch fragment/index
// races between the vectorized gather and the appending writer.
TEST(VecJoinMvccCanary, JoinSeesOneGenerationUnderConcurrentUpdates) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE items (id INTEGER, gen INTEGER)").ok());
  std::string sql = "INSERT INTO items VALUES ";
  for (int i = 0; i < 200; ++i) {
    if (i > 0) sql += ", ";
    sql += StrFormat("(%d, 0)", i);
  }
  ASSERT_TRUE(db.Execute(sql).ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE refs (id INTEGER)").ok());
  sql = "INSERT INTO refs VALUES ";
  for (int i = 0; i < 200; ++i) {
    if (i > 0) sql += ", ";
    sql += StrFormat("(%d)", i);
  }
  ASSERT_TRUE(db.Execute(sql).ok());

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      Result<ResultSet> rs = db.Query(
          "SELECT i.gen FROM refs AS r JOIN items AS i ON r.id = i.id");
      ASSERT_TRUE(rs.ok()) << rs.status();
      ASSERT_EQ(rs->num_rows(), 200u);
      std::set<int64_t> gens;
      for (size_t i = 0; i < rs->num_rows(); ++i) {
        gens.insert(rs->At(i, 0).int64_value());
      }
      if (gens.size() != 1) torn.fetch_add(1);
    }
  });
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(db.Execute("UPDATE items SET gen = gen + 1").ok());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn.load(), 0);
}

}  // namespace
}  // namespace pdm
