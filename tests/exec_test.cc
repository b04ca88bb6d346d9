// Execution tests: operators and SQL semantics (three-valued logic,
// joins, aggregation, set operations) exercised through the Database
// facade.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/string_util.h"
#include "engine/database.h"
#include "query_with_stats.h"

namespace pdm {
namespace {

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE nums (n INTEGER, d DOUBLE, s VARCHAR);
      INSERT INTO nums VALUES
        (1, 1.5, 'one'), (2, 2.5, 'two'), (3, NULL, 'three'),
        (NULL, 4.5, NULL), (5, 5.5, 'five');
      CREATE TABLE pets (owner VARCHAR, pet VARCHAR);
      INSERT INTO pets VALUES
        ('ann', 'cat'), ('ann', 'dog'), ('bob', 'cat'), ('eve', 'fox');
    )sql")
                    .ok());
  }

  ResultSet Q(const std::string& sql) {
    Result<ResultSet> result = QueryWithStats(db_, &stats_, sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return std::move(result).ValueOr(ResultSet{});
  }

  Database db_;
  ExecStats stats_;  // counters of the latest Q()
};

TEST_F(ExecTest, ProjectionAndArithmetic) {
  ResultSet rs = Q("SELECT n + 1, n * 2, 7 / 2, 7 % 2, -n FROM nums WHERE n = 3");
  EXPECT_EQ(rs.At(0, 0).int64_value(), 4);
  EXPECT_EQ(rs.At(0, 1).int64_value(), 6);
  EXPECT_EQ(rs.At(0, 2).int64_value(), 3);  // integer division
  EXPECT_EQ(rs.At(0, 3).int64_value(), 1);
  EXPECT_EQ(rs.At(0, 4).int64_value(), -3);
}

TEST_F(ExecTest, MixedArithmeticWidensToDouble) {
  ResultSet rs = Q("SELECT n + d FROM nums WHERE n = 1");
  EXPECT_TRUE(rs.At(0, 0).is_double());
  EXPECT_DOUBLE_EQ(rs.At(0, 0).double_value(), 2.5);
}

TEST_F(ExecTest, DivisionByZeroIsAnError) {
  EXPECT_FALSE(db_.Query("SELECT 1 / 0").ok());
  EXPECT_FALSE(db_.Query("SELECT 1 % 0").ok());
  EXPECT_FALSE(db_.Query("SELECT 1.0 / 0").ok());
}

TEST_F(ExecTest, ThreeValuedLogicInWhere) {
  // n > 2 is NULL for the NULL row: it must be filtered out, and so must
  // its negation — the classic 3VL behaviour.
  EXPECT_EQ(Q("SELECT n FROM nums WHERE n > 2").num_rows(), 2u);
  EXPECT_EQ(Q("SELECT n FROM nums WHERE NOT (n > 2)").num_rows(), 2u);
  EXPECT_EQ(Q("SELECT n FROM nums WHERE n IS NULL").num_rows(), 1u);
  EXPECT_EQ(Q("SELECT n FROM nums WHERE n IS NOT NULL").num_rows(), 4u);
}

TEST_F(ExecTest, KleeneAndOr) {
  // NULL OR TRUE = TRUE; NULL AND TRUE = NULL (filtered).
  EXPECT_EQ(Q("SELECT n FROM nums WHERE n > 100 OR s = 'three'").num_rows(),
            1u);
  EXPECT_EQ(
      Q("SELECT n FROM nums WHERE d > 0 AND s IS NULL").num_rows(), 1u);
  // Short-circuit must not change semantics: FALSE AND <error> is FALSE.
  EXPECT_EQ(Q("SELECT n FROM nums WHERE 1 = 2 AND 1 / 0 = 1").num_rows(),
            0u);
}

TEST_F(ExecTest, InListSemantics) {
  EXPECT_EQ(Q("SELECT n FROM nums WHERE n IN (1, 5)").num_rows(), 2u);
  // x NOT IN (list containing NULL) is never TRUE unless matched.
  EXPECT_EQ(Q("SELECT n FROM nums WHERE n NOT IN (1, NULL)").num_rows(), 0u);
  EXPECT_EQ(Q("SELECT n FROM nums WHERE n IN (1, NULL)").num_rows(), 1u);
  // Cross-kind numeric match.
  EXPECT_EQ(Q("SELECT n FROM nums WHERE n IN (1.0)").num_rows(), 1u);
}

TEST_F(ExecTest, BetweenAndLike) {
  EXPECT_EQ(Q("SELECT n FROM nums WHERE n BETWEEN 2 AND 3").num_rows(), 2u);
  EXPECT_EQ(Q("SELECT n FROM nums WHERE n NOT BETWEEN 2 AND 3").num_rows(),
            2u);
  EXPECT_EQ(Q("SELECT s FROM nums WHERE s LIKE 't%'").num_rows(), 2u);
  EXPECT_EQ(Q("SELECT s FROM nums WHERE s LIKE '_ive'").num_rows(), 1u);
}

TEST_F(ExecTest, CaseExpression) {
  // ORDER BY resolves output columns (positions or names), so the sort
  // key must be selected.
  ResultSet rs = Q(
      "SELECT n, CASE WHEN n < 3 THEN 'small' WHEN n < 10 THEN 'big' "
      "ELSE 'other' END FROM nums WHERE n IS NOT NULL ORDER BY n");
  EXPECT_EQ(rs.At(0, 1).string_value(), "small");
  EXPECT_EQ(rs.At(3, 1).string_value(), "big");
}

TEST_F(ExecTest, CaseWithoutElseYieldsNull) {
  ResultSet rs = Q("SELECT CASE WHEN 1 = 2 THEN 'x' END");
  EXPECT_TRUE(rs.At(0, 0).is_null());
}

TEST_F(ExecTest, CrossJoinAndEquiJoin) {
  EXPECT_EQ(Q("SELECT * FROM pets AS a, pets AS b").num_rows(), 16u);
  ResultSet rs = Q(
      "SELECT a.owner, b.owner FROM pets AS a JOIN pets AS b "
      "ON a.pet = b.pet WHERE a.owner < b.owner");
  // cat is shared by ann/bob.
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.At(0, 0).string_value(), "ann");
  EXPECT_EQ(rs.At(0, 1).string_value(), "bob");
}

TEST_F(ExecTest, JoinWithNullKeysNeverMatches) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE l (k INTEGER);
    CREATE TABLE r (k INTEGER);
    INSERT INTO l VALUES (1), (NULL);
    INSERT INTO r VALUES (1), (NULL);
  )sql")
                  .ok());
  EXPECT_EQ(Q("SELECT * FROM l JOIN r ON l.k = r.k").num_rows(), 1u);
}

TEST_F(ExecTest, IndexJoinAndNestedLoopAgree) {
  const char* sql =
      "SELECT a.owner FROM pets AS a JOIN pets AS b ON a.pet = b.pet "
      "ORDER BY 1";
  ResultSet with_index = Q(sql);
  db_.options().binder.use_index_join = false;
  ResultSet with_nlj = Q(sql);
  ASSERT_EQ(with_index.num_rows(), with_nlj.num_rows());
  for (size_t i = 0; i < with_index.num_rows(); ++i) {
    EXPECT_EQ(with_index.At(i, 0).ToString(), with_nlj.At(i, 0).ToString());
  }
}

TEST_F(ExecTest, ScalarAggregates) {
  ResultSet rs = Q(
      "SELECT COUNT(*), COUNT(n), SUM(n), AVG(n), MIN(n), MAX(n) FROM nums");
  EXPECT_EQ(rs.At(0, 0).int64_value(), 5);   // COUNT(*) counts NULL rows
  EXPECT_EQ(rs.At(0, 1).int64_value(), 4);   // COUNT(n) skips NULL
  EXPECT_EQ(rs.At(0, 2).int64_value(), 11);  // 1+2+3+5
  EXPECT_DOUBLE_EQ(rs.At(0, 3).double_value(), 2.75);
  EXPECT_EQ(rs.At(0, 4).int64_value(), 1);
  EXPECT_EQ(rs.At(0, 5).int64_value(), 5);
}

TEST_F(ExecTest, AggregatesOverEmptyInput) {
  ResultSet rs =
      Q("SELECT COUNT(*), SUM(n), MIN(n) FROM nums WHERE n > 100");
  EXPECT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.At(0, 0).int64_value(), 0);
  EXPECT_TRUE(rs.At(0, 1).is_null());
  EXPECT_TRUE(rs.At(0, 2).is_null());
}

TEST_F(ExecTest, GroupByWithHaving) {
  ResultSet rs = Q(
      "SELECT owner, COUNT(*) FROM pets GROUP BY owner "
      "HAVING COUNT(*) > 1 ORDER BY 1");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.At(0, 0).string_value(), "ann");
  EXPECT_EQ(rs.At(0, 1).int64_value(), 2);
}

TEST_F(ExecTest, GroupByPreservesFirstSeenOrderUnderSort) {
  ResultSet rs =
      Q("SELECT pet, COUNT(*) FROM pets GROUP BY pet ORDER BY 2 DESC, 1");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_EQ(rs.At(0, 0).string_value(), "cat");
}

TEST_F(ExecTest, CountDistinct) {
  ResultSet rs = Q("SELECT COUNT(DISTINCT pet) FROM pets");
  EXPECT_EQ(rs.At(0, 0).int64_value(), 3);
}

TEST_F(ExecTest, AggregateArithmeticInSelectList) {
  ResultSet rs = Q("SELECT MAX(n) - MIN(n), COUNT(*) * 10 FROM nums");
  EXPECT_EQ(rs.At(0, 0).int64_value(), 4);
  EXPECT_EQ(rs.At(0, 1).int64_value(), 50);
}

TEST_F(ExecTest, NonAggregatedColumnRejected) {
  Result<ResultSet> bad = db_.Query("SELECT owner, COUNT(*) FROM pets");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kBindError);
}

TEST_F(ExecTest, DistinctAndUnionSemantics) {
  EXPECT_EQ(Q("SELECT DISTINCT pet FROM pets").num_rows(), 3u);
  EXPECT_EQ(Q("SELECT pet FROM pets UNION SELECT pet FROM pets").num_rows(),
            3u);
  EXPECT_EQ(
      Q("SELECT pet FROM pets UNION ALL SELECT pet FROM pets").num_rows(),
      8u);
  // NULLs group together in DISTINCT.
  EXPECT_EQ(Q("SELECT DISTINCT s IS NULL FROM nums").num_rows(), 2u);
}

TEST_F(ExecTest, UnionArityMismatchRejected) {
  EXPECT_FALSE(db_.Query("SELECT 1 UNION SELECT 1, 2").ok());
}

TEST_F(ExecTest, OrderByAndLimit) {
  ResultSet rs = Q("SELECT n FROM nums WHERE n IS NOT NULL ORDER BY n DESC "
                   "LIMIT 2");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.At(0, 0).int64_value(), 5);
  EXPECT_EQ(rs.At(1, 0).int64_value(), 3);
}

TEST_F(ExecTest, OrderByNullsFirst) {
  ResultSet rs = Q("SELECT n FROM nums ORDER BY n");
  EXPECT_TRUE(rs.At(0, 0).is_null());
  EXPECT_EQ(rs.At(1, 0).int64_value(), 1);
}

TEST_F(ExecTest, CorrelatedExists) {
  ResultSet rs = Q(
      "SELECT DISTINCT owner FROM pets AS p WHERE EXISTS "
      "(SELECT * FROM pets AS q WHERE q.pet = p.pet AND q.owner <> p.owner) "
      "ORDER BY 1");
  ASSERT_EQ(rs.num_rows(), 2u);  // ann and bob share 'cat'
  EXPECT_EQ(rs.At(0, 0).string_value(), "ann");
}

TEST_F(ExecTest, CorrelatedScalarSubquery) {
  ResultSet rs = Q(
      "SELECT owner, (SELECT COUNT(*) FROM pets AS q WHERE q.owner = "
      "p.owner) FROM pets AS p WHERE pet = 'cat' ORDER BY 1");
  EXPECT_EQ(rs.At(0, 1).int64_value(), 2);  // ann
  EXPECT_EQ(rs.At(1, 1).int64_value(), 1);  // bob
}

TEST_F(ExecTest, ScalarSubqueryCardinalityChecks) {
  EXPECT_TRUE(Q("SELECT (SELECT n FROM nums WHERE n = 99)").At(0, 0).is_null());
  EXPECT_FALSE(db_.Query("SELECT (SELECT n FROM nums)").ok());
}

TEST_F(ExecTest, InSubqueryWithNulls) {
  // 4 IN (set without 4 but with NULL) -> NULL -> filtered.
  EXPECT_EQ(
      Q("SELECT d FROM nums WHERE 4 IN (SELECT n FROM nums)").num_rows(),
      0u);
  EXPECT_EQ(
      Q("SELECT d FROM nums WHERE 5 IN (SELECT n FROM nums)").num_rows(),
      5u);
}

TEST_F(ExecTest, ConcatCoercesToString) {
  ResultSet rs = Q("SELECT s || '-' || n FROM nums WHERE n = 1");
  EXPECT_EQ(rs.At(0, 0).string_value(), "one-1");
}

TEST_F(ExecTest, CastSemantics) {
  EXPECT_EQ(Q("SELECT CAST('42' AS INTEGER)").At(0, 0).int64_value(), 42);
  EXPECT_EQ(Q("SELECT CAST(4.9 AS INTEGER)").At(0, 0).int64_value(), 4);
  EXPECT_EQ(Q("SELECT CAST(7 AS VARCHAR)").At(0, 0).string_value(), "7");
  EXPECT_TRUE(Q("SELECT CAST(NULL AS INTEGER)").At(0, 0).is_null());
  EXPECT_TRUE(Q("SELECT CAST(1 AS BOOLEAN)").At(0, 0).bool_value());
  EXPECT_FALSE(db_.Query("SELECT CAST('xyz' AS INTEGER)").ok());
}

TEST_F(ExecTest, SelectWithoutFromAndConstantFilter) {
  EXPECT_EQ(Q("SELECT 1, 'a'").num_rows(), 1u);
  EXPECT_EQ(Q("SELECT 1 WHERE 1 = 2").num_rows(), 0u);
  EXPECT_EQ(Q("SELECT 1 WHERE 1 = 1").num_rows(), 1u);
}

TEST_F(ExecTest, ComparingIncomparableKindsIsAnError) {
  EXPECT_FALSE(db_.Query("SELECT * FROM nums WHERE s > 1").ok());
}

TEST_F(ExecTest, StatsCountScannedAndEmittedRows) {
  // The first point lookup on a never-indexed column stays on the
  // vectorized sweep (demand-based routing); the repeat proves the
  // column is worth an index and moves to the row engine's index scan,
  // which touches only the matching row.
  Q("SELECT * FROM nums WHERE n = 1");
  EXPECT_EQ(stats_.index_scans, 0u);
  Q("SELECT * FROM nums WHERE n = 1");
  EXPECT_EQ(stats_.rows_scanned, 1u);
  EXPECT_EQ(stats_.rows_emitted, 1u);
  EXPECT_EQ(stats_.index_scans, 1u);
}

TEST_F(ExecTest, DerivedTables) {
  ResultSet rs = Q(
      "SELECT t.total FROM (SELECT owner, COUNT(*) AS total FROM pets "
      "GROUP BY owner) AS t WHERE t.owner = 'ann'");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.At(0, 0).int64_value(), 2);
}

// --- Vectorized batch execution (DESIGN.md 5i) ------------------------------
//
// Edge cases around the 1024-row fragment geometry, the selection
// vector, NULLs in filter columns, and the row-path fallbacks, all
// through the Database facade. ExecStats.vec_batches/vec_rows_scanned
// prove which engine actually ran: the row path never touches them.

class VecExecTest : public ::testing::Test {
 protected:
  /// t(id, v, s): id = 0..rows-1, v = 2*id except NULL on every 7th
  /// row, s = one of 'a'/'b'/'c' + id. Inserted in 256-row statements
  /// so large tables don't blow up the parser.
  static void Fill(Database* db, size_t rows) {
    ASSERT_TRUE(
        db->Execute("CREATE TABLE t (id INTEGER, v INTEGER, s VARCHAR)")
            .ok());
    size_t next = 0;
    while (next < rows) {
      std::string sql = "INSERT INTO t VALUES ";
      const size_t batch = std::min<size_t>(256, rows - next);
      for (size_t j = 0; j < batch; ++j) {
        const size_t i = next + j;
        if (j > 0) sql += ", ";
        const std::string v = i % 7 == 0 ? "NULL" : std::to_string(2 * i);
        sql += StrFormat("(%zu, %s, '%c%zu')", i, v.c_str(),
                         static_cast<char>('a' + i % 3), i);
      }
      ASSERT_TRUE(db->Execute(sql).ok());
      next += batch;
    }
  }
};

TEST_F(VecExecTest, EmptyTableYieldsEmptyResult) {
  Database db;
  ExecStats stats;
  Fill(&db, 0);
  Result<ResultSet> rs =
      QueryWithStats(db, &stats, "SELECT id FROM t WHERE v >= 0");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 0u);
  EXPECT_EQ(stats.vec_batches, 0u);
  EXPECT_EQ(stats.rows_scanned, 0u);
}

TEST_F(VecExecTest, ExactlyOneFragmentOfRows) {
  Database db;
  ExecStats stats;
  Fill(&db, 1024);
  Result<ResultSet> rs =
      QueryWithStats(db, &stats, "SELECT id FROM t WHERE id >= 0");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 1024u);
  EXPECT_EQ(rs->At(1023, 0).int64_value(), 1023);
  EXPECT_EQ(stats.vec_batches, 1u);
  EXPECT_EQ(stats.vec_rows_scanned, 1024u);
}

TEST_F(VecExecTest, OneRowPastTheFragmentBoundary) {
  Database db;
  ExecStats stats;
  Fill(&db, 1025);
  Result<ResultSet> rs =
      QueryWithStats(db, &stats, "SELECT id FROM t WHERE id >= 0");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 1025u);
  // Scan order is preserved across the boundary.
  EXPECT_EQ(rs->At(1023, 0).int64_value(), 1023);
  EXPECT_EQ(rs->At(1024, 0).int64_value(), 1024);
  EXPECT_EQ(stats.vec_batches, 2u);
  EXPECT_EQ(stats.vec_rows_scanned, 1025u);
}

TEST_F(VecExecTest, AllRowsFilteredLeavesEmptySelection) {
  Database db;
  ExecStats stats;
  Fill(&db, 100);
  Result<ResultSet> rs =
      QueryWithStats(db, &stats, "SELECT id FROM t WHERE id < 0");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 0u);
  // Every row was scanned vectorized, none survived the selection.
  EXPECT_EQ(stats.vec_rows_scanned, 100u);
  EXPECT_EQ(stats.rows_emitted, 0u);
}

TEST_F(VecExecTest, NullsInFilterColumnsFollowThreeValuedLogic) {
  Database db;
  ExecStats stats;
  Fill(&db, 70);  // v NULL on ids 0, 7, ..., 63: 10 NULLs, 60 values
  auto count = [&](const std::string& where) {
    Result<ResultSet> rs =
        QueryWithStats(db, &stats, "SELECT id FROM t WHERE " + where);
    EXPECT_TRUE(rs.ok()) << where << " -> " << rs.status();
    return rs.ok() ? rs->num_rows() : size_t{0};
  };
  EXPECT_EQ(count("v >= 0"), 60u);
  EXPECT_EQ(stats.vec_rows_scanned, 70u);
  EXPECT_EQ(count("NOT (v >= 0)"), 0u);  // NULL stays filtered under NOT
  EXPECT_EQ(count("v IS NULL"), 10u);
  EXPECT_EQ(count("v IS NOT NULL"), 60u);
  EXPECT_EQ(count("v >= 0 OR v IS NULL"), 70u);
  EXPECT_EQ(count("v >= 0 AND s IS NOT NULL"), 60u);
}

TEST_F(VecExecTest, PointLookupRoutingIsDemandBased) {
  Database db;
  ExecStats stats;
  Fill(&db, 100);
  // First point lookup on a never-indexed column: no index exists and
  // none has proven worth building, so the vectorized sweep answers it
  // (the old routing sent every `col = literal` to the row path and
  // paid a full row-at-a-time scan for a one-off query).
  Result<ResultSet> rs =
      QueryWithStats(db, &stats, "SELECT v FROM t WHERE id = 5");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->At(0, 0).int64_value(), 10);
  EXPECT_EQ(stats.index_scans, 0u);
  EXPECT_GT(stats.vec_batches, 0u);
  // The repeat is the demand signal: the row engine builds the lazy
  // index and the point lookup touches only the matching row.
  rs = QueryWithStats(db, &stats, "SELECT v FROM t WHERE id = 6");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->At(0, 0).int64_value(), 12);
  EXPECT_EQ(stats.index_scans, 1u);
  EXPECT_EQ(stats.rows_scanned, 1u);
  EXPECT_EQ(stats.vec_batches, 0u);
  // Once fresh, the index keeps winning.
  rs = QueryWithStats(db, &stats, "SELECT v FROM t WHERE id = 7");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(stats.index_scans, 1u);
  EXPECT_EQ(stats.rows_scanned, 1u);
}

TEST_F(VecExecTest, UnsupportedExpressionFallsBackToTheRowEngine) {
  Database db;
  ExecStats stats;
  Fill(&db, 10);
  Result<ResultSet> rs = QueryWithStats(
      db, &stats,
      "SELECT id FROM t WHERE CASE WHEN v IS NULL THEN 0 ELSE v END >= 0");
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 10u);
  EXPECT_EQ(stats.vec_batches, 0u);
  EXPECT_EQ(stats.rows_scanned, 10u);
}

TEST_F(VecExecTest, LimitStopsAtTheFirstSatisfiedFragment) {
  Database db;
  ExecStats stats;
  Fill(&db, 2500);
  Result<ResultSet> rs =
      QueryWithStats(db, &stats, "SELECT id FROM t WHERE id >= 10 LIMIT 5");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 5u);
  EXPECT_EQ(rs->At(0, 0).int64_value(), 10);
  // Fragments 1 and 2 are never opened once the limit is satisfied.
  EXPECT_EQ(stats.vec_batches, 1u);

  Result<ResultSet> zero = db.Query("SELECT id FROM t WHERE id >= 0 LIMIT 0");
  ASSERT_TRUE(zero.ok()) << zero.status();
  EXPECT_EQ(zero->num_rows(), 0u);
}

TEST_F(VecExecTest, ProjectionExpressionsMaterializeLate) {
  Database db;
  ExecStats stats;
  Fill(&db, 50);
  Result<ResultSet> rs = QueryWithStats(
      db, &stats,
      "SELECT id + 1, v * 2, s || '!' FROM t WHERE id BETWEEN 10 AND 12");
  ASSERT_TRUE(rs.ok()) << rs.status();
  ASSERT_EQ(rs->num_rows(), 3u);
  EXPECT_EQ(rs->At(0, 0).int64_value(), 11);
  EXPECT_EQ(rs->At(0, 1).int64_value(), 40);
  EXPECT_EQ(rs->At(0, 2).string_value(), "b10!");
  EXPECT_EQ(stats.vec_batches, 1u);
}

TEST_F(VecExecTest, AgreesWithTheRowEngineOnOperatorMix) {
  Database db;
  Fill(&db, 1500);
  const char* kQueries[] = {
      "SELECT * FROM t WHERE v > 100",
      "SELECT id, s FROM t WHERE s LIKE 'b%' AND v IS NOT NULL",
      "SELECT id FROM t WHERE id IN (3, 1030, 9999) OR v < 10",
      "SELECT v FROM t WHERE NOT (id BETWEEN 5 AND 1400)",
      "SELECT id FROM t WHERE v >= 0 LIMIT 37",
      "SELECT id, v + id FROM t WHERE 100 <= v AND v <= 120",
  };
  for (const char* sql : kQueries) {
    Result<ResultSet> vec = db.Query(sql);
    ASSERT_TRUE(vec.ok()) << sql << " -> " << vec.status();
    db.options().exec.vectorized_execution = false;
    Result<ResultSet> row = db.Query(sql);
    db.options().exec.vectorized_execution = true;
    ASSERT_TRUE(row.ok()) << sql << " -> " << row.status();
    EXPECT_EQ(vec->ToString(100000), row->ToString(100000)) << sql;
  }
}

TEST_F(VecExecTest, ErrorsMatchTheRowEngine) {
  Database db;
  Fill(&db, 20);
  const char* kBadQueries[] = {
      "SELECT id FROM t WHERE s > 1",   // incomparable kinds
      "SELECT id FROM t WHERE v + 1",   // non-boolean predicate
      "SELECT id FROM t WHERE NOT v",   // NOT on non-boolean
  };
  for (const char* sql : kBadQueries) {
    Result<ResultSet> vec = db.Query(sql);
    EXPECT_FALSE(vec.ok()) << sql;
    db.options().exec.vectorized_execution = false;
    Result<ResultSet> row = db.Query(sql);
    db.options().exec.vectorized_execution = true;
    EXPECT_FALSE(row.ok()) << sql;
    EXPECT_EQ(vec.status().ToString(), row.status().ToString()) << sql;
  }
}

}  // namespace
}  // namespace pdm
