// Tests for DDL and DML statements through the engine.

#include <gtest/gtest.h>

#include "engine/database.h"
#include "query_with_stats.h"

namespace pdm {
namespace {

class DmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE t (id INTEGER, name VARCHAR, score DOUBLE);
      INSERT INTO t VALUES (1, 'a', 1.0), (2, 'b', 2.0), (3, 'c', 3.0);
    )sql")
                    .ok());
  }

  Database db_;
};

TEST_F(DmlTest, CreateTableDuplicates) {
  EXPECT_EQ(db_.Execute("CREATE TABLE t (x INTEGER)").code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(db_.Execute("CREATE TABLE IF NOT EXISTS t (x INTEGER)").ok());
}

TEST_F(DmlTest, DropTable) {
  EXPECT_TRUE(db_.Execute("DROP TABLE t").ok());
  EXPECT_EQ(db_.Execute("DROP TABLE t").code(), StatusCode::kNotFound);
  EXPECT_TRUE(db_.Execute("DROP TABLE IF EXISTS t").ok());
  EXPECT_FALSE(db_.Query("SELECT * FROM t").ok());
}

TEST_F(DmlTest, InsertWithColumnListAndDefaults) {
  ResultSet rs;
  ASSERT_TRUE(db_.Execute("INSERT INTO t (name, id) VALUES ('d', 4)", &rs)
                  .ok());
  EXPECT_EQ(rs.affected_rows, 1u);
  Result<ResultSet> row = db_.Query("SELECT score FROM t WHERE id = 4");
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(row->At(0, 0).is_null());  // unmentioned column = NULL
}

TEST_F(DmlTest, InsertTypeMismatchRejected) {
  EXPECT_FALSE(db_.Execute("INSERT INTO t VALUES ('x', 'a', 1.0)").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO t (id) VALUES (1, 2)").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO t (nosuch) VALUES (1)").ok());
}

TEST_F(DmlTest, InsertIntWidensIntoDoubleColumn) {
  EXPECT_TRUE(db_.Execute("INSERT INTO t VALUES (9, 'i', 7)").ok());
  Result<ResultSet> row = db_.Query("SELECT score FROM t WHERE id = 9");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->At(0, 0).int64_value(), 7);
}

TEST_F(DmlTest, UpdateSeesOldValuesUniformly) {
  // A self-referencing update must not observe its own writes: swap-like
  // behaviour of SET over the old row.
  ResultSet rs;
  ASSERT_TRUE(db_.Execute("UPDATE t SET id = id + 1", &rs).ok());
  EXPECT_EQ(rs.affected_rows, 3u);
  Result<ResultSet> ids = db_.Query("SELECT id FROM t ORDER BY 1");
  EXPECT_EQ(ids->At(0, 0).int64_value(), 2);
  EXPECT_EQ(ids->At(2, 0).int64_value(), 4);
}

TEST_F(DmlTest, UpdateWithSubqueryPredicate) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE chosen (id INTEGER);
    INSERT INTO chosen VALUES (1), (3);
  )sql")
                  .ok());
  ResultSet rs;
  ASSERT_TRUE(db_.Execute(
                    "UPDATE t SET name = 'picked' WHERE id IN "
                    "(SELECT id FROM chosen)",
                    &rs)
                  .ok());
  EXPECT_EQ(rs.affected_rows, 2u);
}

TEST_F(DmlTest, JoinInAPredicateSubqueryIsAnIndexJoin) {
  // A DML predicate's subquery binds through the SELECT binder, so its
  // equi-join against a base table is an index join; the nested-loop
  // join must pick the same rows.
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE k (id INTEGER, keep BOOLEAN);
    INSERT INTO k VALUES (1, TRUE), (3, TRUE), (2, FALSE);
  )sql")
                  .ok());
  for (bool index_join : {true, false}) {
    SCOPED_TRACE(index_join ? "index join" : "nested loop");
    db_.options().binder.use_index_join = index_join;
    ResultSet rs;
    ExecStats stats;
    ASSERT_TRUE(db_.Execute("UPDATE t SET score = score + 10 WHERE id IN "
                            "(SELECT k.id FROM k JOIN t AS u "
                            "ON k.id = u.id WHERE k.keep = TRUE)",
                            &rs, &stats)
                    .ok());
    EXPECT_EQ(rs.affected_rows, 2u);
    EXPECT_EQ(stats.index_join_probes > 0, index_join);
    EXPECT_EQ(stats.nl_join_probes > 0, !index_join);
  }
  Result<ResultSet> scores =
      db_.Query("SELECT id, score FROM t ORDER BY id");
  ASSERT_TRUE(scores.ok()) << scores.status();
  EXPECT_EQ(scores->At(0, 1).double_value(), 21.0);
  EXPECT_EQ(scores->At(1, 1).double_value(), 2.0);
  EXPECT_EQ(scores->At(2, 1).double_value(), 23.0);
}

TEST_F(DmlTest, UpdateTypeViolationRejectedBeforeApplying) {
  Status bad = db_.Execute("UPDATE t SET id = 'oops'");
  EXPECT_FALSE(bad.ok());
  // Nothing was applied.
  Result<ResultSet> rs = db_.Query("SELECT COUNT(*) FROM t WHERE id = 1");
  EXPECT_EQ(rs->At(0, 0).int64_value(), 1);
}

TEST_F(DmlTest, DeleteWithAndWithoutPredicate) {
  ResultSet rs;
  ASSERT_TRUE(db_.Execute("DELETE FROM t WHERE id > 1", &rs).ok());
  EXPECT_EQ(rs.affected_rows, 2u);
  ASSERT_TRUE(db_.Execute("DELETE FROM t", &rs).ok());
  EXPECT_EQ(rs.affected_rows, 1u);
  EXPECT_EQ(db_.Query("SELECT COUNT(*) FROM t")->At(0, 0).int64_value(), 0);
}

TEST_F(DmlTest, LargeInListUsesHashedLookup) {
  // Correctness of the literal-set fast path under many items.
  std::string sql = "DELETE FROM t WHERE id IN (";
  for (int i = 0; i < 500; ++i) {
    if (i > 0) sql += ",";
    sql += std::to_string(i * 2);  // even numbers only
  }
  sql += ")";
  ResultSet rs;
  ASSERT_TRUE(db_.Execute(sql, &rs).ok());
  EXPECT_EQ(rs.affected_rows, 1u);  // only id=2 is even
}

TEST_F(DmlTest, ProceduresAndErrors) {
  ASSERT_TRUE(db_.RegisterProcedure(
                    "add_row",
                    [](Database& inner, const std::vector<Value>& args,
                       ResultSet* out) -> Status {
                      (void)out;
                      return inner.Execute(
                          "INSERT INTO t VALUES (" + args[0].ToSqlLiteral() +
                          ", 'proc', 0.0)");
                    })
                  .ok());
  ASSERT_TRUE(db_.Execute("CALL add_row(42)").ok());
  EXPECT_EQ(
      db_.Query("SELECT COUNT(*) FROM t WHERE id = 42")->At(0, 0).int64_value(),
      1);
  EXPECT_EQ(db_.Execute("CALL nosuch()").code(), StatusCode::kNotFound);
  Status dup = db_.RegisterProcedure(
      "ADD_ROW", [](Database&, const std::vector<Value>&, ResultSet*) {
        return Status::OK();
      });
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

// Regression: the lazy column index over link.left used to survive DML
// unrefreshed, so children inserted after an indexed expand were
// invisible to later expands of the same parent.
TEST_F(DmlTest, IndexSeesRowsInsertedAfterBuild) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE link (left INTEGER, right INTEGER, hier VARCHAR);
    INSERT INTO link VALUES (1, 10, 'part-of'), (1, 11, 'part-of'),
                            (2, 20, 'part-of');
  )sql")
                  .ok());
  // Warm up the demand counter (the first lookup on a never-indexed
  // column runs vectorized), then expand: the repeat builds the lazy
  // index over link.left.
  ASSERT_TRUE(db_.Query("SELECT right FROM link WHERE left = 1").ok());
  ExecStats stats;
  Result<ResultSet> kids = QueryWithStats(
      db_, &stats, "SELECT right FROM link WHERE left = 1 ORDER BY 1");
  ASSERT_TRUE(kids.ok());
  EXPECT_EQ(kids->num_rows(), 2u);
  EXPECT_GT(stats.index_scans, 0u);

  // Attach a new child after the index exists: it must be found.
  ASSERT_TRUE(db_.Execute("INSERT INTO link VALUES (1, 12, 'part-of')").ok());
  kids = QueryWithStats(db_, &stats,
                        "SELECT right FROM link WHERE left = 1 ORDER BY 1");
  ASSERT_TRUE(kids.ok());
  ASSERT_EQ(kids->num_rows(), 3u);
  EXPECT_EQ(kids->At(2, 0).int64_value(), 12);
  EXPECT_GT(stats.index_scans, 0u);  // still on the index path
}

TEST_F(DmlTest, IndexInvalidatedByUpdateAndDelete) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE link (left INTEGER, right INTEGER);
    INSERT INTO link VALUES (1, 10), (1, 11), (2, 20);
  )sql")
                  .ok());
  EXPECT_EQ(db_.Query("SELECT right FROM link WHERE left = 1")->num_rows(),
            2u);

  // Re-parent one child; the indexed expand must see the move.
  ASSERT_TRUE(db_.Execute("UPDATE link SET left = 2 WHERE right = 11").ok());
  EXPECT_EQ(db_.Query("SELECT right FROM link WHERE left = 1")->num_rows(),
            1u);
  EXPECT_EQ(db_.Query("SELECT right FROM link WHERE left = 2")->num_rows(),
            2u);

  ASSERT_TRUE(db_.Execute("DELETE FROM link WHERE right = 20").ok());
  EXPECT_EQ(db_.Query("SELECT right FROM link WHERE left = 2")->num_rows(),
            1u);
}

TEST_F(DmlTest, ScriptStopsAtFirstError) {
  Status status = db_.ExecuteScript(
      "INSERT INTO t VALUES (7, 'x', 0.0);"
      "INSERT INTO nosuch VALUES (1);"
      "INSERT INTO t VALUES (8, 'y', 0.0)");
  EXPECT_FALSE(status.ok());
  // The first insert ran, the third did not.
  EXPECT_EQ(
      db_.Query("SELECT COUNT(*) FROM t WHERE id IN (7, 8)")->At(0, 0)
          .int64_value(),
      1);
}

}  // namespace
}  // namespace pdm
