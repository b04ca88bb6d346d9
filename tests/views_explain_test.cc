// Tests for views (incl. the Section 5.5 hidden-structure limitation),
// EXPLAIN, and depth-limited recursive expands.

#include <gtest/gtest.h>

#include "client/experiment.h"
#include "engine/database.h"
#include "rules/query_builder.h"
#include "rules/query_modificator.h"
#include "sql/parser.h"

namespace pdm {
namespace {

class ViewsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE t (a INTEGER, b VARCHAR);
      INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x');
    )sql")
                    .ok());
  }

  ResultSet Q(const std::string& sql) {
    Result<ResultSet> result = db_.Query(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return std::move(result).ValueOr(ResultSet{});
  }

  Database db_;
};

TEST_F(ViewsTest, CreateQueryAndDropView) {
  ASSERT_TRUE(db_.Execute("CREATE VIEW xs AS SELECT a FROM t WHERE b = 'x'")
                  .ok());
  EXPECT_EQ(Q("SELECT COUNT(*) FROM xs").At(0, 0).int64_value(), 2);
  // Views compose with joins and aliases.
  EXPECT_EQ(Q("SELECT COUNT(*) FROM xs AS v JOIN t ON v.a = t.a")
                .At(0, 0)
                .int64_value(),
            2);
  ASSERT_TRUE(db_.Execute("DROP VIEW xs").ok());
  EXPECT_FALSE(db_.Query("SELECT * FROM xs").ok());
  EXPECT_EQ(db_.Execute("DROP VIEW xs").code(), StatusCode::kNotFound);
  EXPECT_TRUE(db_.Execute("DROP VIEW IF EXISTS xs").ok());
}

TEST_F(ViewsTest, ViewsSeeLiveData) {
  ASSERT_TRUE(db_.Execute("CREATE VIEW xs AS SELECT a FROM t WHERE b = 'x'")
                  .ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (4, 'x')").ok());
  EXPECT_EQ(Q("SELECT COUNT(*) FROM xs").At(0, 0).int64_value(), 3);

  // DML predicates read through views as SELECTs do, and touch exactly
  // the rows the SELECT returns; the view itself is no DML target.
  ASSERT_TRUE(db_.Execute("CREATE VIEW big AS SELECT a FROM t WHERE a > 1")
                  .ok());
  const std::string selected =
      Q("SELECT a FROM t WHERE a IN (SELECT a FROM big) ORDER BY 1")
          .ToString();
  EXPECT_EQ(Q("SELECT COUNT(*) FROM big").At(0, 0).int64_value(), 3);
  ResultSet dml;
  ASSERT_TRUE(
      db_.Execute("UPDATE t SET b = 'z' WHERE a IN (SELECT a FROM big)", &dml)
          .ok());
  EXPECT_EQ(dml.affected_rows, 3u);
  EXPECT_EQ(Q("SELECT a FROM t WHERE b = 'z' ORDER BY 1").ToString(),
            selected);
  EXPECT_FALSE(db_.Execute("UPDATE big SET a = 0").ok());
  ASSERT_TRUE(
      db_.Execute("DELETE FROM t WHERE a IN (SELECT a FROM big)", &dml).ok());
  EXPECT_EQ(dml.affected_rows, 3u);
  EXPECT_EQ(Q("SELECT a FROM t").num_rows(), 1u);
}

TEST_F(ViewsTest, OrReplaceAndDuplicates) {
  ASSERT_TRUE(db_.Execute("CREATE VIEW v AS SELECT a FROM t").ok());
  EXPECT_EQ(db_.Execute("CREATE VIEW v AS SELECT b FROM t").code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(
      db_.Execute("CREATE OR REPLACE VIEW v AS SELECT b FROM t").ok());
  EXPECT_EQ(Q("SELECT * FROM v").schema.column(0).name, "b");
}

TEST_F(ViewsTest, NameCollisionWithTableRejected) {
  EXPECT_EQ(db_.Execute("CREATE VIEW t AS SELECT 1").code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ViewsTest, InvalidDefinitionRejectedAtCreation) {
  EXPECT_FALSE(db_.Execute("CREATE VIEW v AS SELECT nosuch FROM t").ok());
  EXPECT_FALSE(db_.Query("SELECT * FROM v").ok());  // nothing registered
}

TEST_F(ViewsTest, ViewsOverViewsAndCycleDetection) {
  ASSERT_TRUE(db_.Execute("CREATE VIEW v1 AS SELECT a FROM t").ok());
  ASSERT_TRUE(
      db_.Execute("CREATE VIEW v2 AS SELECT a FROM v1 WHERE a > 1").ok());
  EXPECT_EQ(Q("SELECT COUNT(*) FROM v2").At(0, 0).int64_value(), 2);

  // Redefining v1 over v2 creates a cycle; binding must detect it.
  ASSERT_TRUE(
      db_.Execute("CREATE OR REPLACE VIEW v1 AS SELECT a FROM v2").ok());
  Result<ResultSet> cyc = db_.Query("SELECT * FROM v1");
  ASSERT_FALSE(cyc.ok());
  EXPECT_NE(cyc.status().message().find("circular"), std::string::npos);
}

TEST_F(ViewsTest, ExplainShowsPlanRows) {
  ResultSet rs = Q("EXPLAIN SELECT a FROM t WHERE a = 2");
  ASSERT_GT(rs.num_rows(), 0u);
  EXPECT_EQ(rs.schema.column(0).name, "plan");
  std::string all;
  for (const Row& row : rs.rows) all += row[0].string_value() + "\n";
  EXPECT_NE(all.find("Project"), std::string::npos);
  EXPECT_NE(all.find("Scan(t)"), std::string::npos);
  EXPECT_NE(all.find("[filtered]"), std::string::npos);
}

TEST_F(ViewsTest, ExplainShowsRecursiveCtesAndJoins) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE edge (src INTEGER, dst INTEGER);
  )sql")
                  .ok());
  ResultSet rs = Q(
      "EXPLAIN WITH RECURSIVE r (n) AS (SELECT 1 UNION "
      "SELECT edge.dst FROM r JOIN edge ON r.n = edge.src) "
      "SELECT * FROM r");
  std::string all;
  for (const Row& row : rs.rows) all += row[0].string_value() + "\n";
  EXPECT_NE(all.find("RecursiveCTE r:"), std::string::npos);
  EXPECT_NE(all.find("recursive term 1"), std::string::npos);
  EXPECT_NE(all.find("IndexJoin"), std::string::npos);
  EXPECT_NE(all.find("CteScan(r)"), std::string::npos);
}

// --- The Section 5.5 view limitation ----------------------------------------

TEST(ViewLimitation, ModificatorRejectsQueriesOverViews) {
  rules::RuleTable rules;
  pdmsys::UserContext user;
  rules::QueryModificator modificator(&rules, user);
  modificator.SetKnownViews({"assy_view"});

  // Hand-written tree query whose recursive member reads from the view.
  Result<sql::StatementPtr> stmt = sql::ParseSql(R"sql(
    WITH RECURSIVE rtbl (obid) AS (
      SELECT obid FROM assy_view WHERE obid = 1
      UNION
      SELECT link.right FROM rtbl JOIN link ON rtbl.obid = link.left)
    SELECT obid FROM rtbl
  )sql");
  ASSERT_TRUE(stmt.ok());
  auto* select = static_cast<sql::SelectStmt*>(stmt->get());
  Result<rules::ModificationSummary> summary =
      modificator.ApplyToRecursiveQuery(select,
                                        rules::RuleAction::kMultiLevelExpand);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kNotImplemented);
  EXPECT_NE(summary.status().message().find("assy_view"), std::string::npos);
}

// --- Depth-limited recursive expands -----------------------------------------

TEST(PartialExpand, RetrievesExactlyTheRequestedLevels) {
  client::ExperimentConfig config;
  config.generator.depth = 4;
  config.generator.branching = 3;
  config.generator.sigma = 1.0;
  Result<std::unique_ptr<client::Experiment>> experiment =
      client::Experiment::Create(config);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  client::Experiment& e = **experiment;

  auto strategy = std::make_unique<client::RecursiveStrategy>(
      &e.connection(), &e.rule_table(), e.user(),
      client::ClientConfig{});
  for (int levels = 1; levels <= 4; ++levels) {
    Result<client::ActionResult> result =
        strategy->PartialExpand(e.product().root_obid, levels);
    ASSERT_TRUE(result.ok()) << result.status();
    size_t expected = 0;
    size_t width = 1;
    for (int i = 1; i <= levels; ++i) {
      width *= 3;
      expected += width;
    }
    EXPECT_EQ(result->visible_nodes, expected) << "levels=" << levels;
    EXPECT_EQ(result->tree.Depth(), static_cast<size_t>(levels));
    EXPECT_EQ(result->wan.round_trips, 1u);
  }
  EXPECT_FALSE(strategy->PartialExpand(e.product().root_obid, 0).ok());
}

TEST(PartialExpand, DepthBoundComposesWithRules) {
  client::ExperimentConfig config;
  config.generator.depth = 3;
  config.generator.branching = 4;
  config.generator.sigma = 0.5;
  Result<std::unique_ptr<client::Experiment>> experiment =
      client::Experiment::Create(config);
  ASSERT_TRUE(experiment.ok());
  client::Experiment& e = **experiment;

  auto strategy = std::make_unique<client::RecursiveStrategy>(
      &e.connection(), &e.rule_table(), e.user(), client::ClientConfig{});
  Result<client::ActionResult> result =
      strategy->PartialExpand(e.product().root_obid, 2);
  ASSERT_TRUE(result.ok()) << result.status();
  size_t expected = e.product().visible_per_level[1] +
                    e.product().visible_per_level[2];
  EXPECT_EQ(result->visible_nodes, expected);
}

}  // namespace
}  // namespace pdm
