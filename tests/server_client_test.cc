// Tests for the server endpoint, the client connection, and the
// client-side (late) rule evaluator.

#include <gtest/gtest.h>

#include "client/connection.h"
#include "client/rule_eval.h"
#include "pdm/generator.h"
#include "server/db_server.h"
#include "sql/parser.h"

namespace pdm::client {
namespace {

TEST(DbServer, ExecutesAndSizesResponses) {
  DbServer server;
  ASSERT_TRUE(server.database()
                  .ExecuteScript("CREATE TABLE t (a INTEGER);"
                                 "INSERT INTO t VALUES (1), (2)")
                  .ok());
  ResultSet rs;
  ASSERT_TRUE(server.Execute("SELECT * FROM t", &rs).ok());
  EXPECT_EQ(rs.num_rows(), 2u);
  EXPECT_GT(server.ResponseBytes(rs), 0u);
}

TEST(Connection, AccountsEveryRoundTrip) {
  DbServer server;
  ASSERT_TRUE(server.database().Execute("CREATE TABLE t (a INTEGER)").ok());
  net::WanConfig wan;
  wan.latency_s = 0.1;
  Connection conn(&server, wan);

  ASSERT_TRUE(conn.Execute("INSERT INTO t VALUES (1)", nullptr).ok());
  ASSERT_TRUE(conn.Execute("SELECT * FROM t", nullptr).ok());
  EXPECT_EQ(conn.stats().round_trips, 2u);
  EXPECT_NEAR(conn.stats().latency_seconds, 0.4, 1e-9);

  conn.ResetStats();
  EXPECT_EQ(conn.stats().round_trips, 0u);
}

TEST(Connection, SizerOverridesServerPolicy) {
  DbServer server;
  ASSERT_TRUE(server.database()
                  .ExecuteScript("CREATE TABLE t (a INTEGER);"
                                 "INSERT INTO t VALUES (1), (2), (3)")
                  .ok());
  Connection conn(&server, net::WanConfig{});
  ResultSet rs;
  ASSERT_TRUE(conn.Execute("SELECT * FROM t", &rs,
                           [](const ResultSet& r) {
                             return r.num_rows() * 1000;
                           })
                  .ok());
  EXPECT_DOUBLE_EQ(conn.stats().response_payload_bytes, 3000.0);
}

TEST(Connection, ErrorsDoNotRecordTraffic) {
  DbServer server;
  Connection conn(&server, net::WanConfig{});
  EXPECT_FALSE(conn.Execute("SELECT * FROM missing", nullptr).ok());
  EXPECT_EQ(conn.stats().round_trips, 0u);
}

class RuleEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pdmsys::GeneratorConfig config;
    config.depth = 2;
    config.branching = 4;
    config.sigma = 0.5;
    Result<pdmsys::GeneratedProduct> product =
        pdmsys::GenerateProduct(&server_.database(), config);
    ASSERT_TRUE(product.ok());
    product_ = *product;

    rules::Rule acc;
    acc.condition = std::move(*rules::RowCondition::Parse("*", "acc = '+'"));
    rules_.AddRule(std::move(acc));
  }

  DbServer server_;
  rules::RuleTable rules_;
  pdmsys::GeneratedProduct product_;
};

TEST_F(RuleEvalTest, PreparedFilterSeparatesVisibleRows) {
  Result<ResultSet> rows =
      server_.database().Query("SELECT type, obid, acc FROM assy");
  ASSERT_TRUE(rows.ok());
  ClientRuleEvaluator evaluator(&rules_, pdmsys::UserContext{});
  Result<std::unique_ptr<PreparedRowFilter>> filter =
      evaluator.Prepare(rows->schema, rules::RuleAction::kQuery);
  ASSERT_TRUE(filter.ok()) << filter.status();

  size_t visible = 0;
  size_t acc_col = *rows->schema.FindColumn("acc");
  for (const Row& row : rows->rows) {
    Result<bool> pass = (*filter)->Passes(row);
    ASSERT_TRUE(pass.ok());
    EXPECT_EQ(*pass, row[acc_col].string_value() == "+");
    if (*pass) ++visible;
  }
  EXPECT_GT(visible, 0u);
  EXPECT_LT(visible, rows->num_rows());
}

TEST_F(RuleEvalTest, FilterRequiresTypeColumn) {
  ClientRuleEvaluator evaluator(&rules_, pdmsys::UserContext{});
  Schema schema({{"x", ColumnType::kInt64}});
  EXPECT_FALSE(evaluator.Prepare(schema, rules::RuleAction::kQuery).ok());
}

TEST_F(RuleEvalTest, InapplicableGroupsAreSkipped) {
  // A link rule cannot bind against a structure-less result: the group
  // silently does not apply.
  rules::Rule link_rule;
  link_rule.object_type = "link";
  link_rule.condition =
      std::move(*rules::RowCondition::Parse("link", "eff_from <= 50"));
  rules_.AddRule(std::move(link_rule));

  Result<ResultSet> rows =
      server_.database().Query("SELECT type, obid, acc FROM assy");
  ClientRuleEvaluator evaluator(&rules_, pdmsys::UserContext{});
  Result<std::unique_ptr<PreparedRowFilter>> filter =
      evaluator.Prepare(rows->schema, rules::RuleAction::kQuery);
  EXPECT_TRUE(filter.ok()) << filter.status();
}

TEST_F(RuleEvalTest, TreeConditionsEvaluateClientSide) {
  rules::Rule agg;
  agg.condition = std::make_unique<rules::TreeAggregateCondition>(
      AggKind::kCountStar, "", "assy", sql::BinaryOp::kLessEq,
      Value::Int64(3));
  rules_.AddRule(std::move(agg));

  ClientRuleEvaluator evaluator(&rules_, pdmsys::UserContext{});
  Result<ResultSet> nodes = server_.database().Query(
      "SELECT type, obid, checkedout FROM assy");
  ASSERT_TRUE(nodes.ok());
  // 5 assemblies (> 3): the aggregate fails.
  Result<bool> pass =
      evaluator.TreeConditionsPass(*nodes, rules::RuleAction::kQuery);
  ASSERT_TRUE(pass.ok()) << pass.status();
  EXPECT_FALSE(*pass);
}

TEST_F(RuleEvalTest, ForAllRowsFailsOnOneViolatingNode) {
  rules::Rule forall;
  forall.condition = std::make_unique<rules::ForAllRowsCondition>(
      "assy", std::move(*sql::ParseSqlExpression("checkedout = FALSE")));
  rules_.AddRule(std::move(forall));

  ASSERT_TRUE(server_.database()
                  .Execute("UPDATE assy SET checkedout = TRUE WHERE obid = " +
                           std::to_string(product_.root_obid))
                  .ok());
  ClientRuleEvaluator evaluator(&rules_, pdmsys::UserContext{});
  Result<ResultSet> nodes = server_.database().Query(
      "SELECT type, obid, checkedout FROM assy");
  Result<bool> pass =
      evaluator.TreeConditionsPass(*nodes, rules::RuleAction::kCheckOut);
  ASSERT_TRUE(pass.ok());
  EXPECT_FALSE(*pass);
}

/// One tree aggregate over `v` of the 'comp' rows of `rows_sql` (a query
/// with columns type, v), as the client's fold and as the recursive
/// strategy's server SQL decide it.
struct FoldVerdicts {
  Result<bool> client;
  Result<bool> server;
};

FoldVerdicts FoldBothWays(Database* db, const std::string& rows_sql,
                          AggKind agg, sql::BinaryOp cmp, Value threshold) {
  rules::TreeAggregateCondition cond(agg, "v", "comp", cmp,
                                     std::move(threshold));
  const std::string with = "WITH m (type, v) AS (" + rows_sql + ") ";
  rules::RuleTable table;
  rules::Rule rule;
  rule.condition = cond.Clone();
  table.AddRule(std::move(rule));
  ClientRuleEvaluator evaluator(&table, pdmsys::UserContext{});
  Result<ResultSet> rows = db->Query(with + "SELECT type, v FROM m");
  Result<bool> client = rows.status();
  if (rows.ok()) {
    client = evaluator.TreeConditionsPass(*rows, rules::RuleAction::kQuery);
  }
  Result<sql::ExprPtr> pred = cond.TranslateForRecursiveTable("m");
  Result<bool> server = pred.status();
  if (pred.ok()) {
    Result<ResultSet> kept =
        db->Query(with + "SELECT 1 WHERE " + (*pred)->ToSql());
    server = kept.status();
    if (kept.ok()) server = kept->num_rows() == 1;
  }
  return {std::move(client), std::move(server)};
}

TEST(TreeAggregateFold, ClientAgreesWithServerSql) {
  Database db;
  const std::string kBig =
      "SELECT 'comp', 9007199254740992 UNION ALL SELECT 'comp', 1";
  const std::string kNames =
      "SELECT 'comp', 'b' UNION ALL SELECT 'assy', 'a' "
      "UNION ALL SELECT 'comp', 'c'";
  const struct {
    const std::string& rows;
    AggKind agg;
    sql::BinaryOp cmp;
    Value threshold;
    bool pass;
  } kCases[] = {
      // 2^53 + 1 is exact in int64 arithmetic, not in a double.
      {kBig, AggKind::kSum, sql::BinaryOp::kGreater,
       Value::Int64(9007199254740992), true},
      {kBig, AggKind::kSum, sql::BinaryOp::kEq,
       Value::Int64(9007199254740993), true},
      {kBig, AggKind::kMin, sql::BinaryOp::kLessEq, Value::Int64(1), true},
      {kNames, AggKind::kMin, sql::BinaryOp::kGreaterEq, Value::String("b"),
       true},
      {kNames, AggKind::kMin, sql::BinaryOp::kGreater, Value::String("b"),
       false},
      {kNames, AggKind::kMax, sql::BinaryOp::kLess, Value::String("c"),
       false},
      {kNames, AggKind::kCount, sql::BinaryOp::kEq, Value::Int64(2), true},
  };
  for (const auto& c : kCases) {
    FoldVerdicts v = FoldBothWays(&db, c.rows, c.agg, c.cmp, c.threshold);
    ASSERT_TRUE(v.server.ok()) << v.server.status();
    ASSERT_TRUE(v.client.ok()) << v.client.status();
    EXPECT_EQ(*v.server, c.pass) << c.rows;
    EXPECT_EQ(*v.client, c.pass) << c.rows;
  }

  // No 'comp' row: a NULL aggregate fails on both sides.
  FoldVerdicts none = FoldBothWays(&db, "SELECT 'assy', 1", AggKind::kSum,
                                   sql::BinaryOp::kLess, Value::Int64(5));
  ASSERT_TRUE(none.client.ok() && none.server.ok());
  EXPECT_FALSE(*none.client);
  EXPECT_FALSE(*none.server);

  // MIN over incomparable values is an error on both sides.
  FoldVerdicts mixed = FoldBothWays(
      &db, "SELECT 'comp', 1 UNION ALL SELECT 'comp', 'x'", AggKind::kMin,
      sql::BinaryOp::kGreaterEq, Value::Int64(0));
  EXPECT_EQ(mixed.client.status().code(), StatusCode::kExecutionError);
  EXPECT_EQ(mixed.server.status().code(), StatusCode::kExecutionError);
}

}  // namespace
}  // namespace pdm::client
