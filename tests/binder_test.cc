// Unit tests for name resolution, plan shapes, predicate pushdown and
// the binder's join operator choice.

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "plan/binder.h"
#include "sql/parser.h"

namespace pdm {
namespace {

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(functions_.RegisterBuiltins().ok());
    ASSERT_TRUE(catalog_
                    .CreateTable("assy",
                                 Schema({{"obid", ColumnType::kInt64},
                                         {"name", ColumnType::kString},
                                         {"dec", ColumnType::kString}}))
                    .ok());
    ASSERT_TRUE(catalog_
                    .CreateTable("link",
                                 Schema({{"left", ColumnType::kInt64},
                                         {"right", ColumnType::kInt64}}))
                    .ok());
  }

  Result<BoundSelect> Bind(std::string_view sql,
                           BinderOptions options = BinderOptions()) {
    Result<sql::StatementPtr> stmt = sql::ParseSql(sql);
    if (!stmt.ok()) return stmt.status();
    Binder binder(&catalog_, &functions_, options);
    return binder.BindSelect(static_cast<const sql::SelectStmt&>(**stmt));
  }

  BoundSelect MustBind(std::string_view sql,
                       BinderOptions options = BinderOptions()) {
    Result<BoundSelect> bound = Bind(sql, options);
    EXPECT_TRUE(bound.ok()) << sql << " -> " << bound.status();
    return bound.ok() ? std::move(bound).value() : BoundSelect{};
  }

  Catalog catalog_;
  FunctionRegistry functions_;
};

TEST_F(BinderTest, ResolvesQualifiedAndBareColumns) {
  BoundSelect bound = MustBind("SELECT assy.obid, name FROM assy");
  ASSERT_EQ(bound.root->kind, PlanKind::kProject);
  const auto& project = static_cast<const ProjectNode&>(*bound.root);
  EXPECT_EQ(project.schema.column(0).name, "obid");
  EXPECT_EQ(project.schema.column(0).type, ColumnType::kInt64);
  EXPECT_EQ(project.schema.column(1).name, "name");
}

TEST_F(BinderTest, UnknownNamesAreBindErrors) {
  EXPECT_EQ(Bind("SELECT nosuch FROM assy").status().code(),
            StatusCode::kBindError);
  EXPECT_EQ(Bind("SELECT x.obid FROM assy").status().code(),
            StatusCode::kBindError);
  EXPECT_EQ(Bind("SELECT * FROM nosuch").status().code(),
            StatusCode::kBindError);
  EXPECT_EQ(Bind("SELECT NOSUCHFN(1)").status().code(),
            StatusCode::kBindError);
}

TEST_F(BinderTest, AmbiguousColumnRejected) {
  Result<BoundSelect> bound =
      Bind("SELECT obid FROM assy AS a, assy AS b");
  ASSERT_FALSE(bound.ok());
  EXPECT_NE(bound.status().message().find("ambiguous"), std::string::npos);
}

TEST_F(BinderTest, DuplicateAliasesResolveToTheirTables) {
  BoundSelect bound =
      MustBind("SELECT a.obid, b.obid FROM assy AS a, assy AS b");
  const auto& project = static_cast<const ProjectNode&>(*bound.root);
  const auto& first = static_cast<const BoundColumnRef&>(*project.exprs[0]);
  const auto& second = static_cast<const BoundColumnRef&>(*project.exprs[1]);
  EXPECT_EQ(first.index, 0u);
  EXPECT_EQ(second.index, 3u);  // offset past a's three columns
}

TEST_F(BinderTest, PushdownMergesSingleTableConjunctsIntoScan) {
  BoundSelect bound =
      MustBind("SELECT obid FROM assy WHERE dec = '+' AND obid > 1");
  const auto& project = static_cast<const ProjectNode&>(*bound.root);
  ASSERT_EQ(project.child->kind, PlanKind::kScan);
  EXPECT_NE(static_cast<const ScanNode&>(*project.child).filter, nullptr);
}

TEST_F(BinderTest, PushdownDisabledKeepsFilterNode) {
  BinderOptions options;
  options.predicate_pushdown = false;
  BoundSelect bound =
      MustBind("SELECT obid FROM assy WHERE dec = '+'", options);
  const auto& project = static_cast<const ProjectNode&>(*bound.root);
  EXPECT_EQ(project.child->kind, PlanKind::kFilter);
}

TEST_F(BinderTest, EquiJoinBecomesIndexJoin) {
  BoundSelect bound = MustBind(
      "SELECT name FROM assy JOIN link ON assy.obid = link.left");
  const auto& project = static_cast<const ProjectNode&>(*bound.root);
  ASSERT_EQ(project.child->kind, PlanKind::kIndexJoin);
  const auto& join = static_cast<const IndexJoinNode&>(*project.child);
  EXPECT_EQ(join.left_key, 0u);   // assy.obid
  EXPECT_EQ(join.right_key, 0u);  // link.left within link
  EXPECT_EQ(join.residual, nullptr);
  EXPECT_EQ(join.right->kind, PlanKind::kScan);

  // The first key conjunct is the key, written either way round; a
  // second equality stays in the residual.
  BoundSelect two = MustBind(
      "SELECT name FROM assy JOIN link ON link.right = assy.obid "
      "AND assy.obid = link.left");
  const auto& two_project = static_cast<const ProjectNode&>(*two.root);
  ASSERT_EQ(two_project.child->kind, PlanKind::kIndexJoin);
  const auto& two_join = static_cast<const IndexJoinNode&>(*two_project.child);
  EXPECT_EQ(two_join.left_key, 0u);   // assy.obid
  EXPECT_EQ(two_join.right_key, 1u);  // link.right
  EXPECT_NE(two_join.residual, nullptr);
}

TEST_F(BinderTest, NonEquiPredicateStaysResidualOrNlj) {
  BoundSelect bound = MustBind(
      "SELECT name FROM assy JOIN link ON assy.obid = link.left "
      "AND assy.obid < link.right");
  const auto& project = static_cast<const ProjectNode&>(*bound.root);
  ASSERT_EQ(project.child->kind, PlanKind::kIndexJoin);
  EXPECT_NE(static_cast<const IndexJoinNode&>(*project.child).residual,
            nullptr);

  BinderOptions options;
  options.use_index_join = false;
  BoundSelect nlj = MustBind(
      "SELECT name FROM assy JOIN link ON assy.obid = link.left", options);
  const auto& nlj_project = static_cast<const ProjectNode&>(*nlj.root);
  EXPECT_EQ(nlj_project.child->kind, PlanKind::kNestedLoopJoin);

  // The index join needs a bare base table and a comparable key.
  for (const char* sql : {
           // A derived table on the right: no index to probe.
           "SELECT l.left FROM link AS l JOIN "
           "(SELECT obid FROM assy) AS a ON l.right = a.obid",
           // A CTE on the right.
           "WITH c (k) AS (SELECT obid FROM assy) "
           "SELECT link.left FROM link JOIN c ON link.right = c.k",
           // Declared types the evaluator cannot compare.
           "SELECT assy.obid FROM assy JOIN link ON assy.name = link.left",
           // Both sides of the equality on the same side of the join.
           "SELECT name FROM assy JOIN link ON link.left = link.right",
       }) {
    BoundSelect shape = MustBind(sql);
    ASSERT_NE(shape.root, nullptr) << sql;
    const auto& shape_project = static_cast<const ProjectNode&>(*shape.root);
    EXPECT_EQ(shape_project.child->kind, PlanKind::kNestedLoopJoin) << sql;
  }
}

TEST_F(BinderTest, OnClauseReferencingLaterTableRejected) {
  Result<BoundSelect> bound = Bind(
      "SELECT 1 FROM assy JOIN link ON link.right = a2.obid "
      "JOIN assy AS a2 ON a2.obid = link.left");
  EXPECT_FALSE(bound.ok());
}

TEST_F(BinderTest, CorrelationDetection) {
  BoundSelect correlated = MustBind(
      "SELECT name FROM assy WHERE EXISTS "
      "(SELECT * FROM link WHERE link.left = assy.obid)");
  // Find the subquery in the scan filter / filter predicate.
  const auto& project = static_cast<const ProjectNode&>(*correlated.root);
  const BoundExpr* predicate = nullptr;
  if (project.child->kind == PlanKind::kScan) {
    predicate = static_cast<const ScanNode&>(*project.child).filter.get();
  } else if (project.child->kind == PlanKind::kFilter) {
    predicate =
        static_cast<const FilterNode&>(*project.child).predicate.get();
  }
  ASSERT_NE(predicate, nullptr);
  ASSERT_EQ(predicate->kind, BoundExprKind::kSubquery);
  EXPECT_TRUE(static_cast<const BoundSubquery&>(*predicate).correlated);

  BoundSelect uncorrelated = MustBind(
      "SELECT name FROM assy WHERE EXISTS (SELECT * FROM link)");
  const auto& p2 = static_cast<const ProjectNode&>(*uncorrelated.root);
  const BoundExpr* pred2 =
      p2.child->kind == PlanKind::kScan
          ? static_cast<const ScanNode&>(*p2.child).filter.get()
          : static_cast<const FilterNode&>(*p2.child).predicate.get();
  ASSERT_EQ(pred2->kind, BoundExprKind::kSubquery);
  EXPECT_FALSE(static_cast<const BoundSubquery&>(*pred2).correlated);
}

TEST_F(BinderTest, CteShadowsBaseTable) {
  BoundSelect bound =
      MustBind("WITH assy AS (SELECT 1 AS one) SELECT one FROM assy");
  ASSERT_EQ(bound.ctes.size(), 1u);
  const auto& project = static_cast<const ProjectNode&>(*bound.root);
  EXPECT_EQ(project.child->kind, PlanKind::kCteScan);
}

TEST_F(BinderTest, RecursiveCteRequiresRecursiveKeyword) {
  Result<BoundSelect> bound = Bind(
      "WITH r (x) AS (SELECT 1 UNION SELECT x FROM r) SELECT * FROM r");
  ASSERT_FALSE(bound.ok());
  EXPECT_NE(bound.status().message().find("RECURSIVE"), std::string::npos);
}

TEST_F(BinderTest, RecursiveCtePartsClassified) {
  BoundSelect bound = MustBind(
      "WITH RECURSIVE r (x) AS (SELECT obid FROM assy WHERE obid = 1 "
      "UNION SELECT link.right FROM r JOIN link ON r.x = link.left) "
      "SELECT x FROM r");
  ASSERT_EQ(bound.ctes.size(), 1u);
  EXPECT_TRUE(bound.ctes[0].recursive);
  EXPECT_EQ(bound.ctes[0].recursive_terms.size(), 1u);
  EXPECT_FALSE(bound.ctes[0].union_all);
  EXPECT_EQ(bound.ctes[0].schema.column(0).name, "x");
}

TEST_F(BinderTest, RecursiveCteColumnCountMismatchRejected) {
  EXPECT_FALSE(Bind("WITH RECURSIVE r (x, y) AS (SELECT 1) SELECT * FROM r")
                   .ok());
  EXPECT_FALSE(
      Bind("WITH RECURSIVE r (x) AS (SELECT 1 UNION SELECT x, x FROM r) "
           "SELECT * FROM r")
          .ok());
}

TEST_F(BinderTest, RecursiveSelfReferenceInSubqueryRejected) {
  Result<BoundSelect> bound = Bind(
      "WITH RECURSIVE r (x) AS (SELECT 1 UNION SELECT obid FROM assy "
      "WHERE obid IN (SELECT x FROM r)) SELECT * FROM r");
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), StatusCode::kNotImplemented);
}

TEST_F(BinderTest, SeedlessRecursionRejected) {
  EXPECT_FALSE(
      Bind("WITH RECURSIVE r (x) AS (SELECT x FROM r) SELECT * FROM r")
          .ok());
}

TEST_F(BinderTest, OrderByPositionOutOfRangeRejected) {
  EXPECT_FALSE(Bind("SELECT obid FROM assy ORDER BY 2").ok());
  EXPECT_FALSE(Bind("SELECT obid FROM assy ORDER BY 0").ok());
}

TEST_F(BinderTest, AggregateInWhereRejected) {
  Result<BoundSelect> bound =
      Bind("SELECT obid FROM assy WHERE COUNT(*) > 1");
  ASSERT_FALSE(bound.ok());
  EXPECT_NE(bound.status().message().find("aggregate"), std::string::npos);
}

TEST_F(BinderTest, NestedAggregatesRejected) {
  EXPECT_FALSE(Bind("SELECT MAX(COUNT(*)) FROM assy").ok());
}

TEST_F(BinderTest, EveryExpressionKindBindsAfterAggregation) {
  const char* kStatements[] = {
      "SELECT obid, CASE WHEN COUNT(*) > 1 THEN 'many' ELSE 'one' END "
      "FROM assy GROUP BY obid",
      "SELECT obid, CASE WHEN COUNT(*) > 1 THEN 'many' END AS k "
      "FROM assy GROUP BY obid",
      "SELECT obid FROM assy GROUP BY obid HAVING COUNT(*) IN (1, 2)",
      "SELECT obid FROM assy GROUP BY obid HAVING COUNT(*) BETWEEN 1 AND 2",
      "SELECT name FROM assy GROUP BY name HAVING name LIKE 'A%'",
      "SELECT obid FROM assy GROUP BY obid "
      "HAVING COUNT(*) IN (SELECT left FROM link)",
      "SELECT obid, COUNT(*) NOT IN (SELECT left FROM link) AS lonely "
      "FROM assy GROUP BY obid",
  };
  for (const char* sql : kStatements) MustBind(sql);
}

TEST_F(BinderTest, FunctionArityCheckedAfterAggregation) {
  Result<BoundSelect> grouped = Bind("SELECT MOD(COUNT(*)) FROM assy");
  Result<BoundSelect> plain = Bind("SELECT MOD(obid) FROM assy");
  ASSERT_EQ(grouped.status().code(), StatusCode::kBindError);
  EXPECT_EQ(grouped.status().ToString(), plain.status().ToString());
}

TEST_F(BinderTest, NonGroupedColumnRejectedAfterAggregation) {
  for (const char* sql :
       {"SELECT name, COUNT(*) FROM assy GROUP BY obid",
        "SELECT obid FROM assy GROUP BY obid HAVING name = 'x'",
        "SELECT obid, CASE WHEN name = 'x' THEN 1 END FROM assy "
        "GROUP BY obid"}) {
    Result<BoundSelect> bound = Bind(sql);
    ASSERT_EQ(bound.status().code(), StatusCode::kBindError) << sql;
    EXPECT_NE(bound.status().message().find(
                  "' must appear in GROUP BY or inside an aggregate function"),
              std::string::npos)
        << bound.status();
  }
}

TEST_F(BinderTest, CorrelatedSubqueryAfterAggregationNotImplemented) {
  for (const char* sql :
       {"SELECT obid, (SELECT COUNT(*) FROM link WHERE link.left = assy.obid) "
        "FROM assy GROUP BY obid",
        "SELECT obid FROM assy GROUP BY obid "
        "HAVING EXISTS (SELECT * FROM link WHERE link.left = assy.obid)"}) {
    EXPECT_EQ(Bind(sql).status().code(), StatusCode::kNotImplemented) << sql;
  }
  // The aggregating query may itself be a correlated subquery body.
  MustBind(
      "SELECT obid FROM assy WHERE 1 IN (SELECT COUNT(*) FROM link "
      "WHERE link.left = assy.obid GROUP BY link.right "
      "HAVING COUNT(*) < assy.obid)");
}

TEST_F(BinderTest, AggregateOutputColumnsCarryTheirTypes) {
  BoundSelect bound = MustBind(
      "SELECT obid, name, COUNT(*), SUM(obid), AVG(obid), MIN(name), "
      "obid + 1 AS next FROM assy GROUP BY obid, name");
  const Schema& schema = bound.root->schema;
  const ColumnType kExpected[] = {
      ColumnType::kInt64, ColumnType::kString, ColumnType::kInt64,
      ColumnType::kInt64, ColumnType::kDouble, ColumnType::kString,
      ColumnType::kInt64};
  ASSERT_EQ(schema.num_columns(), std::size(kExpected));
  for (size_t i = 0; i < std::size(kExpected); ++i) {
    EXPECT_EQ(schema.column(i).type, kExpected[i]) << schema.column(i).name;
  }
}

TEST_F(BinderTest, MaxOwnRowIndexAnalysis) {
  BoundSelect bound = MustBind(
      "SELECT name FROM assy WHERE EXISTS "
      "(SELECT * FROM link WHERE link.left = assy.obid)");
  const auto& project = static_cast<const ProjectNode&>(*bound.root);
  const BoundExpr* predicate =
      project.child->kind == PlanKind::kScan
          ? static_cast<const ScanNode&>(*project.child).filter.get()
          : static_cast<const FilterNode&>(*project.child).predicate.get();
  // The correlated ref assy.obid (index 0) is the only own-row reference.
  std::optional<size_t> max_index = MaxOwnRowIndex(*predicate);
  ASSERT_TRUE(max_index.has_value());
  EXPECT_EQ(*max_index, 0u);
  EXPECT_FALSE(ExprHasEscapingRefs(*predicate, 0));
}

}  // namespace
}  // namespace pdm
