// Tests for the rule layer: condition classification (paper Figure 1),
// SQL translation (5.3.1-5.3.3), user-variable instantiation, and the
// rule table's relevance filtering.

#include <gtest/gtest.h>

#include "rules/condition.h"
#include "rules/rule.h"
#include "sql/parser.h"

namespace pdm::rules {
namespace {

pdmsys::UserContext Scott() {
  pdmsys::UserContext user;
  user.name = "scott";
  user.strc_opt = 5;
  user.eff_from = 10;
  user.eff_to = 20;
  return user;
}

TEST(Conditions, RowConditionClassifiesAndTranslates) {
  Result<std::unique_ptr<RowCondition>> cond =
      RowCondition::Parse("assy", "make_or_buy <> 'buy'");
  ASSERT_TRUE(cond.ok()) << cond.status();
  EXPECT_EQ((*cond)->condition_class(), ConditionClass::kRow);
  EXPECT_EQ((*cond)->target_type(), "assy");

  Result<sql::ExprPtr> pred = (*cond)->Instantiate(Scott(), "assy");
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ((*pred)->ToSql(), "assy.make_or_buy <> 'buy'");
}

TEST(Conditions, UserVariablesSubstituted) {
  Result<std::unique_ptr<RowCondition>> cond = RowCondition::Parse(
      "link",
      "BITAND(strc_opt, $user.strc_opt) <> 0 AND eff_from <= $user.eff_to");
  ASSERT_TRUE(cond.ok());
  Result<sql::ExprPtr> pred = (*cond)->Instantiate(Scott(), "link");
  ASSERT_TRUE(pred.ok());
  std::string sql = (*pred)->ToSql();
  EXPECT_NE(sql.find("BITAND(link.strc_opt, 5)"), std::string::npos) << sql;
  EXPECT_NE(sql.find("link.eff_from <= 20"), std::string::npos) << sql;
  EXPECT_EQ(sql.find("$user"), std::string::npos) << sql;
}

TEST(Conditions, UserNameSubstitutesAsStringLiteral) {
  Result<std::unique_ptr<RowCondition>> cond =
      RowCondition::Parse("doc", "owner = $user.name");
  ASSERT_TRUE(cond.ok());
  Result<sql::ExprPtr> pred = (*cond)->Instantiate(Scott(), "doc");
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ((*pred)->ToSql(), "doc.owner = 'scott'");
}

TEST(Conditions, UnknownUserVariableRejected) {
  Result<std::unique_ptr<RowCondition>> cond =
      RowCondition::Parse("assy", "x = $user.shoe_size");
  ASSERT_TRUE(cond.ok());
  EXPECT_FALSE((*cond)->Instantiate(Scott(), "assy").ok());
}

TEST(Conditions, QualifiedRefsAreLeftAlone) {
  Result<std::unique_ptr<RowCondition>> cond =
      RowCondition::Parse("assy", "other.x = 1 AND y = 2");
  ASSERT_TRUE(cond.ok());
  Result<sql::ExprPtr> pred = (*cond)->Instantiate(Scott(), "assy");
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ((*pred)->ToSql(), "(other.x = 1) AND (assy.y = 2)");
}

TEST(Conditions, UserRefInsideSubqueryRejected) {
  // The second predicate holds the `$user` ref one derived table deeper;
  // shipped unsubstituted it would fail on the server as an unknown
  // column.
  for (const char* predicate :
       {"obid IN (SELECT obid FROM comp WHERE name = $user.name)",
        "obid IN (SELECT d.obid FROM (SELECT obid FROM comp "
        "WHERE name = $user.name) d)"}) {
    SCOPED_TRACE(predicate);
    Result<std::unique_ptr<RowCondition>> cond =
        RowCondition::Parse("comp", predicate);
    ASSERT_TRUE(cond.ok()) << cond.status();
    Result<sql::ExprPtr> pred = (*cond)->Instantiate(Scott(), "comp");
    ASSERT_FALSE(pred.ok()) << (*pred)->ToSql();
    EXPECT_EQ(pred.status().code(), StatusCode::kNotImplemented);
  }
}

TEST(Conditions, SubqueryRefsStayUnqualified) {
  // Only the outer predicate's refs are the tested object's attributes.
  Result<std::unique_ptr<RowCondition>> cond = RowCondition::Parse(
      "comp",
      "obid IN (SELECT d.obid FROM (SELECT obid FROM comp WHERE x = 1) d) "
      "AND z = $user.strc_opt");
  ASSERT_TRUE(cond.ok()) << cond.status();
  Result<sql::ExprPtr> pred = (*cond)->Instantiate(Scott(), "comp");
  ASSERT_TRUE(pred.ok()) << pred.status();
  std::string sql = (*pred)->ToSql();
  EXPECT_NE(sql.find("comp.obid IN (SELECT d.obid FROM (SELECT obid FROM "
                     "comp WHERE x = 1)"),
            std::string::npos)
      << sql;
  EXPECT_NE(sql.find("comp.z = 5"), std::string::npos) << sql;
}

TEST(Conditions, ForAllRowsTranslation) {
  Result<sql::ExprPtr> row_pred = sql::ParseSqlExpression("dec = '+'");
  ASSERT_TRUE(row_pred.ok());
  ForAllRowsCondition cond("assy", std::move(*row_pred));
  EXPECT_EQ(cond.condition_class(), ConditionClass::kForAllRows);

  Result<sql::ExprPtr> translated =
      cond.TranslateForRecursiveTable(Scott(), "rtbl");
  ASSERT_TRUE(translated.ok());
  std::string sql = (*translated)->ToSql();
  // NOT EXISTS (SELECT * FROM rtbl WHERE type='assy' AND NOT (...)).
  EXPECT_NE(sql.find("NOT EXISTS (SELECT * FROM rtbl"), std::string::npos)
      << sql;
  EXPECT_NE(sql.find("rtbl.type = 'assy'"), std::string::npos) << sql;
  EXPECT_NE(sql.find("NOT (rtbl.dec = '+')"), std::string::npos) << sql;
}

TEST(Conditions, ForAllRowsWildcardTypeOmitsFilter) {
  Result<sql::ExprPtr> row_pred =
      sql::ParseSqlExpression("checkedout = FALSE");
  ForAllRowsCondition cond("", std::move(*row_pred));
  Result<sql::ExprPtr> translated =
      cond.TranslateForRecursiveTable(Scott(), "rtbl");
  ASSERT_TRUE(translated.ok());
  EXPECT_EQ((*translated)->ToSql().find("type ="), std::string::npos);
}

TEST(Conditions, ExistsStructureTranslation) {
  ExistsStructureCondition cond("comp", "specified_by", "spec");
  EXPECT_EQ(cond.condition_class(), ConditionClass::kExistsStructure);
  Result<sql::ExprPtr> pred = cond.Instantiate(Scott(), "comp");
  ASSERT_TRUE(pred.ok());
  std::string sql = (*pred)->ToSql();
  EXPECT_NE(sql.find("EXISTS (SELECT * FROM specified_by JOIN spec ON "
                     "specified_by.right = spec.obid WHERE "
                     "specified_by.left = comp.obid)"),
            std::string::npos)
      << sql;
}

TEST(Conditions, ExistsStructureWithOtherPredicate) {
  Result<sql::ExprPtr> extra =
      sql::ParseSqlExpression("doc_size > $user.strc_opt");
  ExistsStructureCondition cond("comp", "specified_by", "spec",
                                std::move(*extra));
  Result<sql::ExprPtr> pred = cond.Instantiate(Scott(), "comp");
  ASSERT_TRUE(pred.ok());
  std::string sql = (*pred)->ToSql();
  EXPECT_NE(sql.find("spec.doc_size > 5"), std::string::npos) << sql;
}

TEST(Conditions, ForAllRowsOverExistsStructure) {
  // The Section 5.5 remark: ∀rows whose inner condition is ∃structure.
  auto structure = std::make_unique<ExistsStructureCondition>(
      "comp", "specified_by", "spec");
  ForAllRowsCondition cond("comp", std::move(structure));
  Result<sql::ExprPtr> translated =
      cond.TranslateForRecursiveTable(Scott(), "rtbl");
  ASSERT_TRUE(translated.ok());
  std::string sql = (*translated)->ToSql();
  // The ∃structure now correlates on the homogenized table.
  EXPECT_NE(sql.find("specified_by.left = rtbl.obid"), std::string::npos)
      << sql;
  EXPECT_NE(sql.find("NOT EXISTS (SELECT * FROM rtbl"), std::string::npos)
      << sql;
}

TEST(Conditions, TreeAggregateTranslation) {
  TreeAggregateCondition cond(AggKind::kCountStar, "", "assy",
                              sql::BinaryOp::kLessEq, Value::Int64(10));
  EXPECT_EQ(cond.condition_class(), ConditionClass::kTreeAggregate);
  Result<sql::ExprPtr> pred = cond.TranslateForRecursiveTable("rtbl");
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ((*pred)->ToSql(),
            "(SELECT COUNT(*) FROM rtbl WHERE rtbl.type = 'assy') <= 10");
}

TEST(Conditions, TreeAggregateWithAttribute) {
  TreeAggregateCondition cond(AggKind::kAvg, "weight", "",
                              sql::BinaryOp::kLessEq, Value::Double(12.0));
  Result<sql::ExprPtr> pred = cond.TranslateForRecursiveTable("rtbl");
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ((*pred)->ToSql(), "(SELECT AVG(rtbl.weight) FROM rtbl) <= 12");
}

TEST(Conditions, NonCountAggregateWithoutAttributeRejected) {
  TreeAggregateCondition cond(AggKind::kAvg, "", "", sql::BinaryOp::kLess,
                              Value::Int64(1));
  EXPECT_FALSE(cond.TranslateForRecursiveTable("rtbl").ok());
}

TEST(Conditions, CloneIsDeep) {
  Result<std::unique_ptr<RowCondition>> cond =
      RowCondition::Parse("assy", "dec = '+'");
  ConditionPtr clone = (*cond)->Clone();
  EXPECT_EQ(clone->condition_class(), ConditionClass::kRow);
  EXPECT_EQ(clone->Describe(), (*cond)->Describe());
}

// --- RuleTable -------------------------------------------------------------

Rule MakeRule(std::string user, RuleAction action, std::string type) {
  Rule rule;
  rule.user = std::move(user);
  rule.action = action;
  rule.object_type = std::move(type);
  rule.condition = std::move(*RowCondition::Parse(rule.object_type, "1 = 1"));
  return rule;
}

TEST(RuleTable, RelevanceFiltering) {
  RuleTable table;
  table.AddRule(MakeRule("scott", RuleAction::kMultiLevelExpand, "assy"));
  table.AddRule(MakeRule("*", RuleAction::kAccess, "link"));
  table.AddRule(MakeRule("jones", RuleAction::kMultiLevelExpand, "assy"));

  // User match incl. wildcard.
  EXPECT_EQ(
      table.FetchRelevant("scott", RuleAction::kMultiLevelExpand).size(),
      2u);  // scott's rule + wildcard access rule
  EXPECT_EQ(table.FetchRelevant("jones", RuleAction::kMultiLevelExpand).size(),
            2u);
  EXPECT_EQ(table.FetchRelevant("eve", RuleAction::kMultiLevelExpand).size(),
            1u);  // only the wildcard access rule

  // Access rules apply to any action; specific rules only to theirs.
  EXPECT_EQ(table.FetchRelevant("scott", RuleAction::kCheckOut).size(), 1u);

  // Type filter.
  EXPECT_EQ(table
                .FetchRelevant("scott", RuleAction::kMultiLevelExpand,
                               std::nullopt, "assy")
                .size(),
            1u);
  // Class filter.
  EXPECT_EQ(table
                .FetchRelevant("scott", RuleAction::kMultiLevelExpand,
                               ConditionClass::kForAllRows)
                .size(),
            0u);
}

TEST(RuleTable, WildcardTypeMatchesSpecificQueries) {
  RuleTable table;
  table.AddRule(MakeRule("*", RuleAction::kAccess, "*"));
  EXPECT_EQ(table
                .FetchRelevant("anyone", RuleAction::kQuery, std::nullopt,
                               "comp")
                .size(),
            1u);
}

}  // namespace
}  // namespace pdm::rules
