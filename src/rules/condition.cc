#include "rules/condition.h"

#include "common/string_util.h"
#include "sql/parser.h"

namespace pdm::rules {

using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;

std::string_view ConditionClassName(ConditionClass cls) {
  switch (cls) {
    case ConditionClass::kRow:
      return "row";
    case ConditionClass::kForAllRows:
      return "forall-rows";
    case ConditionClass::kExistsStructure:
      return "exists-structure";
    case ConditionClass::kTreeAggregate:
      return "tree-aggregate";
  }
  return "?";
}

namespace {

Result<Value> UserVariable(const pdmsys::UserContext& user,
                           const std::string& column) {
  std::string key = ToLowerAscii(column);
  if (key == "strc_opt") return Value::Int64(user.strc_opt);
  if (key == "eff_from") return Value::Int64(user.eff_from);
  if (key == "eff_to") return Value::Int64(user.eff_to);
  if (key == "name") return Value::String(user.name);
  return Status::InvalidArgument("unknown user variable '$user." + column +
                                 "'");
}

bool IsWildcardType(const std::string& type) {
  return type.empty() || type == "*";
}

Status InstantiateSubquery(sql::QueryExpr& query,
                           const pdmsys::UserContext& user);

/// Instantiates the expression in `slot` in place: a `$user.x` ref is
/// replaced in its parent slot by the literal, and outside subqueries an
/// unqualified ref gains `qualifier`. Inside a subquery (`in_subquery`)
/// unqualified refs belong to the subquery's own FROM tables and `$user`
/// is rejected.
Status InstantiateSlot(ExprPtr& slot, const pdmsys::UserContext& user,
                       const std::string& qualifier, bool in_subquery) {
  if (slot->kind == ExprKind::kColumnRef) {
    auto& ref = static_cast<sql::ColumnRefExpr&>(*slot);
    if (EqualsIgnoreCase(ref.table, "$user")) {
      if (in_subquery) {
        return Status::NotImplemented(
            "$user references inside nested subqueries of rule "
            "predicates are not supported; hoist them to the outer "
            "predicate");
      }
      PDM_ASSIGN_OR_RETURN(Value v, UserVariable(user, ref.column));
      slot = sql::MakeLiteral(std::move(v));
    } else if (!in_subquery && ref.table.empty()) {
      ref.table = qualifier;
    }
    return Status::OK();
  }
  Status status;
  sql::ForEachChild(
      *slot,
      [&](ExprPtr& child) {
        if (status.ok()) {
          status = InstantiateSlot(child, user, qualifier, in_subquery);
        }
      },
      [&](sql::QueryExpr& query) {
        if (status.ok()) status = InstantiateSubquery(query, user);
      });
  return status;
}

/// InstantiateSlot over every expression of a subquery, derived tables
/// included.
Status InstantiateSubquery(sql::QueryExpr& query,
                           const pdmsys::UserContext& user) {
  Status status;
  sql::ForEachChild(
      query,
      [&](ExprPtr& expr) {
        if (status.ok()) {
          status = InstantiateSlot(expr, user, "", /*in_subquery=*/true);
        }
      },
      [&](sql::QueryExpr& derived) {
        if (status.ok()) status = InstantiateSubquery(derived, user);
      });
  return status;
}

}  // namespace

Result<ExprPtr> InstantiatePredicate(const Expr& predicate,
                                     const pdmsys::UserContext& user,
                                     const std::string& qualifier) {
  ExprPtr out = predicate.Clone();
  PDM_RETURN_NOT_OK(
      InstantiateSlot(out, user, qualifier, /*in_subquery=*/false));
  return out;
}

// --- RowCondition ---------------------------------------------------------------

Result<std::unique_ptr<RowCondition>> RowCondition::Parse(
    std::string target_type, std::string_view predicate_sql) {
  PDM_ASSIGN_OR_RETURN(ExprPtr predicate,
                       sql::ParseSqlExpression(predicate_sql));
  return std::make_unique<RowCondition>(std::move(target_type),
                                        std::move(predicate));
}

ConditionPtr RowCondition::Clone() const {
  return std::make_unique<RowCondition>(target_type_, predicate_->Clone());
}

std::string RowCondition::Describe() const {
  return "row[" + target_type_ + "]: " + predicate_->ToSql();
}

// --- ExistsStructureCondition ------------------------------------------------------

ConditionPtr ExistsStructureCondition::Clone() const {
  return std::make_unique<ExistsStructureCondition>(
      target_type_, rel_table_, other_table_,
      other_predicate_ ? other_predicate_->Clone() : nullptr);
}

std::string ExistsStructureCondition::Describe() const {
  return "exists-structure[" + target_type_ + "]: via " + rel_table_ +
         " to " + other_table_;
}

Result<ExprPtr> ExistsStructureCondition::Instantiate(
    const pdmsys::UserContext& user, const std::string& qualifier) const {
  // EXISTS (SELECT * FROM rel JOIN other ON rel.right = other.obid
  //         WHERE rel.left = <qualifier>.obid [AND other_pred])
  auto subquery = std::make_unique<sql::QueryExpr>();
  sql::SelectCore core;
  sql::SelectItem star;
  star.is_star = true;
  core.items.push_back(std::move(star));

  sql::FromItem from;
  from.ref.kind = sql::TableRef::Kind::kBaseTable;
  from.ref.table_name = rel_table_;
  sql::JoinClause join;
  join.ref.kind = sql::TableRef::Kind::kBaseTable;
  join.ref.table_name = other_table_;
  join.on = sql::MakeBinary(sql::BinaryOp::kEq,
                            sql::MakeColumnRef(rel_table_, "right"),
                            sql::MakeColumnRef(other_table_, "obid"));
  from.joins.push_back(std::move(join));
  core.from.push_back(std::move(from));

  core.where = sql::MakeBinary(
      sql::BinaryOp::kEq, sql::MakeColumnRef(rel_table_, "left"),
      sql::MakeColumnRef(qualifier, "obid"));
  if (other_predicate_ != nullptr) {
    PDM_ASSIGN_OR_RETURN(ExprPtr extra, InstantiatePredicate(
                                            *other_predicate_, user,
                                            other_table_));
    core.AddWherePredicate(std::move(extra));
  }
  subquery->terms.push_back(std::move(core));
  return ExprPtr(std::make_unique<sql::ExistsExpr>(std::move(subquery),
                                                   /*neg=*/false));
}

// --- ForAllRowsCondition -----------------------------------------------------------

ConditionPtr ForAllRowsCondition::Clone() const {
  if (structure_predicate_ != nullptr) {
    auto structure = std::unique_ptr<ExistsStructureCondition>(
        static_cast<ExistsStructureCondition*>(
            structure_predicate_->Clone().release()));
    return std::make_unique<ForAllRowsCondition>(node_type_filter_,
                                                 std::move(structure));
  }
  return std::make_unique<ForAllRowsCondition>(node_type_filter_,
                                               row_predicate_->Clone());
}

std::string ForAllRowsCondition::Describe() const {
  std::string inner = structure_predicate_ != nullptr
                          ? structure_predicate_->Describe()
                          : row_predicate_->ToSql();
  return "forall-rows[" + node_type_filter_ + "]: " + inner;
}

Result<ExprPtr> ForAllRowsCondition::InstantiateRowPredicate(
    const pdmsys::UserContext& user, const std::string& qualifier) const {
  if (structure_predicate_ != nullptr) {
    return structure_predicate_->Instantiate(user, qualifier);
  }
  return InstantiatePredicate(*row_predicate_, user, qualifier);
}

Result<ExprPtr> ForAllRowsCondition::TranslateForRecursiveTable(
    const pdmsys::UserContext& user, const std::string& rtbl_name) const {
  // NOT EXISTS (SELECT * FROM rtbl WHERE [type = 'f' AND] NOT (row_cond))
  PDM_ASSIGN_OR_RETURN(ExprPtr row_cond,
                       InstantiateRowPredicate(user, rtbl_name));

  auto subquery = std::make_unique<sql::QueryExpr>();
  sql::SelectCore core;
  sql::SelectItem star;
  star.is_star = true;
  core.items.push_back(std::move(star));
  sql::FromItem from;
  from.ref.kind = sql::TableRef::Kind::kBaseTable;
  from.ref.table_name = rtbl_name;
  core.from.push_back(std::move(from));

  ExprPtr violation = sql::MakeNot(std::move(row_cond));
  if (!IsWildcardType(node_type_filter_)) {
    ExprPtr type_eq = sql::MakeBinary(
        sql::BinaryOp::kEq, sql::MakeColumnRef(rtbl_name, "type"),
        sql::MakeLiteral(Value::String(node_type_filter_)));
    violation = sql::MakeBinary(sql::BinaryOp::kAnd, std::move(type_eq),
                                std::move(violation));
  }
  core.where = std::move(violation);
  subquery->terms.push_back(std::move(core));
  return ExprPtr(
      std::make_unique<sql::ExistsExpr>(std::move(subquery), /*neg=*/true));
}

// --- TreeAggregateCondition ----------------------------------------------------------

ConditionPtr TreeAggregateCondition::Clone() const {
  return std::make_unique<TreeAggregateCondition>(
      agg_, attribute_, node_type_filter_, cmp_, threshold_);
}

std::string TreeAggregateCondition::Describe() const {
  std::string call = attribute_.empty()
                         ? "COUNT(*)"
                         : std::string(AggKindName(agg_)) + "(" + attribute_ +
                               ")";
  return StrFormat("tree-aggregate[%s]: %s %s %s", node_type_filter_.c_str(),
                   call.c_str(),
                   std::string(sql::BinaryOpSymbol(cmp_)).c_str(),
                   threshold_.ToSqlLiteral().c_str());
}

Result<ExprPtr> TreeAggregateCondition::TranslateForRecursiveTable(
    const std::string& rtbl_name) const {
  auto subquery = std::make_unique<sql::QueryExpr>();
  sql::SelectCore core;

  std::string fn_name;
  std::vector<ExprPtr> args;
  switch (agg_) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      fn_name = "COUNT";
      break;
    case AggKind::kSum:
      fn_name = "SUM";
      break;
    case AggKind::kAvg:
      fn_name = "AVG";
      break;
    case AggKind::kMin:
      fn_name = "MIN";
      break;
    case AggKind::kMax:
      fn_name = "MAX";
      break;
  }
  if (attribute_.empty()) {
    if (agg_ != AggKind::kCountStar && agg_ != AggKind::kCount) {
      return Status::InvalidArgument(
          "tree-aggregate without attribute requires COUNT");
    }
    args.push_back(std::make_unique<sql::StarExpr>());
  } else {
    args.push_back(sql::MakeColumnRef(rtbl_name, attribute_));
  }
  sql::SelectItem item;
  item.expr = std::make_unique<sql::FunctionCallExpr>(fn_name,
                                                      std::move(args));
  core.items.push_back(std::move(item));

  sql::FromItem from;
  from.ref.kind = sql::TableRef::Kind::kBaseTable;
  from.ref.table_name = rtbl_name;
  core.from.push_back(std::move(from));

  if (!IsWildcardType(node_type_filter_)) {
    core.where = sql::MakeBinary(
        sql::BinaryOp::kEq, sql::MakeColumnRef(rtbl_name, "type"),
        sql::MakeLiteral(Value::String(node_type_filter_)));
  }
  subquery->terms.push_back(std::move(core));

  ExprPtr scalar =
      std::make_unique<sql::ScalarSubqueryExpr>(std::move(subquery));
  return sql::MakeBinary(cmp_, std::move(scalar),
                         sql::MakeLiteral(threshold_));
}

}  // namespace pdm::rules
