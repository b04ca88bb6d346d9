#include "client/rule_eval.h"

#include <cassert>

#include "common/string_util.h"
#include "exec/aggregate_state.h"
#include "exec/expr_eval.h"
#include "pdm/pdm_schema.h"
#include "plan/binder.h"
#include "rules/query_modificator.h"

namespace pdm::client {

using rules::ConditionClass;
using rules::Rule;
using rules::RuleAction;

ClientRuleEvaluator::ClientRuleEvaluator(const rules::RuleTable* rule_table,
                                         pdmsys::UserContext user)
    : rule_table_(rule_table),
      user_(std::move(user)),
      functions_(std::make_unique<FunctionRegistry>()),
      scratch_catalog_(std::make_unique<Catalog>()) {
  Status status = functions_->RegisterBuiltins();
  assert(status.ok());
  (void)status;
}

ClientRuleEvaluator::~ClientRuleEvaluator() = default;

namespace {

/// Binds `predicate` against the result-row schema (as the single table
/// "r" in scope).
Result<BoundExprPtr> BindAgainstSchema(const sql::Expr& predicate,
                                       const Schema& schema,
                                       const Catalog* catalog,
                                       const FunctionRegistry* functions) {
  Binder binder(catalog, functions);
  Scope scope;
  scope.AddTable("r", schema);
  return binder.BindExprInScope(predicate, &scope);
}

}  // namespace

Result<std::unique_ptr<PreparedRowFilter>> ClientRuleEvaluator::Prepare(
    const Schema& schema, RuleAction action) const {
  std::optional<size_t> type_col = schema.FindColumn("type");
  if (!type_col.has_value()) {
    return Status::InvalidArgument(
        "result schema lacks the 'type' discriminator column");
  }
  auto filter = std::unique_ptr<PreparedRowFilter>(
      new PreparedRowFilter(this, *type_col));

  // Unqualified: attribute names resolve against the result schema.
  PDM_ASSIGN_OR_RETURN(std::vector<rules::RowConditionGroup> groups,
                       rules::BuildRowConditionGroups(*rule_table_, user_,
                                                      action,
                                                      /*qualify=*/false));
  for (const rules::RowConditionGroup& group : groups) {
    Result<BoundExprPtr> bound = BindAgainstSchema(
        *group.predicate, schema, scratch_catalog_.get(), functions_.get());
    if (!bound.ok()) {
      if (bound.status().code() == StatusCode::kBindError) {
        // The schema lacks the attributes this group tests (e.g. link
        // conditions on a structure-less result): group does not apply.
        continue;
      }
      return bound.status();
    }
    if (group.table == pdmsys::kLinkTable) {
      filter->link_group_ = std::move(bound).value();
    } else {
      filter->type_groups_[group.table] = std::move(bound).value();
    }
  }
  return filter;
}

Result<bool> PreparedRowFilter::Passes(const Row& row) const {
  ExecStats stats;
  ExecContext ctx(owner_->scratch_catalog_.get(), &owner_->exec_options_,
                  &stats);
  const std::string type = row[type_column_].ToString();
  auto it = type_groups_.find(type);
  if (it != type_groups_.end() && it->second != nullptr) {
    PDM_ASSIGN_OR_RETURN(bool pass, EvaluatePredicate(*it->second, row, &ctx));
    if (!pass) return false;
  }
  if (link_group_ != nullptr) {
    PDM_ASSIGN_OR_RETURN(bool pass,
                         EvaluatePredicate(*link_group_, row, &ctx));
    if (!pass) return false;
  }
  return true;
}

bool ClientRuleEvaluator::HasTreeConditions(RuleAction action) const {
  for (ConditionClass cls :
       {ConditionClass::kForAllRows, ConditionClass::kTreeAggregate}) {
    if (!rule_table_->FetchRelevant(user_.name, action, cls).empty()) {
      return true;
    }
  }
  return false;
}

Result<bool> ClientRuleEvaluator::TreeConditionsPass(
    const ResultSet& nodes, RuleAction action) const {
  ExecStats stats;
  ExecContext ctx(scratch_catalog_.get(), &exec_options_, &stats);
  std::optional<size_t> type_col = nodes.schema.FindColumn("type");
  if (!type_col.has_value()) {
    return Status::InvalidArgument("node rows lack the 'type' column");
  }

  // ∀rows: every (type-matching) node must satisfy the row predicate.
  for (const Rule* rule : rule_table_->FetchRelevant(
           user_.name, action, ConditionClass::kForAllRows)) {
    const auto& cond =
        static_cast<const rules::ForAllRowsCondition&>(*rule->condition);
    PDM_ASSIGN_OR_RETURN(sql::ExprPtr pred,
                         cond.InstantiateRowPredicate(user_, ""));
    PDM_ASSIGN_OR_RETURN(
        BoundExprPtr bound,
        BindAgainstSchema(*pred, nodes.schema, scratch_catalog_.get(),
                          functions_.get()));
    const std::string& filter = cond.node_type_filter();
    bool all_filter = filter.empty() || filter == "*";
    for (const Row& row : nodes.rows) {
      if (!all_filter && row[*type_col].ToString() != filter) continue;
      PDM_ASSIGN_OR_RETURN(bool pass, EvaluatePredicate(*bound, row, &ctx));
      if (!pass) return false;  // all-or-nothing
    }
  }

  // Tree aggregates over the fetched node set.
  for (const Rule* rule : rule_table_->FetchRelevant(
           user_.name, action, ConditionClass::kTreeAggregate)) {
    const auto& cond =
        static_cast<const rules::TreeAggregateCondition&>(*rule->condition);
    const std::string& filter = cond.node_type_filter();
    bool all_filter = filter.empty() || filter == "*";
    std::optional<size_t> attr_col;
    if (!cond.attribute().empty()) {
      attr_col = nodes.schema.FindColumn(cond.attribute());
      if (!attr_col.has_value()) {
        return Status::InvalidArgument("tree-aggregate attribute '" +
                                       cond.attribute() + "' not in result");
      }
    }

    // Fold and compare exactly as the server does for the recursive
    // strategy's `(SELECT AGG(attr) FROM rtbl ...) <cmp> threshold`.
    // Without an attribute the loop counts rows (COUNT(*)); with one,
    // COUNT skips NULLs like the server's COUNT(attr).
    BoundAggregate agg;
    agg.agg_kind =
        cond.agg() == AggKind::kCountStar ? AggKind::kCount : cond.agg();
    if (!attr_col.has_value() && agg.agg_kind != AggKind::kCount) {
      return Status::InvalidArgument(
          "tree-aggregate without attribute requires COUNT");
    }
    AggState state;
    for (const Row& row : nodes.rows) {
      if (!all_filter && row[*type_col].ToString() != filter) continue;
      if (attr_col.has_value()) {
        PDM_RETURN_NOT_OK(AccumulateAggValue(agg, row[*attr_col], &state));
      } else {
        ++state.count;
      }
    }
    PDM_ASSIGN_OR_RETURN(Value aggregate, FinalizeAgg(agg, state));
    PDM_ASSIGN_OR_RETURN(Value verdict, SqlCompareValues(cond.cmp(), aggregate,
                                                         cond.threshold()));
    // A NULL aggregate (no counted rows) fails, as the server's WHERE does.
    if (verdict.is_null() || !verdict.bool_value()) return false;
  }
  return true;
}

}  // namespace pdm::client
