#include "rules/query_modificator.h"

#include "common/string_util.h"
#include "pdm/pdm_schema.h"
#include "rules/query_builder.h"

namespace pdm::rules {

using sql::ExprPtr;

Result<std::vector<RowConditionGroup>> BuildRowConditionGroups(
    const RuleTable& rules, const pdmsys::UserContext& user,
    RuleAction action, bool qualify) {
  std::vector<std::string> tables = pdmsys::ObjectTables();
  tables.push_back(pdmsys::kLinkTable);
  std::vector<RowConditionGroup> groups;
  for (std::string& table : tables) {
    std::vector<const Rule*> relevant =
        rules.FetchRelevant(user.name, action, ConditionClass::kRow, table);
    if (table == pdmsys::kLinkTable) {
      std::erase_if(relevant,
                    [](const Rule* r) { return r->object_type == "*"; });
    }
    if (relevant.empty()) continue;
    std::vector<ExprPtr> translated;
    translated.reserve(relevant.size());
    for (const Rule* rule : relevant) {
      const auto& cond = static_cast<const RowCondition&>(*rule->condition);
      PDM_ASSIGN_OR_RETURN(ExprPtr pred,
                           cond.Instantiate(user, qualify ? table : ""));
      translated.push_back(std::move(pred));
    }
    groups.push_back(RowConditionGroup{
        std::move(table), sql::MakeDisjunction(std::move(translated)),
        relevant.size()});
  }
  return groups;
}

Status QueryModificator::RejectHiddenViews(
    const sql::QueryExpr& query) const {
  if (known_views_.empty()) return Status::OK();
  for (const sql::SelectCore& term : query.terms) {
    for (const std::string& view : known_views_) {
      if (term.ReferencesTable(view)) {
        return Status::NotImplemented(
            "the query references view '" + view +
            "': its structure is not visible to the query modificator, so "
            "rules cannot be evaluated early (paper Section 5.5); inline "
            "the view definition instead");
      }
    }
    // Derived tables may hide views one level down.
    for (const sql::FromItem& item : term.from) {
      if (item.ref.kind == sql::TableRef::Kind::kSubquery) {
        PDM_RETURN_NOT_OK(RejectHiddenViews(*item.ref.subquery));
      }
      for (const sql::JoinClause& join : item.joins) {
        if (join.ref.kind == sql::TableRef::Kind::kSubquery) {
          PDM_RETURN_NOT_OK(RejectHiddenViews(*join.ref.subquery));
        }
      }
    }
  }
  return Status::OK();
}

Status QueryModificator::InjectRowConditions(
    sql::QueryExpr* query, RuleAction action,
    ModificationSummary* summary) const {
  PDM_ASSIGN_OR_RETURN(std::vector<RowConditionGroup> groups,
                       BuildRowConditionGroups(*rules_, user_, action,
                                               /*qualify=*/true));
  for (const RowConditionGroup& group : groups) {
    // Step D.14: append to every SELECT referencing the type.
    bool used = false;
    for (sql::SelectCore& term : query->terms) {
      if (!term.ReferencesTable(group.table)) continue;
      term.AddWherePredicate(group.predicate->Clone());
      used = true;
    }
    if (used) summary->row_conditions += group.size;
  }
  return Status::OK();
}

Result<ModificationSummary> QueryModificator::ApplyToRecursiveQuery(
    sql::SelectStmt* stmt, RuleAction action) const {
  if (stmt->ctes.empty()) {
    return Status::InvalidArgument(
        "recursive query modification requires a WITH clause");
  }
  for (const sql::CommonTableExpr& cte : stmt->ctes) {
    PDM_RETURN_NOT_OK(RejectHiddenViews(*cte.query));
  }
  PDM_RETURN_NOT_OK(RejectHiddenViews(stmt->query));
  ModificationSummary summary;
  const std::string& rtbl = stmt->ctes[0].name;

  // --- Step A: ∀rows conditions -> outside the recursive part. -------------
  {
    std::vector<const Rule*> relevant = rules_->FetchRelevant(
        user_.name, action, ConditionClass::kForAllRows);
    std::vector<ExprPtr> translated;
    for (const Rule* rule : relevant) {
      const auto& cond =
          static_cast<const ForAllRowsCondition&>(*rule->condition);
      PDM_ASSIGN_OR_RETURN(ExprPtr pred,
                           cond.TranslateForRecursiveTable(user_, rtbl));
      translated.push_back(std::move(pred));
    }
    if (!translated.empty()) {
      summary.forall_rows = translated.size();
      ExprPtr group = sql::MakeDisjunction(std::move(translated));
      for (sql::SelectCore& term : stmt->query.terms) {
        term.AddWherePredicate(group->Clone());
      }
    }
  }

  // --- Step B: tree-aggregate conditions -> outside. ------------------------
  {
    std::vector<const Rule*> relevant = rules_->FetchRelevant(
        user_.name, action, ConditionClass::kTreeAggregate);
    std::vector<ExprPtr> translated;
    for (const Rule* rule : relevant) {
      const auto& cond =
          static_cast<const TreeAggregateCondition&>(*rule->condition);
      PDM_ASSIGN_OR_RETURN(ExprPtr pred,
                           cond.TranslateForRecursiveTable(rtbl));
      translated.push_back(std::move(pred));
    }
    if (!translated.empty()) {
      summary.tree_aggregates = translated.size();
      ExprPtr group = sql::MakeDisjunction(std::move(translated));
      for (sql::SelectCore& term : stmt->query.terms) {
        term.AddWherePredicate(group->Clone());
      }
    }
  }

  // --- Step C: ∃structure conditions -> inside, grouped by type O. ----------
  for (const std::string& table : pdmsys::ObjectTables()) {
    std::vector<const Rule*> relevant = rules_->FetchRelevant(
        user_.name, action, ConditionClass::kExistsStructure, table);
    if (relevant.empty()) continue;
    std::vector<ExprPtr> translated;
    for (const Rule* rule : relevant) {
      const auto& cond =
          static_cast<const ExistsStructureCondition&>(*rule->condition);
      PDM_ASSIGN_OR_RETURN(ExprPtr pred, cond.Instantiate(user_, table));
      translated.push_back(std::move(pred));
    }
    size_t group_size = translated.size();
    ExprPtr group = sql::MakeDisjunction(std::move(translated));
    bool used = false;
    for (sql::SelectCore& term : stmt->ctes[0].query->terms) {
      if (!term.ReferencesTable(table)) continue;
      term.AddWherePredicate(group->Clone());
      used = true;
    }
    if (used) summary.exists_structure += group_size;
  }

  // --- Step D: row conditions -> inside and outside. -------------------------
  PDM_RETURN_NOT_OK(
      InjectRowConditions(stmt->ctes[0].query.get(), action, &summary));
  PDM_RETURN_NOT_OK(InjectRowConditions(&stmt->query, action, &summary));
  return summary;
}

Result<std::unique_ptr<sql::SelectStmt>> QueryModificator::BuildTreeQuery(
    int64_t root_obid, int max_depth, const std::string& hierarchy,
    RuleAction action) const {
  std::unique_ptr<sql::SelectStmt> stmt =
      BuildRecursiveTreeQuery(root_obid, max_depth, hierarchy);
  PDM_RETURN_NOT_OK(ApplyToRecursiveQuery(stmt.get(), action).status());
  return stmt;
}

Result<ModificationSummary> QueryModificator::ApplyToNavigationalQuery(
    sql::QueryExpr* query, RuleAction action) const {
  PDM_RETURN_NOT_OK(RejectHiddenViews(*query));
  ModificationSummary summary;
  PDM_RETURN_NOT_OK(InjectRowConditions(query, action, &summary));
  return summary;
}

}  // namespace pdm::rules
