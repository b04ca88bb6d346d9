#ifndef PDM_RULES_QUERY_MODIFICATOR_H_
#define PDM_RULES_QUERY_MODIFICATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "pdm/user_context.h"
#include "rules/rule.h"
#include "sql/ast.h"

namespace pdm::rules {

/// How many predicates a modification pass injected, by rule class
/// (asserted on by tests; printed by the rule-admin example).
struct ModificationSummary {
  size_t forall_rows = 0;
  size_t tree_aggregates = 0;
  size_t exists_structure = 0;
  size_t row_conditions = 0;

  size_t total() const {
    return forall_rows + tree_aggregates + exists_structure + row_conditions;
  }
};

/// One table's row-condition group (Section 5.5, step D.13): the
/// disjunction of the row conditions of the rules relevant to the user,
/// the action and the table, and how many rules it ORs.
struct RowConditionGroup {
  std::string table;
  sql::ExprPtr predicate;
  size_t size = 0;
};

/// The row-condition groups of `action` for `user`: the object tables'
/// then the link table's, skipping tables without relevant rules. A "*"
/// object type covers the object tables only; the link table takes only
/// rules that name it. With `qualify`, attribute references are
/// qualified by the table name, for a WHERE clause over the table;
/// without, they resolve against a result-row schema. The one builder
/// behind early (QueryModificator) and late (client::ClientRuleEvaluator)
/// row-condition evaluation.
Result<std::vector<RowConditionGroup>> BuildRowConditionGroups(
    const RuleTable& rules, const pdmsys::UserContext& user,
    RuleAction action, bool qualify);

/// Implements the paper's Section 5.5 procedure: given the client's rule
/// table and the user's environment, rewrites generated queries so that
/// rules are evaluated early, at the server.
///
/// Steps A-D for recursive tree queries:
///   A. ∀rows conditions      -> WHERE of all SELECTs *outside* the
///                               recursive part (all-or-nothing),
///   B. tree-aggregate conds  -> likewise outside,
///   C. ∃structure conditions -> WHERE of the SELECTs *inside* the
///                               recursive part that join the target
///                               object type,
///   D. row conditions        -> WHERE of every SELECT (inside and
///                               outside) whose FROM references the
///                               condition's object type.
/// Within a step, conditions of the same group are OR-ed; groups are
/// AND-ed onto existing WHERE clauses.
class QueryModificator {
 public:
  QueryModificator(const RuleTable* rules, pdmsys::UserContext user)
      : rules_(rules), user_(std::move(user)) {}

  /// Names of database views. Section 5.5's closing remark: "if the
  /// recursive query (or a part of it) is hidden in a view ... the
  /// proposed modifications cannot be performed" — when any given view
  /// appears in a query's FROM clause, modification fails with
  /// NotImplemented instead of silently producing an under-constrained
  /// query.
  void SetKnownViews(std::vector<std::string> view_names) {
    known_views_ = std::move(view_names);
  }

  /// Applies steps A-D to a recursive tree query (first CTE = the
  /// recursive table). The statement must have been produced by
  /// BuildRecursiveTreeQuery or be shaped like the paper's Section 5.2
  /// query.
  Result<ModificationSummary> ApplyToRecursiveQuery(sql::SelectStmt* stmt,
                                                    RuleAction action) const;

  /// BuildRecursiveTreeQuery(root_obid, max_depth, hierarchy) with
  /// `action`'s rules applied: the one statement behind a recursive
  /// multi-level expand, a recursive-batched check-out and the
  /// pdm_checkout/pdm_checkin procedures.
  Result<std::unique_ptr<sql::SelectStmt>> BuildTreeQuery(
      int64_t root_obid, int max_depth, const std::string& hierarchy,
      RuleAction action) const;

  /// Applies early *row*-condition evaluation (Section 4.1) to a
  /// navigational query (expand / flat query): per-type predicates into
  /// the WHERE clause of each SELECT term referencing that type. Tree
  /// conditions cannot be evaluated navigationally (Section 4.1) and are
  /// ignored here.
  Result<ModificationSummary> ApplyToNavigationalQuery(sql::QueryExpr* query,
                                                       RuleAction action) const;

 private:
  /// Injects grouped row conditions into every term of `query`
  /// referencing the rules' object types.
  Status InjectRowConditions(sql::QueryExpr* query, RuleAction action,
                             ModificationSummary* summary) const;

  /// Fails if any FROM clause of `query` references a known view.
  Status RejectHiddenViews(const sql::QueryExpr& query) const;

  const RuleTable* rules_;
  pdmsys::UserContext user_;
  std::vector<std::string> known_views_;
};

}  // namespace pdm::rules

#endif  // PDM_RULES_QUERY_MODIFICATOR_H_
