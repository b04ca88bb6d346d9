#ifndef PDM_CLIENT_RULE_EVAL_H_
#define PDM_CLIENT_RULE_EVAL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "exec/exec_context.h"
#include "exec/result_set.h"
#include "pdm/user_context.h"
#include "plan/bound_expr.h"
#include "plan/functions.h"
#include "rules/rule.h"

namespace pdm::client {

class PreparedRowFilter;

/// Client-side ("late") rule evaluation — the baseline the paper
/// measures against: objects cross the WAN first, then the client
/// decides visibility. Row conditions are checked per fetched row; the
/// tree conditions (∀rows / tree-aggregate) are checked once the whole
/// tree has been fetched. (∃structure conditions would require further
/// server data and are exercised through the early/recursive paths; see
/// EXPERIMENTS.md.)
class ClientRuleEvaluator {
 public:
  ClientRuleEvaluator(const rules::RuleTable* rule_table,
                      pdmsys::UserContext user);
  ~ClientRuleEvaluator();

  ClientRuleEvaluator(const ClientRuleEvaluator&) = delete;
  ClientRuleEvaluator& operator=(const ClientRuleEvaluator&) = delete;

  /// Binds this action's row conditions against a result-row schema.
  /// Per-type groups (assy/comp/link) are OR-combined internally and
  /// AND-combined across types; groups whose predicates do not bind
  /// against the schema (e.g. link conditions on a result without link
  /// attributes) do not apply.
  Result<std::unique_ptr<PreparedRowFilter>> Prepare(
      const Schema& schema, rules::RuleAction action) const;

  /// True when `action` has a ∀rows or tree-aggregate condition for
  /// this user: the checks TreeConditionsPass runs.
  bool HasTreeConditions(rules::RuleAction action) const;

  /// Whole-tree checks on the set of fetched node rows (homogenized
  /// schema): all ∀rows conditions hold and all tree-aggregate
  /// conditions hold. Rows must all be object rows.
  Result<bool> TreeConditionsPass(const ResultSet& nodes,
                                  rules::RuleAction action) const;

  const pdmsys::UserContext& user() const { return user_; }
  const rules::RuleTable& rule_table() const { return *rule_table_; }

 private:
  friend class PreparedRowFilter;

  const rules::RuleTable* rule_table_;
  pdmsys::UserContext user_;
  std::unique_ptr<FunctionRegistry> functions_;
  std::unique_ptr<Catalog> scratch_catalog_;  // empty; anchors ExecContext
  ExecOptions exec_options_;
};

/// Bound row-condition filter for one result schema. Rows are tested
/// with full SQL semantics (three-valued logic: non-TRUE rejects).
class PreparedRowFilter {
 public:
  /// True if the row (whose object type is read from the schema's
  /// `type` column) passes all applicable groups.
  Result<bool> Passes(const Row& row) const;

 private:
  friend class ClientRuleEvaluator;
  PreparedRowFilter(const ClientRuleEvaluator* owner, size_t type_column)
      : owner_(owner), type_column_(type_column) {}

  const ClientRuleEvaluator* owner_;
  size_t type_column_;
  /// Per object type: OR-combined bound predicate (may be null = none).
  std::map<std::string, BoundExprPtr> type_groups_;
  BoundExprPtr link_group_;  // applies to every row; may be null
};

}  // namespace pdm::client

#endif  // PDM_CLIENT_RULE_EVAL_H_
