#include "rules/procedures.h"

#include <vector>

#include "pdm/pdm_schema.h"
#include "pdm/product_tree.h"
#include "pdm/user_context.h"
#include "rules/query_builder.h"
#include "rules/query_modificator.h"

namespace pdm::rules {

namespace {

Status ExpectArgs(const std::vector<Value>& args) {
  if (args.size() < 5 || args.size() > 6 || !args[0].is_int64() ||
      !args[1].is_string() || !args[2].is_int64() || !args[3].is_int64() ||
      !args[4].is_int64() || (args.size() == 6 && !args[5].is_string())) {
    return Status::InvalidArgument(
        "expected (root INTEGER, user VARCHAR, strc_opt INTEGER, "
        "eff_from INTEGER, eff_to INTEGER[, hierarchy VARCHAR])");
  }
  return Status::OK();
}

/// Shared body of check-out / check-in: resolve the visible subtree
/// server-side, flip the checkedout flags, return the object count.
Status RunCheckFlow(Database& db, const RuleTable* rule_table,
                    const std::vector<Value>& args, bool checking_out,
                    ResultSet* out) {
  PDM_RETURN_NOT_OK(ExpectArgs(args));
  int64_t root = args[0].int64_value();
  pdmsys::UserContext user;
  user.name = args[1].string_value();
  user.strc_opt = args[2].int64_value();
  user.eff_from = args[3].int64_value();
  user.eff_to = args[4].int64_value();
  const std::string hierarchy =
      args.size() == 6 ? args[5].string_value() : pdmsys::kPhysicalHierarchy;

  PDM_ASSIGN_OR_RETURN(
      std::unique_ptr<sql::SelectStmt> stmt,
      QueryModificator(rule_table, user)
          .BuildTreeQuery(root, /*max_depth=*/0, hierarchy,
                          checking_out ? RuleAction::kCheckOut
                                       : RuleAction::kCheckIn));
  ResultSet rows;
  PDM_RETURN_NOT_OK(db.ExecuteStatement(*stmt, &rows));
  PDM_ASSIGN_OR_RETURN(pdmsys::ProductTree tree,
                       pdmsys::AssembleFromHomogenized(rows, root));

  size_t flipped = 0;
  for (const std::unique_ptr<sql::Statement>& update :
       BuildCheckOutUpdates(tree, checking_out)) {
    ResultSet ack;
    PDM_RETURN_NOT_OK(db.ExecuteStatement(*update, &ack));
    flipped += ack.affected_rows;
  }

  out->schema = Schema({Column{
      checking_out ? "checked_out" : "checked_in", ColumnType::kInt64}});
  out->rows = {Row{Value::Int64(static_cast<int64_t>(flipped))}};
  return Status::OK();
}

}  // namespace

Status RegisterPdmProcedures(Database* db, const RuleTable* rule_table) {
  PDM_RETURN_NOT_OK(db->RegisterProcedure(
      "pdm_checkout",
      [rule_table](Database& inner, const std::vector<Value>& args,
                   ResultSet* out) {
        return RunCheckFlow(inner, rule_table, args, /*checking_out=*/true,
                            out);
      }));
  return db->RegisterProcedure(
      "pdm_checkin",
      [rule_table](Database& inner, const std::vector<Value>& args,
                   ResultSet* out) {
        return RunCheckFlow(inner, rule_table, args, /*checking_out=*/false,
                            out);
      });
}

}  // namespace pdm::rules
