#include "client/checkout.h"

#include "common/string_util.h"
#include "obs/metrics.h"
#include "rules/query_builder.h"

namespace pdm::client {

using rules::RuleAction;

std::string_view CheckOutMethodName(CheckOutMethod method) {
  switch (method) {
    case CheckOutMethod::kNavigational:
      return "navigational";
    case CheckOutMethod::kRecursiveBatched:
      return "recursive-batched";
    case CheckOutMethod::kStoredProcedure:
      return "stored-procedure";
  }
  return "?";
}

Result<std::vector<ResultSet>> ExecuteRetryingConflicts(
    Connection* conn, const std::vector<std::string>& statements,
    Shipping shipping, size_t* retries) {
  static obs::Counter& retry_counter =
      obs::MetricsRegistry::Global().counter("mvcc.conflict_retries");
  auto ship = [&](const std::vector<std::string>& group,
                  std::vector<Result<ResultSet>>* acks) -> Status {
    if (shipping == Shipping::kOneBatch) {
      return conn->ExecuteBatch(group, acks);
    }
    acks->clear();
    for (const std::string& sql : group) {
      ResultSet ack;
      Status status = conn->Execute(sql, &ack);
      if (status.ok()) {
        acks->push_back(std::move(ack));
      } else if (IsRetryableConflict(status.code())) {
        acks->push_back(std::move(status));
      } else {
        return status;
      }
    }
    return Status::OK();
  };
  std::vector<Result<ResultSet>> acks;
  PDM_RETURN_NOT_OK(ship(statements, &acks));
  for (int round = 0; round < kMaxConflictRetries; ++round) {
    std::vector<size_t> conflicted;
    for (size_t i = 0; i < acks.size(); ++i) {
      if (IsRetryableConflict(acks[i].status().code())) conflicted.push_back(i);
    }
    if (conflicted.empty()) break;
    *retries += conflicted.size();
    retry_counter.Add(conflicted.size());
    std::vector<std::string> retry_sql;
    retry_sql.reserve(conflicted.size());
    for (size_t i : conflicted) retry_sql.push_back(statements[i]);
    std::vector<Result<ResultSet>> retry_acks;
    PDM_RETURN_NOT_OK(ship(retry_sql, &retry_acks));
    for (size_t j = 0; j < conflicted.size(); ++j) {
      acks[conflicted[j]] = std::move(retry_acks[j]);
    }
  }
  std::vector<ResultSet> out;
  out.reserve(acks.size());
  for (Result<ResultSet>& ack : acks) {
    PDM_RETURN_NOT_OK(ack.status());
    out.push_back(std::move(*ack));
  }
  return out;
}

Result<CheckOutResult> CheckOutClient::Run(int64_t root,
                                           CheckOutMethod method,
                                           bool checking_out) {
  conn_->ResetStats();
  CheckOutResult out;
  if (method == CheckOutMethod::kStoredProcedure) {
    // Function shipping: retrieval and flag update run at the server,
    // behind one CALL.
    std::string call = StrFormat(
        "CALL %s(%lld, '%s', %lld, %lld, %lld, '%s')",
        checking_out ? "pdm_checkout" : "pdm_checkin",
        static_cast<long long>(root), user_.name.c_str(),
        static_cast<long long>(user_.strc_opt),
        static_cast<long long>(user_.eff_from),
        static_cast<long long>(user_.eff_to), config_.hierarchy.c_str());
    ResultSet result;
    PDM_RETURN_NOT_OK(conn_->Execute(call, &result));
    if (result.num_rows() == 1 && result.At(0, 0).is_int64()) {
      out.objects = static_cast<size_t>(result.At(0, 0).int64_value());
    }
    out.success = out.objects > 0;
  } else {
    PDM_RETURN_NOT_OK(RunClientSide(
        root, method == CheckOutMethod::kNavigational, checking_out, &out));
  }
  // Single accounting exit: every outcome (denied included) reports the
  // traffic of exactly this run — no mid-function snapshot that later
  // phases could silently outgrow.
  out.wan = conn_->stats();
  return out;
}

Status CheckOutClient::RunClientSide(int64_t root, bool navigational,
                                     bool checking_out,
                                     CheckOutResult* out) {
  // Phase 1: retrieve the visible subtree under the check-out rules,
  // with the expand strategies' own retrieval. Navigational: one early-
  // evaluation expand per node, tree conditions (the ∀rows check-out
  // rule) verified at the client. Batched: the one recursive statement
  // with every rule class evaluated at the server. Either way an empty
  // tree means the action is denied (all-or-nothing).
  const RuleAction action =
      checking_out ? RuleAction::kCheckOut : RuleAction::kCheckIn;
  Result<ActionResult> retrieved =
      navigational
          ? NavigationalStrategy(conn_, rules_, user_, config_,
                                 /*early_evaluation=*/true)
                .ExpandTree(root, action)
          : RecursiveStrategy(conn_, rules_, user_, config_)
                .ExpandTree(root, action);
  PDM_RETURN_NOT_OK(retrieved.status());
  if (retrieved->tree.num_nodes() == 0) return Status::OK();

  // Phase 2: flip the flags — the "separate WAN communication" the
  // paper points out. Navigational: one UPDATE per object, one round
  // trip each (the status quo baseline). Batched: one UPDATE per object
  // table, all tables shipped as ONE batch — with the retrieval, the
  // whole check-out is two round trips instead of 1 + #tables.
  std::vector<std::string> updates;
  for (const std::unique_ptr<sql::Statement>& update :
       rules::BuildCheckOutUpdates(retrieved->tree, checking_out,
                                   /*per_object=*/navigational)) {
    updates.push_back(update->ToSql());
  }
  PDM_ASSIGN_OR_RETURN(
      std::vector<ResultSet> acks,
      ExecuteRetryingConflicts(
          conn_, updates,
          navigational ? Shipping::kRoundTripEach : Shipping::kOneBatch,
          &out->conflict_retries));
  for (const ResultSet& ack : acks) out->objects += ack.affected_rows;
  out->success = true;
  return Status::OK();
}

}  // namespace pdm::client
