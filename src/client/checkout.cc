#include "client/checkout.h"

#include <deque>
#include <map>

#include "client/rule_eval.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "rules/query_builder.h"
#include "rules/query_modificator.h"

namespace pdm::client {

using rules::QueryModificator;
using rules::RuleAction;

namespace {

obs::Counter& ConflictRetryCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("mvcc.conflict_retries");
  return c;
}

}  // namespace

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

Result<CheckOutResult> CheckOutClient::Run(int64_t root,
                                           CheckOutMethod method,
                                           bool checking_out) {
  switch (method) {
    case CheckOutMethod::kNavigational:
      return RunClientSide(root, /*navigational=*/true, checking_out);
    case CheckOutMethod::kRecursiveBatched:
      return RunClientSide(root, /*navigational=*/false, checking_out);
    case CheckOutMethod::kStoredProcedure:
      return RunStoredProcedure(root, checking_out);
  }
  return Status::Internal("unhandled check-out method");
}

Result<CheckOutResult> CheckOutClient::RunClientSide(int64_t root,
                                                     bool navigational,
                                                     bool checking_out) {
  conn_->ResetStats();
  CheckOutResult out;
  RuleAction action =
      checking_out ? RuleAction::kCheckOut : RuleAction::kCheckIn;
  QueryModificator modificator(rules_, user_);

  // Phase 1: retrieve the (visible) subtree.
  std::map<std::string, std::vector<int64_t>> obids_by_type;
  obids_by_type["assy"].push_back(root);  // the root is part of the flow
  bool denied = false;

  if (navigational) {
    // One expand query per visible node; row conditions pushed into each
    // query, tree conditions verified at the client afterwards.
    ClientRuleEvaluator evaluator(rules_, user_);
    ResultSet fetched_nodes;
    std::deque<int64_t> frontier{root};
    while (!frontier.empty()) {
      int64_t obid = frontier.front();
      frontier.pop_front();
      std::unique_ptr<sql::SelectStmt> stmt =
          rules::BuildExpandQuery(obid, config_.hierarchy);
      PDM_RETURN_NOT_OK(
          modificator.ApplyToNavigationalQuery(&stmt->query, action)
              .status());
      ResultSet children;
      PDM_RETURN_NOT_OK(conn_->Execute(
          stmt->ToSql(), &children, [this](const ResultSet& r) {
            return HomogenizedResponseBytes(r, config_);
          }));
      if (fetched_nodes.schema.num_columns() == 0) {
        fetched_nodes.schema = children.schema;
      }
      std::optional<size_t> obid_col = children.schema.FindColumn("obid");
      std::optional<size_t> type_col = children.schema.FindColumn("type");
      fetched_nodes.rows.reserve(fetched_nodes.rows.size() +
                                 children.rows.size());
      for (Row& row : children.rows) {
        int64_t child = row[*obid_col].int64_value();
        obids_by_type[row[*type_col].ToString()].push_back(child);
        frontier.push_back(child);
        fetched_nodes.rows.push_back(std::move(row));
      }
    }
    PDM_ASSIGN_OR_RETURN(
        bool tree_ok, RootedTreeConditionsPass(conn_, evaluator, root,
                                               std::move(fetched_nodes),
                                               action));
    denied = !tree_ok;
  } else {
    // One recursive query with all rule classes (incl. the ∀rows
    // check-out condition) evaluated at the server: an empty result
    // means the action is denied (all-or-nothing).
    std::unique_ptr<sql::SelectStmt> stmt =
        rules::BuildRecursiveTreeQuery(root, /*max_depth=*/0,
                                       config_.hierarchy);
    PDM_RETURN_NOT_OK(
        modificator.ApplyToRecursiveQuery(stmt.get(), action).status());
    ResultSet tree;
    PDM_RETURN_NOT_OK(conn_->Execute(
        stmt->ToSql(), &tree, [this](const ResultSet& r) {
          return HomogenizedResponseBytes(r, config_);
        }));
    denied = tree.rows.empty();
    std::optional<size_t> obid_col = tree.schema.FindColumn("obid");
    std::optional<size_t> type_col = tree.schema.FindColumn("type");
    std::optional<size_t> left_col = tree.schema.FindColumn("LEFT");
    for (const Row& row : tree.rows) {
      if (!row[*left_col].is_null()) continue;  // link row
      obids_by_type[row[*type_col].ToString()].push_back(
          row[*obid_col].int64_value());
    }
  }

  if (!denied) {
    // Phase 2: flip the flags — the "separate WAN communication" the
    // paper points out. Navigational: one UPDATE per object (the status
    // quo baseline). Batched: one UPDATE per object table, all tables
    // shipped as ONE batch — with the retrieval, the whole check-out is
    // two round trips instead of 1 + #tables.
    size_t flipped = 0;
    if (navigational) {
      for (const auto& [type, obids] : obids_by_type) {
        if (type == "link" || obids.empty()) continue;
        for (int64_t obid : obids) {
          std::unique_ptr<sql::Statement> update =
              rules::BuildCheckOutUpdate(type, {obid}, checking_out);
          const std::string sql = update->ToSql();
          ResultSet ack;
          Status status = conn_->Execute(sql, &ack);
          // A write conflict is retryable, not fatal: re-submit, which
          // re-evaluates at a fresh snapshot.
          for (int attempt = 0;
               IsRetryableConflict(status.code()) &&
               attempt < kMaxConflictRetries;
               ++attempt) {
            ++out.conflict_retries;
            ConflictRetryCounter().Increment();
            status = conn_->Execute(sql, &ack);
          }
          PDM_RETURN_NOT_OK(status);
          flipped += ack.affected_rows;
        }
      }
    } else {
      std::vector<std::string> updates;
      for (const auto& [type, obids] : obids_by_type) {
        if (type == "link" || obids.empty()) continue;
        updates.push_back(
            rules::BuildCheckOutUpdate(type, obids, checking_out)->ToSql());
      }
      std::vector<Result<ResultSet>> acks;
      PDM_RETURN_NOT_OK(conn_->ExecuteBatch(updates, &acks));
      // Re-batch only the conflicted slots: conflicts are retryable
      // (a concurrent writer won first-writer-wins), every other error
      // aborts below as before.
      for (int attempt = 0; attempt < kMaxConflictRetries; ++attempt) {
        std::vector<size_t> conflicted;
        for (size_t i = 0; i < acks.size(); ++i) {
          if (IsRetryableConflict(acks[i].status().code())) {
            conflicted.push_back(i);
          }
        }
        if (conflicted.empty()) break;
        out.conflict_retries += conflicted.size();
        ConflictRetryCounter().Add(conflicted.size());
        std::vector<std::string> retry_sql;
        retry_sql.reserve(conflicted.size());
        for (size_t i : conflicted) retry_sql.push_back(updates[i]);
        std::vector<Result<ResultSet>> retry_acks;
        PDM_RETURN_NOT_OK(conn_->ExecuteBatch(retry_sql, &retry_acks));
        for (size_t j = 0; j < conflicted.size(); ++j) {
          acks[conflicted[j]] = std::move(retry_acks[j]);
        }
      }
      for (Result<ResultSet>& ack : acks) {
        PDM_RETURN_NOT_OK(ack.status());
        flipped += ack->affected_rows;
      }
    }
    out.success = true;
    out.objects = flipped;
  }

  // Single accounting exit: every outcome (denied included) reports the
  // traffic of exactly this run — no mid-function snapshot that later
  // phases could silently outgrow.
  out.wan = conn_->stats();
  return out;
}

Result<CheckOutResult> CheckOutClient::RunStoredProcedure(int64_t root,
                                                          bool checking_out) {
  conn_->ResetStats();
  CheckOutResult out;
  std::string call = StrFormat(
      "CALL %s(%lld, '%s', %lld, %lld, %lld)",
      checking_out ? "pdm_checkout" : "pdm_checkin",
      static_cast<long long>(root), user_.name.c_str(),
      static_cast<long long>(user_.strc_opt),
      static_cast<long long>(user_.eff_from),
      static_cast<long long>(user_.eff_to));
  ResultSet result;
  PDM_RETURN_NOT_OK(conn_->Execute(call, &result));
  if (result.num_rows() == 1 && result.At(0, 0).is_int64()) {
    out.objects = static_cast<size_t>(result.At(0, 0).int64_value());
  }
  out.success = out.objects > 0;
  out.wan = conn_->stats();
  return out;
}

}  // namespace pdm::client
