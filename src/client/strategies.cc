#include "client/strategies.h"

#include <chrono>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rules/query_builder.h"
#include "rules/query_modificator.h"

namespace pdm::client {

using rules::QueryModificator;
using rules::RuleAction;

namespace {

/// RAII wall timer for one user action: on destruction observes
/// "client.action_seconds"{site, strategy, action} — the end-to-end
/// response time the paper's tables report, as a dimensioned quantile
/// histogram (DESIGN.md 5k).
class ActionTimer {
 public:
  ActionTimer(const ClientConfig& config, std::string_view strategy,
              std::string_view action)
      : hist_(obs::MetricsRegistry::Global().log_histogram(
            "client.action_seconds",
            {{"site", config.site.empty() ? "local" : config.site},
             {"strategy", std::string(strategy)},
             {"action", std::string(action)}})),
        start_(std::chrono::steady_clock::now()) {}

  ActionTimer(const ActionTimer&) = delete;
  ActionTimer& operator=(const ActionTimer&) = delete;

  ~ActionTimer() {
    hist_.Observe(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
  }

 private:
  obs::LogHistogram& hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

AccessStrategy::AccessStrategy(Connection* conn,
                               const rules::RuleTable* rules,
                               pdmsys::UserContext user, ClientConfig config)
    : conn_(conn),
      rules_(rules),
      user_(std::move(user)),
      config_(config),
      evaluator_(rules, user_) {}

size_t HomogenizedResponseBytes(const ResultSet& result,
                                const ClientConfig& config) {
  // Pure link rows (type = 'link', as in the recursive result's second
  // UNION branch) carry structure info only; object rows — including
  // expand-result rows that have their link attributes inlined — are
  // charged the per-node size.
  std::optional<size_t> type_col = result.schema.FindColumn("type");
  size_t object_rows = 0;
  size_t link_rows = 0;
  for (const Row& row : result.rows) {
    if (type_col.has_value() && row[*type_col].is_string() &&
        row[*type_col].string_value() == "link") {
      ++link_rows;
    } else {
      ++object_rows;
    }
  }
  size_t bytes = object_rows * config.node_bytes;
  if (config.charge_link_rows) bytes += link_rows * config.node_bytes;
  return bytes == 0 ? 64 : bytes;
}

Result<bool> RootedTreeConditionsPass(Connection* conn,
                                      const ClientRuleEvaluator& evaluator,
                                      int64_t root, ResultSet nodes,
                                      RuleAction action) {
  if (!evaluator.HasTreeConditions(action)) return true;
  ResultSet tree;
  ExecStats probe_stats;  // private stats: probes may run concurrently
  PDM_RETURN_NOT_OK(conn->server().database().Execute(
      rules::BuildRootRowQuery(root)->ToSql(), &tree, &probe_stats));
  // Expand rows lead with the same homogenized columns; their trailing
  // link attributes are not node attributes.
  const size_t width = tree.num_columns();
  tree.rows.reserve(tree.rows.size() + nodes.rows.size());
  for (Row& row : nodes.rows) {
    row.resize(width);
    tree.rows.push_back(std::move(row));
  }
  return evaluator.TreeConditionsPass(tree, action);
}

Connection::ResponseSizer AccessStrategy::HomogenizedSizer() const {
  return [this](const ResultSet& r) {
    return HomogenizedResponseBytes(r, config_);
  };
}

// --- NavigationalStrategy ------------------------------------------------------

namespace {

/// Late evaluation: the rows crossed the WAN; drop the ones the rules
/// hide, at the client. No-op under early evaluation (null filter).
Status ApplyLateFilter(PreparedRowFilter* filter, ResultSet* rows) {
  if (filter == nullptr) return Status::OK();
  std::vector<Row> kept;
  kept.reserve(rows->rows.size());
  for (Row& row : rows->rows) {
    PDM_ASSIGN_OR_RETURN(bool pass, filter->Passes(row));
    if (pass) kept.push_back(std::move(row));
  }
  rows->rows = std::move(kept);
  rows->counted_wire_size.reset();
  return Status::OK();
}

}  // namespace

std::string_view NavigationalStrategy::Name(IssuePolicy issue) const {
  switch (issue) {
    case IssuePolicy::kPerNode:
      return early_ ? "navigational-early" : "navigational-late";
    case IssuePolicy::kPerLevel:
      return early_ ? "navigational-batched-early"
                    : "navigational-batched-late";
    case IssuePolicy::kPerLevelPipelined:
      return early_ ? "navigational-pipelined-early"
                    : "navigational-pipelined-late";
  }
  return "navigational";
}

Result<std::string> NavigationalStrategy::RenderExpandSql(
    int64_t node, RuleAction action) const {
  std::unique_ptr<sql::SelectStmt> stmt =
      rules::BuildExpandQuery(node, config_.hierarchy);
  if (early_) {
    QueryModificator modificator(rules_, user_);
    PDM_RETURN_NOT_OK(
        modificator.ApplyToNavigationalQuery(&stmt->query, action).status());
  }
  return stmt->ToSql();
}

Result<std::unique_ptr<PreparedRowFilter>>
NavigationalStrategy::PrepareLateFilter(int64_t node, RuleAction action) {
  if (early_) return std::unique_ptr<PreparedRowFilter>();
  // The expand result schema is fixed; prepare against a probe result.
  ResultSet rows;
  ExecStats probe_stats;  // private stats: probes may run concurrently
  PDM_RETURN_NOT_OK(conn_->server().database().Execute(
      rules::BuildExpandQuery(node, config_.hierarchy)->ToSql(), &rows,
      &probe_stats));
  return evaluator_.Prepare(rows.schema, action);
}

Result<ActionResult> NavigationalStrategy::QueryAll() {
  obs::ScopedSpan action_span("action:navigational/query", obs::ModelTerm::kNone);
  ActionTimer action_timer(config_, Name(IssuePolicy::kPerNode), "query");
  conn_->ResetStats();
  ActionResult out;

  std::unique_ptr<sql::SelectStmt> stmt = rules::BuildFlatQuery();
  if (early_) {
    QueryModificator modificator(rules_, user_);
    PDM_RETURN_NOT_OK(modificator
                          .ApplyToNavigationalQuery(&stmt->query,
                                                    RuleAction::kQuery)
                          .status());
  }
  ResultSet rows;
  PDM_RETURN_NOT_OK(conn_->Execute(stmt->ToSql(), &rows, HomogenizedSizer()));
  out.transmitted_rows = rows.num_rows();

  if (early_) {
    out.visible_nodes = rows.num_rows();
  } else {
    PDM_ASSIGN_OR_RETURN(std::unique_ptr<PreparedRowFilter> filter,
                         evaluator_.Prepare(rows.schema, RuleAction::kQuery));
    for (const Row& row : rows.rows) {
      PDM_ASSIGN_OR_RETURN(bool pass, filter->Passes(row));
      if (pass) out.visible_nodes++;
    }
  }
  out.wan = conn_->stats();
  return out;
}

Result<ActionResult> NavigationalStrategy::SingleLevelExpand(int64_t node) {
  obs::ScopedSpan action_span("action:navigational/sle", obs::ModelTerm::kNone);
  ActionTimer action_timer(config_, Name(IssuePolicy::kPerNode), "sle");
  conn_->ResetStats();
  ActionResult out;

  PDM_ASSIGN_OR_RETURN(std::unique_ptr<PreparedRowFilter> filter,
                       PrepareLateFilter(node, RuleAction::kExpand));
  PDM_ASSIGN_OR_RETURN(std::string sql,
                       RenderExpandSql(node, RuleAction::kExpand));
  ResultSet rows;
  PDM_RETURN_NOT_OK(conn_->Execute(sql, &rows, HomogenizedSizer()));
  out.transmitted_rows = rows.num_rows();
  PDM_RETURN_NOT_OK(ApplyLateFilter(filter.get(), &rows));
  out.visible_nodes = rows.num_rows();
  out.wan = conn_->stats();
  return out;
}

Result<ActionResult> NavigationalStrategy::MultiLevelExpand(int64_t root) {
  static constexpr std::string_view kSpanNames[] = {
      "action:navigational/mle", "action:batched/mle", "action:pipelined/mle"};
  obs::ScopedSpan action_span(kSpanNames[static_cast<size_t>(issue_)],
                              obs::ModelTerm::kNone);
  ActionTimer action_timer(config_, name(), "mle");
  conn_->ResetStats();
  PDM_ASSIGN_OR_RETURN(ActionResult out,
                       ExpandTree(root, RuleAction::kMultiLevelExpand));
  out.wan = conn_->stats();
  return out;
}

Result<ActionResult> NavigationalStrategy::ExpandTree(int64_t root,
                                                      RuleAction action) {
  ActionResult out;
  const Connection::ResponseSizer sizer = HomogenizedSizer();
  const bool pipelined = issue_ == IssuePolicy::kPerLevelPipelined;

  auto render_level = [this, action](const std::vector<int64_t>& nodes)
      -> Result<std::vector<std::string>> {
    std::vector<std::string> statements;
    statements.reserve(nodes.size());
    for (int64_t node : nodes) {
      PDM_ASSIGN_OR_RETURN(std::string sql, RenderExpandSql(node, action));
      statements.push_back(std::move(sql));
    }
    return statements;
  };

  // Breadth-first, one tree level per iteration: `level` holds the
  // nodes whose children this iteration fetches, `parents` their tree
  // indexes. The root object is already at the client (paper footnote
  // 4). Level order is the navigational FIFO order, so the AddNode
  // sequence — and hence the tree — is identical under every policy.
  std::vector<int64_t> level{root};
  std::vector<size_t> parents{out.tree.AddNode(root, "assy", "", std::nullopt)};
  PDM_ASSIGN_OR_RETURN(std::unique_ptr<PreparedRowFilter> filter,
                       PrepareLateFilter(root, action));
  ResultSet kept_nodes;  // homogenized rows kept, for tree conditions

  Connection::PendingBatch pending;
  if (pipelined) {
    PDM_ASSIGN_OR_RETURN(std::vector<std::string> statements,
                         render_level(level));
    pending = conn_->ExecuteBatchPipelined(std::move(statements),
                                           /*overlap_previous=*/false);
  }

  while (!level.empty()) {
    // Receive the level: each node's children, counted as transmitted,
    // then (late evaluation) filtered.
    std::vector<ResultSet> children(level.size());
    Status deferred;  // a pipelined level's first failed slot
    if (issue_ == IssuePolicy::kPerNode) {
      for (size_t i = 0; i < level.size(); ++i) {
        PDM_ASSIGN_OR_RETURN(std::string sql,
                             RenderExpandSql(level[i], action));
        PDM_RETURN_NOT_OK(conn_->Execute(sql, &children[i], sizer));
        out.transmitted_rows += children[i].num_rows();
        PDM_RETURN_NOT_OK(ApplyLateFilter(filter.get(), &children[i]));
      }
    } else {
      std::vector<Result<ResultSet>> responses;
      if (pipelined) {
        pending.Collect(&responses, sizer);
      } else {
        PDM_ASSIGN_OR_RETURN(std::vector<std::string> statements,
                             render_level(level));
        PDM_RETURN_NOT_OK(conn_->ExecuteBatch(statements, &responses, sizer));
      }
      for (size_t i = 0; i < level.size(); ++i) {
        if (!responses[i].ok()) {
          // A pipelined client discovers a failed slot only after it
          // issued the next level (below); a batched one fails here.
          if (!pipelined) return responses[i].status();
          if (deferred.ok()) deferred = responses[i].status();
          continue;
        }
        children[i] = std::move(*responses[i]);
        out.transmitted_rows += children[i].num_rows();
        PDM_RETURN_NOT_OK(ApplyLateFilter(filter.get(), &children[i]));
      }
    }

    // The next level, in kept-row order across the level's nodes.
    std::vector<int64_t> next;
    for (const ResultSet& rows : children) {
      std::optional<size_t> obid_col = rows.schema.FindColumn("obid");
      if (!obid_col.has_value()) continue;
      for (const Row& row : rows.rows) {
        next.push_back(row[*obid_col].int64_value());
      }
    }
    if (pipelined) {
      // Speculative issue before touching the tree: filtering needs only
      // row values, which are decodable from the response prefix. An
      // error below abandons `pending` to its destructor, which drains
      // the in-flight server work and aborts the exchange unaccounted.
      PDM_ASSIGN_OR_RETURN(std::vector<std::string> statements,
                           render_level(next));
      pending = conn_->ExecuteBatchPipelined(std::move(statements),
                                             /*overlap_previous=*/true);
      PDM_RETURN_NOT_OK(deferred);
    }

    // Tree assembly on the fully received level.
    std::vector<size_t> next_parents;
    next_parents.reserve(next.size());
    for (size_t i = 0; i < children.size(); ++i) {
      ResultSet& rows = children[i];
      if (kept_nodes.schema.num_columns() == 0) {
        kept_nodes.schema = rows.schema;
      }
      std::optional<size_t> obid_col = rows.schema.FindColumn("obid");
      std::optional<size_t> type_col = rows.schema.FindColumn("type");
      std::optional<size_t> name_col = rows.schema.FindColumn("name");
      kept_nodes.rows.reserve(kept_nodes.rows.size() + rows.rows.size());
      for (Row& row : rows.rows) {
        next_parents.push_back(out.tree.AddNode(
            row[*obid_col].int64_value(), row[*type_col].ToString(),
            row[*name_col].ToString(), parents[i]));
        kept_nodes.rows.push_back(std::move(row));
      }
    }
    level = std::move(next);
    parents = std::move(next_parents);
  }

  // Tree conditions are evaluated at the client in every navigational
  // mode, over the root and every kept node.
  PDM_ASSIGN_OR_RETURN(
      bool tree_ok, RootedTreeConditionsPass(conn_, evaluator_, root,
                                             std::move(kept_nodes), action));
  if (!tree_ok) out.tree = pdmsys::ProductTree();  // all-or-nothing

  out.visible_nodes =
      out.tree.num_nodes() > 0 ? out.tree.num_nodes() - 1 : 0;
  return out;
}

// --- RecursiveStrategy ----------------------------------------------------------

Result<ActionResult> RecursiveStrategy::QueryAll() {
  // A flat query is a single statement already; Approach 2 simply keeps
  // the early rule evaluation of Approach 1 for it.
  NavigationalStrategy early(conn_, rules_, user_, config_,
                             /*early_evaluation=*/true);
  return early.QueryAll();
}

Result<ActionResult> RecursiveStrategy::SingleLevelExpand(int64_t node) {
  NavigationalStrategy early(conn_, rules_, user_, config_,
                             /*early_evaluation=*/true);
  return early.SingleLevelExpand(node);
}

Result<ActionResult> RecursiveStrategy::MultiLevelExpand(int64_t root) {
  return RunTreeQuery(root, /*max_depth=*/0);
}

Result<ActionResult> RecursiveStrategy::PartialExpand(int64_t root,
                                                      int levels) {
  if (levels < 1) {
    return Status::InvalidArgument("partial expand needs >= 1 level");
  }
  return RunTreeQuery(root, levels);
}

Result<ActionResult> RecursiveStrategy::RunTreeQuery(int64_t root,
                                                     int max_depth) {
  obs::ScopedSpan action_span("action:recursive/tree", obs::ModelTerm::kNone);
  ActionTimer action_timer(config_, name(), "tree");
  conn_->ResetStats();
  PDM_ASSIGN_OR_RETURN(
      ActionResult out,
      ExpandTree(root, RuleAction::kMultiLevelExpand, max_depth));
  out.wan = conn_->stats();
  return out;
}

Result<ActionResult> RecursiveStrategy::ExpandTree(int64_t root,
                                                   RuleAction action,
                                                   int max_depth) {
  PDM_ASSIGN_OR_RETURN(
      std::unique_ptr<sql::SelectStmt> stmt,
      QueryModificator(rules_, user_)
          .BuildTreeQuery(root, max_depth, config_.hierarchy, action));
  ResultSet result;
  PDM_RETURN_NOT_OK(conn_->Execute(stmt->ToSql(), &result, HomogenizedSizer()));

  ActionResult out;
  PDM_ASSIGN_OR_RETURN(out.tree,
                       pdmsys::AssembleFromHomogenized(result, root));
  out.transmitted_rows = result.num_rows();
  out.visible_nodes =
      out.tree.num_nodes() > 0 ? out.tree.num_nodes() - 1 : 0;
  return out;
}

}  // namespace pdm::client
