#ifndef PDM_CLIENT_STRATEGIES_H_
#define PDM_CLIENT_STRATEGIES_H_

#include <memory>
#include <string_view>

#include "client/connection.h"
#include "client/rule_eval.h"
#include "common/result.h"
#include "net/wan_model.h"
#include "pdm/product_tree.h"
#include "pdm/user_context.h"
#include "rules/rule.h"

namespace pdm::client {

/// Client-side knobs for wire accounting (see DESIGN.md: the paper
/// charges a fixed per-node size; structure information rides along with
/// the child node's payload).
struct ClientConfig {
  size_t node_bytes = 512;        // the paper's avg node size
  bool charge_link_rows = false;  // ablation: charge link rows separately
  /// Which of the parallel product structures to traverse (physical by
  /// default; see pdm/pdm_schema.h hierarchy constants).
  std::string hierarchy = "phys";
  /// Site label the client's action metrics report under; empty
  /// inherits the WAN link's site (Experiment::Init syncs it).
  std::string site;
};

/// Wire size of a homogenized response: `node_bytes` per object row;
/// link rows ride along free unless `charge_link_rows` (see DESIGN.md).
size_t HomogenizedResponseBytes(const ResultSet& result,
                                const ClientConfig& config);

/// The whole-tree rule check of a navigational client (tree conditions
/// cannot be compiled into per-node queries, Section 4.1): the ∀rows and
/// tree-aggregate conditions of `action` over `nodes` — the fetched
/// expand-result rows — plus the root's own row, as the recursive
/// strategy's rtbl holds it. The root is already at the client (paper
/// footnote 4), so its row comes from a local probe the WAN link does
/// not record; no probe runs when `action` has no tree condition.
Result<bool> RootedTreeConditionsPass(Connection* conn,
                                      const ClientRuleEvaluator& evaluator,
                                      int64_t root, ResultSet nodes,
                                      rules::RuleAction action);

/// Outcome of one PDM user action, with the WAN traffic it caused.
struct ActionResult {
  pdmsys::ProductTree tree;    // assembled structure (tree actions)
  size_t transmitted_rows = 0; // rows that crossed the WAN
  size_t visible_nodes = 0;    // objects visible to the user (kept)
  net::WanStats wan;           // per-action traffic/delay
  double seconds() const { return wan.total_seconds(); }
};

/// Interface of the three access strategies the paper compares. Each
/// action resets the connection's WAN statistics and reports the
/// traffic it alone caused.
class AccessStrategy {
 public:
  AccessStrategy(Connection* conn, const rules::RuleTable* rules,
                 pdmsys::UserContext user, ClientConfig config);
  virtual ~AccessStrategy() = default;

  AccessStrategy(const AccessStrategy&) = delete;
  AccessStrategy& operator=(const AccessStrategy&) = delete;

  /// The "query" action: all nodes of the product, no structure info.
  virtual Result<ActionResult> QueryAll() = 0;

  /// Single-level expand: the direct children of `node`.
  virtual Result<ActionResult> SingleLevelExpand(int64_t node) = 0;

  /// Multi-level expand: the whole (visible) subtree under `root`.
  virtual Result<ActionResult> MultiLevelExpand(int64_t root) = 0;

  virtual std::string_view name() const = 0;

 protected:
  /// Response sizer charging `node_bytes` per transmitted object row
  /// (link rows free unless configured otherwise).
  Connection::ResponseSizer HomogenizedSizer() const;

  Connection* conn_;
  const rules::RuleTable* rules_;
  pdmsys::UserContext user_;
  ClientConfig config_;
  ClientRuleEvaluator evaluator_;
};

/// How a navigational multi-level expand issues one tree level's expand
/// statements. Statements, trees and transmitted rows are identical
/// under every policy; only the round-trip schedule differs (the
/// paper's eqs. (1)-(3) and this repo's extensions of them).
enum class IssuePolicy {
  /// One round trip per node — the paper's navigational client: n_v + 1
  /// round trips.
  kPerNode,
  /// One batch per tree level (DESIGN.md 5d): α + 1 round trips, still
  /// n_v + 1 statements.
  kPerLevel,
  /// Per-level batches issued speculatively (DESIGN.md 5g): level i+1's
  /// batch leaves the moment level i's response prefix is decodable
  /// (its transfer start), so up to min(2 * T_Lat, level-i transfer
  /// time) of every inter-level latency window hides under the
  /// still-streaming previous response.
  kPerLevelPipelined,
};

/// The baseline and Approach-1 client: one isolated SQL query per
/// navigation step. With `early_evaluation` = false rules are applied at
/// the client after the data crossed the WAN (the paper's status quo);
/// with true, row conditions are compiled into each query's WHERE clause
/// (Section 4). `issue` only changes how a multi-level expand ships its
/// statements; query and single-level expand are one statement already
/// and always take one round trip.
class NavigationalStrategy : public AccessStrategy {
 public:
  NavigationalStrategy(Connection* conn, const rules::RuleTable* rules,
                       pdmsys::UserContext user, ClientConfig config,
                       bool early_evaluation,
                       IssuePolicy issue = IssuePolicy::kPerNode)
      : AccessStrategy(conn, rules, std::move(user), config),
        early_(early_evaluation),
        issue_(issue) {}

  Result<ActionResult> QueryAll() override;
  Result<ActionResult> SingleLevelExpand(int64_t node) override;
  Result<ActionResult> MultiLevelExpand(int64_t root) override;
  std::string_view name() const override { return Name(issue_); }

  /// The level walk behind a multi-level expand, under `action`'s rules:
  /// one expand statement per kept node in breadth-first order, shipped
  /// per the strategy's `IssuePolicy`, row conditions rendered into each
  /// statement (early) or filtered at the client (late), then the rooted
  /// tree-condition pass — a failed one empties the tree (all-or-
  /// nothing). The navigational check-out retrieves its subtree here.
  /// Leaves `wan` unset: the caller owns the connection's statistics.
  Result<ActionResult> ExpandTree(int64_t root, rules::RuleAction action);

 private:
  /// Strategy label of this rule-evaluation variant under `issue`.
  std::string_view Name(IssuePolicy issue) const;

  /// The expand statement for one node under `action`'s row conditions
  /// (none under late evaluation): identical under every policy.
  Result<std::string> RenderExpandSql(int64_t node,
                                      rules::RuleAction action) const;

  /// The late filter for `action`, prepared from a local probe of the
  /// fixed expand schema (no WAN traffic); null under early evaluation.
  Result<std::unique_ptr<PreparedRowFilter>> PrepareLateFilter(
      int64_t node, rules::RuleAction action);

  bool early_;
  IssuePolicy issue_;
};

/// The Approach-2 client (Section 5): multi-level expands compile into a
/// single WITH RECURSIVE statement with all rule classes injected by the
/// QueryModificator; two WAN messages total. Query and single-level
/// expand already take one round trip, so they use the early-evaluation
/// navigational form.
class RecursiveStrategy : public AccessStrategy {
 public:
  RecursiveStrategy(Connection* conn, const rules::RuleTable* rules,
                    pdmsys::UserContext user, ClientConfig config)
      : AccessStrategy(conn, rules, std::move(user), config) {}

  Result<ActionResult> QueryAll() override;
  Result<ActionResult> SingleLevelExpand(int64_t node) override;
  Result<ActionResult> MultiLevelExpand(int64_t root) override;

  /// Partial multi-level expand: the subtree under `root` down to
  /// `levels` levels, still in one round trip (the depth bound is
  /// compiled into the recursive members).
  Result<ActionResult> PartialExpand(int64_t root, int levels);

  std::string_view name() const override { return "recursive"; }

  /// The one recursive statement under `action`'s rules (to `max_depth`
  /// levels, 0 = all), reassembled into a tree; an empty tree means a
  /// tree condition denied the action. The recursive-batched check-out
  /// retrieves its subtree here. Leaves `wan` unset: the caller owns the
  /// connection's statistics.
  Result<ActionResult> ExpandTree(int64_t root, rules::RuleAction action,
                                  int max_depth = 0);

 private:
  Result<ActionResult> RunTreeQuery(int64_t root, int max_depth);
};

}  // namespace pdm::client

#endif  // PDM_CLIENT_STRATEGIES_H_
