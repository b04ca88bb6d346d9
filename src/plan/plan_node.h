#ifndef PDM_PLAN_PLAN_NODE_H_
#define PDM_PLAN_PLAN_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "plan/bound_expr.h"

namespace pdm {

/// Executable plan operators. The tree is produced by the Binder (plus
/// the column-liveness pass) and interpreted by the Volcano-style executors
/// in exec/. One node kind per physical operator.
enum class PlanKind {
  kScan,
  kCteScan,
  kFilter,
  kProject,
  kNestedLoopJoin,
  kIndexJoin,
  kAggregate,
  kSort,
  kDistinct,
  kUnion,
  kLimit,
};

std::string_view PlanKindName(PlanKind kind);

struct PlanNode {
  explicit PlanNode(PlanKind k) : kind(k) {}
  virtual ~PlanNode() = default;
  PlanNode(const PlanNode&) = delete;
  PlanNode& operator=(const PlanNode&) = delete;

  /// Renders the plan tree for debugging/EXPLAIN-style tests.
  std::string ToString(int indent = 0) const;

  const PlanKind kind;
  Schema schema;  // output schema
  /// The output columns an ancestor reads, a scan's own filter columns
  /// included (ComputeColumnLiveness, plan/binder.h). Loaders leave the
  /// other cells NULL; indexes and widths never change.
  ColumnMask live;
};

using PlanPtr = std::unique_ptr<PlanNode>;

/// Full scan of a base table, with an optional pushed-down filter
/// evaluated against the raw table row.
struct ScanNode : PlanNode {
  ScanNode() : PlanNode(PlanKind::kScan) {}
  std::string table_name;
  BoundExprPtr filter;  // may be null
};

/// Scan of a CTE's materialized rows (or of the recursion delta while
/// inside a recursive term's evaluation).
struct CteScanNode : PlanNode {
  CteScanNode() : PlanNode(PlanKind::kCteScan) {}
  std::string cte_name;  // lower-cased key
};

struct FilterNode : PlanNode {
  FilterNode() : PlanNode(PlanKind::kFilter) {}
  PlanPtr child;
  BoundExprPtr predicate;
};

struct ProjectNode : PlanNode {
  ProjectNode() : PlanNode(PlanKind::kProject) {}
  PlanPtr child;
  std::vector<BoundExprPtr> exprs;
};

/// Inner join, tuple-at-a-time; output row = left row ++ right row.
struct NestedLoopJoinNode : PlanNode {
  NestedLoopJoinNode() : PlanNode(PlanKind::kNestedLoopJoin) {}
  PlanPtr left;
  PlanPtr right;
  BoundExprPtr predicate;  // evaluated on the combined row; may be null
};

/// Equi-join against a base table through its column index: each left
/// row probes the right table's index on `right_key` with its
/// `left_key` cell, and `residual` (the join's other conjuncts) runs on
/// the combined row. The binder builds it only over a bare base-table
/// scan on the right, which the executor never runs: it reads the
/// matches off the table's fragments.
struct IndexJoinNode : PlanNode {
  IndexJoinNode() : PlanNode(PlanKind::kIndexJoin) {}
  PlanPtr left;
  PlanPtr right;          // a ScanNode without a filter
  size_t left_key = 0;    // index into the left row
  size_t right_key = 0;   // index into the right table's row
  BoundExprPtr residual;  // may be null
  /// The right-side columns `residual` reads: the join loads only these
  /// before the residual runs, and the rest of `right->live` only for a
  /// row that passes.
  ColumnMask residual_live;
};

/// One aggregate computation within an AggregateNode.
struct BoundAggregate {
  AggKind agg_kind;
  BoundExprPtr arg;  // null for COUNT(*)
  bool distinct = false;
};

/// Hash aggregation. Output row = group values ++ aggregate values.
/// With no group expressions this is a scalar aggregate producing
/// exactly one row.
struct AggregateNode : PlanNode {
  AggregateNode() : PlanNode(PlanKind::kAggregate) {}
  PlanPtr child;
  std::vector<BoundExprPtr> group_exprs;
  std::vector<BoundAggregate> aggregates;
  BoundExprPtr having;  // bound against the output row; may be null
};

struct SortKey {
  size_t column;  // index into the child's output row
  bool descending = false;
};

struct SortNode : PlanNode {
  SortNode() : PlanNode(PlanKind::kSort) {}
  PlanPtr child;
  std::vector<SortKey> keys;
};

struct DistinctNode : PlanNode {
  DistinctNode() : PlanNode(PlanKind::kDistinct) {}
  PlanPtr child;
};

/// Bag concatenation of the children (UNION ALL); wrap in DistinctNode
/// for UNION.
struct UnionNode : PlanNode {
  UnionNode() : PlanNode(PlanKind::kUnion) {}
  std::vector<PlanPtr> children;
};

struct LimitNode : PlanNode {
  LimitNode() : PlanNode(PlanKind::kLimit) {}
  PlanPtr child;
  int64_t limit = 0;
};

// ---------------------------------------------------------------------------
// Child enumeration: the one place that knows what each operator holds
// ---------------------------------------------------------------------------

/// Calls `fn(slot)` for each child plan slot of `plan` (a `PlanPtr&`, const
/// when `plan` is, so a rewrite can replace the child in place): a join's
/// left then right, a union's children in order. A Project without FROM
/// has none.
template <typename P, typename Fn>
  requires std::same_as<std::remove_const_t<P>, PlanNode>
void ForEachChild(P& plan, Fn&& fn) {
  using sql::ConstLike;
  switch (plan.kind) {
    case PlanKind::kScan:
    case PlanKind::kCteScan:
      return;
    case PlanKind::kFilter:
      fn(static_cast<ConstLike<FilterNode, P>&>(plan).child);
      return;
    case PlanKind::kProject: {
      auto& n = static_cast<ConstLike<ProjectNode, P>&>(plan);
      if (n.child != nullptr) fn(n.child);
      return;
    }
    case PlanKind::kNestedLoopJoin: {
      auto& n = static_cast<ConstLike<NestedLoopJoinNode, P>&>(plan);
      fn(n.left);
      fn(n.right);
      return;
    }
    case PlanKind::kIndexJoin: {
      auto& n = static_cast<ConstLike<IndexJoinNode, P>&>(plan);
      fn(n.left);
      fn(n.right);
      return;
    }
    case PlanKind::kAggregate:
      fn(static_cast<ConstLike<AggregateNode, P>&>(plan).child);
      return;
    case PlanKind::kSort:
      fn(static_cast<ConstLike<SortNode, P>&>(plan).child);
      return;
    case PlanKind::kDistinct:
      fn(static_cast<ConstLike<DistinctNode, P>&>(plan).child);
      return;
    case PlanKind::kUnion:
      for (auto& c : static_cast<ConstLike<UnionNode, P>&>(plan).children) {
        fn(c);
      }
      return;
    case PlanKind::kLimit:
      fn(static_cast<ConstLike<LimitNode, P>&>(plan).child);
      return;
  }
}

/// Calls `fn(slot)` for each root expression `plan`'s own operator holds
/// (a `BoundExprPtr&`, const when `plan` is), absent optional ones
/// skipped: a scan's pushed-down filter, a filter's predicate, the
/// projection list, a join's predicate or residual, an aggregate's group
/// expressions, then its aggregate arguments, then HAVING. Neither child
/// plans nor subquery plans are entered.
template <typename P, typename Fn>
  requires std::same_as<std::remove_const_t<P>, PlanNode>
void ForEachExpr(P& plan, Fn&& fn) {
  using sql::ConstLike;
  auto optional = [&](auto& slot) {
    if (slot != nullptr) fn(slot);
  };
  switch (plan.kind) {
    case PlanKind::kScan:
      optional(static_cast<ConstLike<ScanNode, P>&>(plan).filter);
      return;
    case PlanKind::kFilter:
      fn(static_cast<ConstLike<FilterNode, P>&>(plan).predicate);
      return;
    case PlanKind::kProject:
      for (auto& e : static_cast<ConstLike<ProjectNode, P>&>(plan).exprs) {
        fn(e);
      }
      return;
    case PlanKind::kNestedLoopJoin:
      optional(static_cast<ConstLike<NestedLoopJoinNode, P>&>(plan).predicate);
      return;
    case PlanKind::kIndexJoin:
      optional(static_cast<ConstLike<IndexJoinNode, P>&>(plan).residual);
      return;
    case PlanKind::kAggregate: {
      auto& n = static_cast<ConstLike<AggregateNode, P>&>(plan);
      for (auto& g : n.group_exprs) fn(g);
      for (auto& a : n.aggregates) optional(a.arg);
      optional(n.having);
      return;
    }
    case PlanKind::kCteScan:
    case PlanKind::kSort:
    case PlanKind::kDistinct:
    case PlanKind::kUnion:
    case PlanKind::kLimit:
      return;
  }
}

// ---------------------------------------------------------------------------
// Bound statements
// ---------------------------------------------------------------------------

/// A bound common table expression. For a recursive CTE, `seed` is the
/// union of the non-self-referencing terms and `recursive_terms` are the
/// self-referencing ones; the executor runs semi-naive iteration over
/// them (exec/recursive_cte.h). For a plain CTE only `seed` is set.
struct BoundCte {
  std::string name;  // lower-cased key
  Schema schema;
  PlanPtr seed;
  std::vector<PlanPtr> recursive_terms;
  bool recursive = false;
  bool union_all = false;  // bag semantics between seed/recursive rows
};

/// A fully bound SELECT statement: CTEs (in definition order) plus the
/// root plan. Subqueries inside expressions carry their own plans.
struct BoundSelect {
  std::vector<BoundCte> ctes;
  PlanPtr root;
  /// params_bound[i] is set when fingerprint parameter i
  /// (sql/fingerprint.h) reached a BoundLiteral of this plan. The binder
  /// records it wherever it sets BoundLiteral::param_slot; the plan
  /// cache reuses the plan for other parameter values only when every
  /// parameter is covered.
  std::vector<bool> params_bound;
};

struct BoundInsert {
  std::string table_name;
  /// One entry per target row, each with one expression per table column
  /// (already reordered to table schema order; missing columns = NULL
  /// literals).
  std::vector<std::vector<BoundExprPtr>> rows;
};

struct BoundUpdate {
  std::string table_name;
  /// (column index in table schema, value expression bound against the
  /// table row at level 0).
  std::vector<std::pair<size_t, BoundExprPtr>> assignments;
  BoundExprPtr predicate;  // may be null
};

struct BoundDelete {
  std::string table_name;
  BoundExprPtr predicate;  // may be null
};

}  // namespace pdm

#endif  // PDM_PLAN_PLAN_NODE_H_
