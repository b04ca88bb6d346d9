#include "plan/binder.h"

#include <algorithm>
#include <optional>

#include "common/string_util.h"

namespace pdm {

namespace {

using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;

// --- AST analysis -----------------------------------------------------------

/// Invokes `fn` on every QueryExpr nested inside `expr` (subqueries), not
/// descending into them.
template <typename Fn>
void ForEachSubqueryInExpr(const Expr& expr, const Fn& fn) {
  sql::ForEachChild(
      expr, [&](const ExprPtr& c) { ForEachSubqueryInExpr(*c, fn); }, fn);
}

/// Invokes `fn` on every query nested directly in `node` (a SelectCore or
/// QueryExpr): its derived tables and the subqueries of its expressions.
template <typename Node, typename Fn>
void ForEachNestedQuery(const Node& node, const Fn& fn) {
  sql::ForEachChild(
      node, [&](const ExprPtr& e) { ForEachSubqueryInExpr(*e, fn); }, fn);
}

struct CteRefCounts {
  size_t in_from = 0;    // direct FROM references in the top-level terms
  size_t elsewhere = 0;  // references in subqueries / derived tables
};

/// Adds `core`'s FROM/JOIN base-table references to `name` to `*count`.
void CountCteRefsInFrom(const sql::SelectCore& core, std::string_view name,
                        size_t* count) {
  auto count_ref = [&](const sql::TableRef& ref) {
    if (ref.kind == sql::TableRef::Kind::kBaseTable &&
        EqualsIgnoreCase(ref.table_name, name)) {
      ++*count;
    }
  };
  for (const sql::FromItem& item : core.from) {
    count_ref(item.ref);
    for (const sql::JoinClause& j : item.joins) count_ref(j.ref);
  }
}

/// Counts every reference inside a nested query as `elsewhere`.
void CountCteRefsInQuery(const sql::QueryExpr& query, std::string_view name,
                         CteRefCounts* counts) {
  for (const sql::SelectCore& term : query.terms) {
    CountCteRefsInFrom(term, name, &counts->elsewhere);
  }
  ForEachNestedQuery(query, [&](const sql::QueryExpr& q) {
    CountCteRefsInQuery(q, name, counts);
  });
}

CteRefCounts CountCteRefs(const sql::SelectCore& core, std::string_view name) {
  CteRefCounts counts;
  CountCteRefsInFrom(core, name, &counts.in_from);
  ForEachNestedQuery(core, [&](const sql::QueryExpr& q) {
    CountCteRefsInQuery(q, name, &counts);
  });
  return counts;
}

bool IsAggregateCall(const Expr& expr) {
  if (expr.kind != ExprKind::kFunctionCall) return false;
  const auto& e = static_cast<const sql::FunctionCallExpr&>(expr);
  bool star = e.args.size() == 1 && e.args[0]->kind == ExprKind::kStar;
  return LookupAggKind(e.name, star).has_value();
}

/// True if `expr` contains an aggregate function call (not descending
/// into subqueries, whose aggregates belong to the subquery).
bool HasAggregateCall(const Expr& expr) {
  bool found = IsAggregateCall(expr);
  sql::ForEachChild(expr, [&](const ExprPtr& c) {
    found = found || HasAggregateCall(*c);
  });
  return found;
}

/// Collects aggregate calls in evaluation order (outermost first walk).
void CollectAggCalls(const Expr& expr, std::vector<const Expr*>* out) {
  if (IsAggregateCall(expr)) {
    out->push_back(&expr);
    return;  // nested aggregates rejected later during binding
  }
  sql::ForEachChild(expr,
                    [&](const ExprPtr& c) { CollectAggCalls(*c, out); });
}

// --- Bound-tree type inference ----------------------------------------------

ColumnType InferType(const BoundExpr& expr);

ColumnType InferLiteralType(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kBool:
      return ColumnType::kBool;
    case ValueKind::kInt64:
      return ColumnType::kInt64;
    case ValueKind::kDouble:
      return ColumnType::kDouble;
    default:
      return ColumnType::kString;
  }
}

ColumnType InferType(const BoundExpr& expr) {
  switch (expr.kind) {
    case BoundExprKind::kLiteral:
      return InferLiteralType(static_cast<const BoundLiteral&>(expr).value);
    case BoundExprKind::kColumnRef:
      return static_cast<const BoundColumnRef&>(expr).column_type;
    case BoundExprKind::kUnary: {
      const auto& e = static_cast<const BoundUnary&>(expr);
      return e.op == sql::UnaryOp::kNot ? ColumnType::kBool
                                        : InferType(*e.operand);
    }
    case BoundExprKind::kBinary: {
      const auto& e = static_cast<const BoundBinary&>(expr);
      switch (e.op) {
        case sql::BinaryOp::kAnd:
        case sql::BinaryOp::kOr:
        case sql::BinaryOp::kEq:
        case sql::BinaryOp::kNotEq:
        case sql::BinaryOp::kLess:
        case sql::BinaryOp::kLessEq:
        case sql::BinaryOp::kGreater:
        case sql::BinaryOp::kGreaterEq:
          return ColumnType::kBool;
        case sql::BinaryOp::kConcat:
          return ColumnType::kString;
        default: {
          ColumnType l = InferType(*e.lhs);
          ColumnType r = InferType(*e.rhs);
          return (l == ColumnType::kDouble || r == ColumnType::kDouble)
                     ? ColumnType::kDouble
                     : ColumnType::kInt64;
        }
      }
    }
    case BoundExprKind::kFunctionCall: {
      const auto& e = static_cast<const BoundFunctionCall&>(expr);
      const std::string& n = e.function->name;
      if (n == "LENGTH" || n == "BITAND" || n == "BITOR" || n == "MOD") {
        return ColumnType::kInt64;
      }
      if (n == "OVERLAPS_RANGE") return ColumnType::kBool;
      if (!e.args.empty()) return InferType(*e.args[0]);
      return ColumnType::kString;
    }
    case BoundExprKind::kCast:
      return static_cast<const BoundCast&>(expr).target_type;
    case BoundExprKind::kIsNull:
    case BoundExprKind::kInList:
    case BoundExprKind::kBetween:
    case BoundExprKind::kLike:
      return ColumnType::kBool;
    case BoundExprKind::kCase: {
      const auto& e = static_cast<const BoundCase&>(expr);
      return InferType(*e.whens.front().second);
    }
    case BoundExprKind::kSubquery: {
      const auto& e = static_cast<const BoundSubquery&>(expr);
      if (e.subquery_kind == SubqueryKind::kScalar &&
          e.plan->schema.num_columns() > 0) {
        return e.plan->schema.column(0).type;
      }
      return ColumnType::kBool;
    }
  }
  return ColumnType::kString;
}

/// Column types of UNION branches are merged leniently: numeric widening
/// wins, otherwise the first branch's type stands (the engine is
/// dynamically typed at runtime).
ColumnType MergeColumnTypes(ColumnType a, ColumnType b) {
  if (a == b) return a;
  bool a_num = a == ColumnType::kInt64 || a == ColumnType::kDouble;
  bool b_num = b == ColumnType::kInt64 || b == ColumnType::kDouble;
  if (a_num && b_num) return ColumnType::kDouble;
  return a;
}

/// Whether `item`'s output column is named by its SQL text: unaliased
/// and not a bare column. Such an item carries its literals in the name,
/// so they bind as plan structure (Binder::structural_literals_) and a
/// cached plan serves only the same literals (DESIGN.md 5c).
bool NamedByText(const sql::SelectItem& item) {
  return item.alias.empty() && item.expr->kind != ExprKind::kColumnRef;
}

/// While live, `*slot` holds `value`. Sets the binder's modes
/// (Binder::structural_literals_, Binder::agg_context_) for a subtree.
template <typename T>
struct ScopedValue {
  ScopedValue(T* slot, T value) : slot(slot), saved(*slot) { *slot = value; }
  ~ScopedValue() { *slot = saved; }
  ScopedValue(const ScopedValue&) = delete;
  ScopedValue& operator=(const ScopedValue&) = delete;
  T* slot;
  T saved;
};

std::string OutputColumnName(const sql::SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ExprKind::kColumnRef) {
    return static_cast<const sql::ColumnRefExpr&>(*item.expr).column;
  }
  return item.expr->ToSql();
}

}  // namespace

// --- Scope --------------------------------------------------------------------

size_t Scope::AddTable(std::string name, Schema schema) {
  size_t offset = num_columns_;
  num_columns_ += schema.num_columns();
  tables_.push_back(TableBinding{std::move(name), std::move(schema), offset});
  return offset;
}

Result<Scope::Resolution> Scope::Resolve(std::string_view qualifier,
                                         std::string_view column) const {
  std::optional<Resolution> found;
  for (const TableBinding& t : tables_) {
    if (!qualifier.empty() && !EqualsIgnoreCase(t.name, qualifier)) continue;
    std::optional<size_t> idx = t.schema.FindColumn(column);
    if (!idx.has_value()) continue;
    if (found.has_value()) {
      return Status::BindError(StrFormat(
          "ambiguous column reference '%s'", std::string(column).c_str()));
    }
    found = Resolution{0, t.offset + *idx, t.schema.column(*idx).type,
                       t.name + "." + std::string(column)};
  }
  if (found.has_value()) return *found;
  if (parent_ != nullptr) {
    PDM_ASSIGN_OR_RETURN(Resolution r, parent_->Resolve(qualifier, column));
    r.level += 1;
    return r;
  }
  std::string full = qualifier.empty()
                         ? std::string(column)
                         : std::string(qualifier) + "." + std::string(column);
  return Status::BindError("unknown column '" + full + "'");
}

// --- Bound-tree analysis helpers ------------------------------------------------

namespace {

/// Invokes `fn` on every root expression held by the operators of `plan`
/// (not recursing into subquery plans; ForEachColumnRef does that with
/// depth tracking).
template <typename Fn>
void ForEachExprInPlan(const PlanNode& plan, const Fn& fn) {
  ForEachExpr(plan, [&](const BoundExprPtr& e) { fn(*e); });
  ForEachChild(plan, [&](const PlanPtr& c) { ForEachExprInPlan(*c, fn); });
}

/// Walks a bound expression tree; `fn(colref, depth)` is called for each
/// column ref, where `depth` is how many subquery scopes the ref is
/// nested below the root expression.
template <typename Fn>
void ForEachColumnRef(const BoundExpr& expr, size_t depth, const Fn& fn) {
  if (expr.kind == BoundExprKind::kColumnRef) {
    fn(static_cast<const BoundColumnRef&>(expr), depth);
    return;
  }
  ForEachChild(
      expr, [&](const BoundExprPtr& c) { ForEachColumnRef(*c, depth, fn); },
      [&](const PlanPtr& plan) {
        ForEachExprInPlan(*plan, [&](const BoundExpr& inner) {
          ForEachColumnRef(inner, depth + 1, fn);
        });
      });
}

}  // namespace

std::optional<size_t> MaxOwnRowIndex(const BoundExpr& expr, size_t depth) {
  std::optional<size_t> max_index;
  ForEachColumnRef(expr, depth, [&](const BoundColumnRef& ref, size_t d) {
    if (ref.level == d) {
      if (!max_index.has_value() || ref.index > *max_index) {
        max_index = ref.index;
      }
    }
  });
  return max_index;
}

bool ExprHasEscapingRefs(const BoundExpr& expr, size_t depth) {
  bool escapes = false;
  ForEachColumnRef(expr, depth, [&](const BoundColumnRef& ref, size_t d) {
    if (ref.level > d) escapes = true;
  });
  return escapes;
}

bool PlanHasEscapingRefs(const PlanNode& plan, size_t depth) {
  bool escapes = false;
  ForEachExprInPlan(plan, [&](const BoundExpr& e) {
    if (ExprHasEscapingRefs(e, depth)) escapes = true;
  });
  return escapes;
}

std::vector<BoundExprPtr> SplitConjuncts(BoundExprPtr expr) {
  std::vector<BoundExprPtr> out;
  if (expr == nullptr) return out;
  if (expr->kind == BoundExprKind::kBinary) {
    auto* bin = static_cast<BoundBinary*>(expr.get());
    if (bin->op == sql::BinaryOp::kAnd) {
      std::vector<BoundExprPtr> left = SplitConjuncts(std::move(bin->lhs));
      std::vector<BoundExprPtr> right = SplitConjuncts(std::move(bin->rhs));
      for (BoundExprPtr& e : left) out.push_back(std::move(e));
      for (BoundExprPtr& e : right) out.push_back(std::move(e));
      return out;
    }
  }
  out.push_back(std::move(expr));
  return out;
}

BoundExprPtr CombineConjuncts(std::vector<BoundExprPtr> conjuncts) {
  BoundExprPtr acc;
  for (BoundExprPtr& e : conjuncts) {
    if (acc == nullptr) {
      acc = std::move(e);
    } else {
      acc = std::make_unique<BoundBinary>(sql::BinaryOp::kAnd, std::move(acc),
                                          std::move(e));
    }
  }
  return acc;
}

// --- Join operator choice ----------------------------------------------------------

namespace {

/// The key of an index join over `left_cols` left columns, if `conjunct`
/// is `left_col = right_col` (either way round) over comparable declared
/// types: an index answers no equality the evaluator would reject.
std::optional<std::pair<size_t, size_t>> IndexJoinKey(
    const BoundExpr& conjunct, size_t left_cols) {
  if (conjunct.kind != BoundExprKind::kBinary) return std::nullopt;
  const auto& bin = static_cast<const BoundBinary&>(conjunct);
  if (bin.op != sql::BinaryOp::kEq ||
      bin.lhs->kind != BoundExprKind::kColumnRef ||
      bin.rhs->kind != BoundExprKind::kColumnRef) {
    return std::nullopt;
  }
  const auto* l = static_cast<const BoundColumnRef*>(bin.lhs.get());
  const auto* r = static_cast<const BoundColumnRef*>(bin.rhs.get());
  if (l->level != 0 || r->level != 0 ||
      !Value::ComparableKinds(ColumnKind(l->column_type),
                              ColumnKind(r->column_type))) {
    return std::nullopt;
  }
  if (l->index > r->index) std::swap(l, r);
  if (l->index >= left_cols || r->index < left_cols) return std::nullopt;
  return std::make_pair(l->index, r->index - left_cols);
}

/// Joins `left` and `right` on the AND of `conjuncts`. With `index_join`,
/// a bare base-table scan on the right and a key conjunct (the first
/// one IndexJoinKey accepts), an IndexJoinNode whose residual is every
/// other conjunct; otherwise a NestedLoopJoinNode.
PlanPtr MakeJoin(PlanPtr left, PlanPtr right,
                 std::vector<BoundExprPtr> conjuncts, bool index_join) {
  Schema schema = left->schema;
  for (const Column& c : right->schema.columns()) schema.AddColumn(c);
  const bool bare_scan =
      right->kind == PlanKind::kScan &&
      static_cast<const ScanNode&>(*right).filter == nullptr;
  if (index_join && bare_scan) {
    const size_t left_cols = left->schema.num_columns();
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      std::optional<std::pair<size_t, size_t>> key =
          IndexJoinKey(*conjuncts[i], left_cols);
      if (!key.has_value()) continue;
      auto join = std::make_unique<IndexJoinNode>();
      join->schema = std::move(schema);
      join->left = std::move(left);
      join->right = std::move(right);
      join->left_key = key->first;
      join->right_key = key->second;
      conjuncts.erase(conjuncts.begin() + static_cast<std::ptrdiff_t>(i));
      join->residual = CombineConjuncts(std::move(conjuncts));
      return join;
    }
  }
  auto join = std::make_unique<NestedLoopJoinNode>();
  join->schema = std::move(schema);
  join->left = std::move(left);
  join->right = std::move(right);
  join->predicate = CombineConjuncts(std::move(conjuncts));
  return join;
}

}  // namespace

// --- Column liveness ------------------------------------------------------------

namespace {

/// Marks in `need` each column of the row `expr` is evaluated against
/// that it reads: its own level-0 refs, and the refs a subquery nested
/// in it (at any depth) makes back to that row.
void MarkReads(const BoundExpr& expr, ColumnMask* need) {
  ForEachColumnRef(expr, 0, [&](const BoundColumnRef& ref, size_t depth) {
    if (ref.level == depth && ref.index < need->size()) {
      (*need)[ref.index] = true;
    }
  });
}

ColumnMask AllLive(const PlanNode& plan) {
  return ColumnMask(plan.schema.num_columns(), true);
}

/// `mask` as stored on a plan: empty when every column is live, so the
/// loaders take the whole-row path.
ColumnMask AllOrMask(ColumnMask mask) {
  if (std::find(mask.begin(), mask.end(), false) == mask.end()) mask.clear();
  return mask;
}

void AnnotatePlan(PlanNode& plan, ColumnMask need);

/// Annotates the subquery plans directly inside `expr`; each one's own
/// expressions then annotate the plans nested deeper.
void AnnotateSubqueries(BoundExpr& expr) {
  ForEachChild(
      expr, [](BoundExprPtr& c) { AnnotateSubqueries(*c); },
      [](PlanPtr& plan) { AnnotatePlan(*plan, AllLive(*plan)); });
}

/// Splits a join's combined-row mask between its two sides.
void AnnotateJoinSides(PlanNode& left, PlanNode& right,
                       const ColumnMask& combined) {
  const size_t split = left.schema.num_columns();
  AnnotatePlan(left, ColumnMask(combined.begin(), combined.begin() + split));
  AnnotatePlan(right, ColumnMask(combined.begin() + split, combined.end()));
}

/// Sets `plan.live` to `need` after annotating the children with what
/// `plan`'s operator and `need` read of them.
void AnnotatePlan(PlanNode& plan, ColumnMask need) {
  ForEachExpr(plan, [](BoundExprPtr& e) { AnnotateSubqueries(*e); });
  switch (plan.kind) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const ScanNode&>(plan);
      if (scan.filter != nullptr) MarkReads(*scan.filter, &need);
      break;
    }
    case PlanKind::kCteScan:
      break;
    case PlanKind::kFilter: {
      auto& filter = static_cast<FilterNode&>(plan);
      ColumnMask child = need;
      MarkReads(*filter.predicate, &child);
      AnnotatePlan(*filter.child, std::move(child));
      break;
    }
    case PlanKind::kProject: {
      auto& project = static_cast<ProjectNode&>(plan);
      if (project.child == nullptr) break;
      ColumnMask child(project.child->schema.num_columns(), false);
      for (const BoundExprPtr& e : project.exprs) MarkReads(*e, &child);
      AnnotatePlan(*project.child, std::move(child));
      break;
    }
    case PlanKind::kNestedLoopJoin: {
      auto& join = static_cast<NestedLoopJoinNode&>(plan);
      ColumnMask combined = need;
      if (join.predicate != nullptr) MarkReads(*join.predicate, &combined);
      AnnotateJoinSides(*join.left, *join.right, combined);
      break;
    }
    case PlanKind::kIndexJoin: {
      auto& join = static_cast<IndexJoinNode&>(plan);
      const size_t split = join.left->schema.num_columns();
      ColumnMask combined = need;
      if (join.residual != nullptr) {
        ColumnMask residual(combined.size(), false);
        MarkReads(*join.residual, &residual);
        join.residual_live =
            AllOrMask(ColumnMask(residual.begin() + split, residual.end()));
        MarkReads(*join.residual, &combined);
      }
      combined[join.left_key] = true;
      combined[split + join.right_key] = true;
      AnnotateJoinSides(*join.left, *join.right, combined);
      break;
    }
    case PlanKind::kLimit:
      AnnotatePlan(*static_cast<LimitNode&>(plan).child, need);
      break;
    case PlanKind::kAggregate:
    case PlanKind::kSort:
    case PlanKind::kDistinct:
    case PlanKind::kUnion:
      ForEachChild(plan, [](PlanPtr& c) { AnnotatePlan(*c, AllLive(*c)); });
      break;
  }
  plan.live = AllOrMask(std::move(need));
}

}  // namespace

void ComputeColumnLiveness(BoundSelect* bound) {
  for (BoundCte& cte : bound->ctes) {
    AnnotatePlan(*cte.seed, AllLive(*cte.seed));
    for (PlanPtr& term : cte.recursive_terms) {
      AnnotatePlan(*term, AllLive(*term));
    }
  }
  AnnotatePlan(*bound->root, AllLive(*bound->root));
}

// --- Binder: expressions ----------------------------------------------------------

BoundExprPtr Binder::BindLiteral(const sql::LiteralExpr& expr) {
  auto lit = std::make_unique<BoundLiteral>(expr.value);
  if (view_stack_.empty() && !structural_literals_ &&
      expr.param_slot >= 0) {
    const auto slot = static_cast<size_t>(expr.param_slot);
    lit->param_slot = expr.param_slot;
    if (slot >= params_bound_.size()) params_bound_.resize(slot + 1);
    params_bound_[slot] = true;
  }
  return lit;
}

std::optional<size_t> Binder::AggContext::SlotOf(const sql::Expr& expr) const {
  if (!group_sql.empty()) {
    std::string text = expr.ToSql();
    for (size_t i = 0; i < group_sql.size(); ++i) {
      if (group_sql[i] == text) return i;
    }
  }
  for (size_t j = 0; j < agg_calls.size(); ++j) {
    if (agg_calls[j] == &expr) return group_sql.size() + j;
  }
  return std::nullopt;
}

Result<BoundExprPtr> Binder::BindExpr(const sql::Expr& expr,
                                      const Scope* scope) {
  if (agg_context_ != nullptr) {
    if (std::optional<size_t> slot = agg_context_->SlotOf(expr)) {
      const Column& out = agg_context_->output->column(*slot);
      return BoundExprPtr(
          std::make_unique<BoundColumnRef>(0, *slot, out.type, out.name));
    }
  }
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return BindLiteral(static_cast<const sql::LiteralExpr&>(expr));
    case ExprKind::kColumnRef: {
      const auto& e = static_cast<const sql::ColumnRefExpr&>(expr);
      if (scope == nullptr) {
        return Status::BindError("column reference '" + e.ToSql() +
                                 "' is not allowed here");
      }
      PDM_ASSIGN_OR_RETURN(Scope::Resolution r,
                           scope->Resolve(e.table, e.column));
      if (agg_context_ != nullptr && r.level == 0) {
        return Status::BindError("column '" + e.ToSql() +
                                 "' must appear in GROUP BY or inside an "
                                 "aggregate function");
      }
      return BoundExprPtr(std::make_unique<BoundColumnRef>(
          r.level, r.index, r.type, r.debug_name));
    }
    case ExprKind::kStar:
      return Status::BindError("'*' is only allowed in COUNT(*)");
    case ExprKind::kUnary: {
      const auto& e = static_cast<const sql::UnaryExpr&>(expr);
      PDM_ASSIGN_OR_RETURN(BoundExprPtr operand, BindExpr(*e.operand, scope));
      return BoundExprPtr(
          std::make_unique<BoundUnary>(e.op, std::move(operand)));
    }
    case ExprKind::kBinary: {
      const auto& e = static_cast<const sql::BinaryExpr&>(expr);
      PDM_ASSIGN_OR_RETURN(BoundExprPtr lhs, BindExpr(*e.lhs, scope));
      PDM_ASSIGN_OR_RETURN(BoundExprPtr rhs, BindExpr(*e.rhs, scope));
      return BoundExprPtr(std::make_unique<BoundBinary>(e.op, std::move(lhs),
                                                        std::move(rhs)));
    }
    case ExprKind::kFunctionCall: {
      const auto& e = static_cast<const sql::FunctionCallExpr&>(expr);
      bool star = e.args.size() == 1 && e.args[0]->kind == ExprKind::kStar;
      if (LookupAggKind(e.name, star).has_value()) {
        return Status::BindError(
            "aggregate function " + e.name +
            " is not allowed here (only in SELECT list or HAVING)");
      }
      const ScalarFunction* fn = functions_->Find(e.name);
      if (fn == nullptr) {
        return Status::BindError("unknown function '" + e.name + "'");
      }
      if (e.args.size() < fn->min_args || e.args.size() > fn->max_args) {
        return Status::BindError(
            StrFormat("function %s called with %zu argument(s)",
                      fn->name.c_str(), e.args.size()));
      }
      std::vector<BoundExprPtr> args;
      args.reserve(e.args.size());
      for (const ExprPtr& a : e.args) {
        PDM_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*a, scope));
        args.push_back(std::move(b));
      }
      return BoundExprPtr(
          std::make_unique<BoundFunctionCall>(fn, std::move(args)));
    }
    case ExprKind::kCast: {
      const auto& e = static_cast<const sql::CastExpr&>(expr);
      PDM_ASSIGN_OR_RETURN(BoundExprPtr operand, BindExpr(*e.operand, scope));
      return BoundExprPtr(
          std::make_unique<BoundCast>(std::move(operand), e.target_type));
    }
    case ExprKind::kIsNull: {
      const auto& e = static_cast<const sql::IsNullExpr&>(expr);
      PDM_ASSIGN_OR_RETURN(BoundExprPtr operand, BindExpr(*e.operand, scope));
      return BoundExprPtr(
          std::make_unique<BoundIsNull>(std::move(operand), e.negated));
    }
    case ExprKind::kInList: {
      const auto& e = static_cast<const sql::InListExpr&>(expr);
      PDM_ASSIGN_OR_RETURN(BoundExprPtr operand, BindExpr(*e.operand, scope));
      std::vector<BoundExprPtr> items;
      items.reserve(e.items.size());
      for (const ExprPtr& i : e.items) {
        PDM_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*i, scope));
        items.push_back(std::move(b));
      }
      auto bound = std::make_unique<BoundInList>(std::move(operand),
                                                 std::move(items), e.negated);
      bool all_literals = true;
      for (const BoundExprPtr& item : bound->items) {
        if (item->kind != BoundExprKind::kLiteral) {
          all_literals = false;
          break;
        }
      }
      if (all_literals) {
        bound->use_literal_set = true;
        for (const BoundExprPtr& item : bound->items) {
          bound->literal_set.Add(static_cast<const BoundLiteral&>(*item).value);
        }
      }
      return BoundExprPtr(std::move(bound));
    }
    case ExprKind::kBetween: {
      const auto& e = static_cast<const sql::BetweenExpr&>(expr);
      PDM_ASSIGN_OR_RETURN(BoundExprPtr operand, BindExpr(*e.operand, scope));
      PDM_ASSIGN_OR_RETURN(BoundExprPtr low, BindExpr(*e.low, scope));
      PDM_ASSIGN_OR_RETURN(BoundExprPtr high, BindExpr(*e.high, scope));
      return BoundExprPtr(std::make_unique<BoundBetween>(
          std::move(operand), std::move(low), std::move(high), e.negated));
    }
    case ExprKind::kLike: {
      const auto& e = static_cast<const sql::LikeExpr&>(expr);
      PDM_ASSIGN_OR_RETURN(BoundExprPtr operand, BindExpr(*e.operand, scope));
      PDM_ASSIGN_OR_RETURN(BoundExprPtr pattern, BindExpr(*e.pattern, scope));
      return BoundExprPtr(std::make_unique<BoundLike>(
          std::move(operand), std::move(pattern), e.negated));
    }
    case ExprKind::kCase: {
      const auto& e = static_cast<const sql::CaseExpr&>(expr);
      std::vector<std::pair<BoundExprPtr, BoundExprPtr>> whens;
      whens.reserve(e.whens.size());
      for (const auto& [c, v] : e.whens) {
        PDM_ASSIGN_OR_RETURN(BoundExprPtr bc, BindExpr(*c, scope));
        PDM_ASSIGN_OR_RETURN(BoundExprPtr bv, BindExpr(*v, scope));
        whens.emplace_back(std::move(bc), std::move(bv));
      }
      BoundExprPtr else_expr;
      if (e.else_expr != nullptr) {
        PDM_ASSIGN_OR_RETURN(else_expr, BindExpr(*e.else_expr, scope));
      }
      return BoundExprPtr(
          std::make_unique<BoundCase>(std::move(whens), std::move(else_expr)));
    }
    case ExprKind::kInSubquery:
    case ExprKind::kExists:
    case ExprKind::kScalarSubquery:
      return BindSubqueryExpr(expr, scope);
  }
  return Status::Internal("unhandled expression kind in binder");
}

Result<PlanPtr> Binder::BindSubqueryPlan(const sql::QueryExpr& query,
                                         const Scope* scope,
                                         bool* correlated) {
  const bool after_aggregation = agg_context_ != nullptr;
  ScopedValue<const AggContext*> body(&agg_context_, nullptr);
  PDM_ASSIGN_OR_RETURN(PlanPtr plan, BindQueryExpr(query, scope));
  *correlated = PlanHasEscapingRefs(*plan, 0);
  if (*correlated && after_aggregation) {
    // Its outer refs would resolve against the rows before aggregation.
    return Status::NotImplemented("correlated subquery after aggregation");
  }
  return plan;
}

Result<BoundExprPtr> Binder::BindSubqueryExpr(const sql::Expr& expr,
                                              const Scope* scope) {
  switch (expr.kind) {
    case ExprKind::kExists: {
      const auto& e = static_cast<const sql::ExistsExpr&>(expr);
      bool correlated = false;
      PDM_ASSIGN_OR_RETURN(PlanPtr plan,
                           BindSubqueryPlan(*e.subquery, scope, &correlated));
      return BoundExprPtr(std::make_unique<BoundSubquery>(
          SubqueryKind::kExists, nullptr, std::move(plan), e.negated,
          correlated));
    }
    case ExprKind::kInSubquery: {
      const auto& e = static_cast<const sql::InSubqueryExpr&>(expr);
      PDM_ASSIGN_OR_RETURN(BoundExprPtr operand, BindExpr(*e.operand, scope));
      bool correlated = false;
      PDM_ASSIGN_OR_RETURN(PlanPtr plan,
                           BindSubqueryPlan(*e.subquery, scope, &correlated));
      if (plan->schema.num_columns() != 1) {
        return Status::BindError(
            "IN subquery must return exactly one column");
      }
      return BoundExprPtr(std::make_unique<BoundSubquery>(
          SubqueryKind::kIn, std::move(operand), std::move(plan), e.negated,
          correlated));
    }
    case ExprKind::kScalarSubquery: {
      const auto& e = static_cast<const sql::ScalarSubqueryExpr&>(expr);
      bool correlated = false;
      PDM_ASSIGN_OR_RETURN(PlanPtr plan,
                           BindSubqueryPlan(*e.subquery, scope, &correlated));
      if (plan->schema.num_columns() != 1) {
        return Status::BindError(
            "scalar subquery must return exactly one column");
      }
      return BoundExprPtr(std::make_unique<BoundSubquery>(
          SubqueryKind::kScalar, nullptr, std::move(plan), false, correlated));
    }
    default:
      return Status::Internal("not a subquery expression");
  }
}

// --- Binder: SELECT core ----------------------------------------------------------

const Binder::CteInfo* Binder::FindCte(std::string_view name) const {
  std::string key = ToLowerAscii(name);
  // Later CTEs shadow earlier ones of the same name.
  for (auto it = ctes_.rbegin(); it != ctes_.rend(); ++it) {
    if (it->key == key) return &*it;
  }
  return nullptr;
}

Result<PlanPtr> Binder::BindTableRef(const sql::TableRef& ref,
                                     Schema* schema_out) {
  if (ref.kind == sql::TableRef::Kind::kSubquery) {
    // Derived tables bind without outer visibility (no LATERAL).
    PDM_ASSIGN_OR_RETURN(PlanPtr plan, BindQueryExpr(*ref.subquery, nullptr));
    *schema_out = plan->schema;
    return plan;
  }
  if (const CteInfo* cte = FindCte(ref.table_name)) {
    auto node = std::make_unique<CteScanNode>();
    node->cte_name = cte->key;
    node->schema = cte->schema;
    *schema_out = cte->schema;
    return PlanPtr(std::move(node));
  }
  if (views_ != nullptr) {
    if (const sql::SelectStmt* view = views_->Find(ref.table_name)) {
      std::string key = ToLowerAscii(ref.table_name);
      for (const std::string& open : view_stack_) {
        if (open == key) {
          return Status::BindError("circular view definition involving '" +
                                   key + "'");
        }
      }
      if (!view->ctes.empty()) {
        return Status::NotImplemented(
            "views with WITH clauses are not supported");
      }
      view_stack_.push_back(key);
      Result<PlanPtr> plan = BindQueryExpr(view->query, nullptr);
      view_stack_.pop_back();
      if (!plan.ok()) {
        return plan.status().WithContext("while expanding view '" + key +
                                         "'");
      }
      *schema_out = (*plan)->schema;
      return plan;
    }
  }
  const Table* table = catalog_->FindTable(ref.table_name);
  if (table == nullptr) {
    return Status::BindError("unknown table '" + ref.table_name + "'");
  }
  auto node = std::make_unique<ScanNode>();
  node->table_name = table->name();
  node->schema = table->schema();
  *schema_out = table->schema();
  return PlanPtr(std::move(node));
}

Result<PlanPtr> Binder::BindSelectCore(const sql::SelectCore& core,
                                       const Scope* parent_scope) {
  Scope scope(parent_scope);

  // 1. Leaves: FROM tables in order (comma items and their JOIN chains).
  struct Leaf {
    PlanPtr plan;
    const sql::Expr* on_ast;  // nullptr for comma-joined leaves
    size_t prefix_cols;       // total columns once this leaf is joined
  };
  std::vector<Leaf> leaves;
  for (const sql::FromItem& item : core.from) {
    Schema schema;
    PDM_ASSIGN_OR_RETURN(PlanPtr plan, BindTableRef(item.ref, &schema));
    if (item.ref.kind == sql::TableRef::Kind::kSubquery &&
        item.ref.alias.empty()) {
      return Status::BindError("derived table requires an alias");
    }
    scope.AddTable(item.ref.EffectiveName(), schema);
    leaves.push_back(Leaf{std::move(plan), nullptr, scope.num_columns()});
    for (const sql::JoinClause& join : item.joins) {
      Schema join_schema;
      PDM_ASSIGN_OR_RETURN(PlanPtr jplan, BindTableRef(join.ref, &join_schema));
      scope.AddTable(join.ref.EffectiveName(), join_schema);
      leaves.push_back(
          Leaf{std::move(jplan), join.on.get(), scope.num_columns()});
    }
  }

  // 2. Bind ON predicates (against the full scope; validated to only
  //    touch columns available at their join prefix) and WHERE.
  std::vector<BoundExprPtr> on_preds(leaves.size());
  for (size_t k = 0; k < leaves.size(); ++k) {
    if (leaves[k].on_ast == nullptr) continue;
    PDM_ASSIGN_OR_RETURN(BoundExprPtr pred,
                         BindExpr(*leaves[k].on_ast, &scope));
    std::optional<size_t> max_index = MaxOwnRowIndex(*pred);
    if (max_index.has_value() && *max_index >= leaves[k].prefix_cols) {
      return Status::BindError(
          "ON clause references a table joined later in the FROM clause");
    }
    on_preds[k] = std::move(pred);
  }

  BoundExprPtr where;
  if (core.where != nullptr) {
    PDM_ASSIGN_OR_RETURN(where, BindExpr(*core.where, &scope));
  }

  // 3. Distribute WHERE conjuncts to the earliest join prefix covering
  //    their own-row columns (predicate pushdown), or keep them on top.
  std::vector<std::vector<BoundExprPtr>> prefix_preds(leaves.size());
  std::vector<BoundExprPtr> top_preds;
  if (where != nullptr) {
    if (options_.predicate_pushdown && !leaves.empty()) {
      for (BoundExprPtr& conjunct : SplitConjuncts(std::move(where))) {
        std::optional<size_t> max_index = MaxOwnRowIndex(*conjunct);
        if (!max_index.has_value()) {
          top_preds.push_back(std::move(conjunct));
          continue;
        }
        size_t target = leaves.size() - 1;
        for (size_t k = 0; k < leaves.size(); ++k) {
          if (*max_index < leaves[k].prefix_cols) {
            target = k;
            break;
          }
        }
        prefix_preds[target].push_back(std::move(conjunct));
      }
    } else {
      top_preds.push_back(std::move(where));
    }
  }

  // 4. Assemble the left-deep join tree.
  PlanPtr plan;
  if (!leaves.empty()) {
    plan = std::move(leaves[0].plan);
    BoundExprPtr first_filter = CombineConjuncts(std::move(prefix_preds[0]));
    if (first_filter != nullptr) {
      if (plan->kind == PlanKind::kScan) {
        auto* scan = static_cast<ScanNode*>(plan.get());
        scan->filter = scan->filter == nullptr
                           ? std::move(first_filter)
                           : std::make_unique<BoundBinary>(
                                 sql::BinaryOp::kAnd, std::move(scan->filter),
                                 std::move(first_filter));
      } else {
        auto filter = std::make_unique<FilterNode>();
        filter->schema = plan->schema;
        filter->predicate = std::move(first_filter);
        filter->child = std::move(plan);
        plan = std::move(filter);
      }
    }
    for (size_t k = 1; k < leaves.size(); ++k) {
      std::vector<BoundExprPtr> preds = SplitConjuncts(std::move(on_preds[k]));
      for (BoundExprPtr& p : prefix_preds[k]) preds.push_back(std::move(p));
      plan = MakeJoin(std::move(plan), std::move(leaves[k].plan),
                      std::move(preds), options_.use_index_join);
    }
  }

  if (!top_preds.empty()) {
    if (plan == nullptr) {
      // SELECT without FROM: constant predicate over the single empty row.
      auto project = std::make_unique<ProjectNode>();
      project->schema = Schema();
      plan = std::move(project);
    }
    auto filter = std::make_unique<FilterNode>();
    filter->schema = plan->schema;
    filter->predicate = CombineConjuncts(std::move(top_preds));
    filter->child = std::move(plan);
    plan = std::move(filter);
  }

  // 5. Aggregation or plain projection.
  bool has_aggregates = !core.group_by.empty();
  for (const sql::SelectItem& item : core.items) {
    if (item.expr != nullptr && HasAggregateCall(*item.expr)) {
      has_aggregates = true;
    }
  }
  if (core.having != nullptr) has_aggregates = true;

  if (has_aggregates) {
    PDM_ASSIGN_OR_RETURN(plan,
                         BindAggregateSelect(core, &scope, std::move(plan)));
  } else {
    auto project = std::make_unique<ProjectNode>();
    for (const sql::SelectItem& item : core.items) {
      if (item.is_star) {
        if (scope.tables().empty()) {
          return Status::BindError("'SELECT *' requires a FROM clause");
        }
        for (const Scope::TableBinding& t : scope.tables()) {
          if (!item.star_qualifier.empty() &&
              !EqualsIgnoreCase(t.name, item.star_qualifier)) {
            continue;
          }
          for (size_t i = 0; i < t.schema.num_columns(); ++i) {
            const Column& col = t.schema.column(i);
            project->exprs.push_back(std::make_unique<BoundColumnRef>(
                0, t.offset + i, col.type, t.name + "." + col.name));
            project->schema.AddColumn(col);
          }
        }
        if (!item.star_qualifier.empty() && project->exprs.empty()) {
          return Status::BindError("unknown table '" + item.star_qualifier +
                                   "' in '" + item.star_qualifier + ".*'");
        }
        continue;
      }
      ScopedValue<bool> named(&structural_literals_,
                              structural_literals_ || NamedByText(item));
      PDM_ASSIGN_OR_RETURN(BoundExprPtr bound, BindExpr(*item.expr, &scope));
      project->schema.AddColumn(
          Column{OutputColumnName(item), InferType(*bound)});
      project->exprs.push_back(std::move(bound));
    }
    project->child = std::move(plan);  // may be null: SELECT <constants>
    plan = std::move(project);
  }

  if (core.distinct) {
    auto distinct = std::make_unique<DistinctNode>();
    distinct->schema = plan->schema;
    distinct->child = std::move(plan);
    plan = std::move(distinct);
  }
  return plan;
}

Result<PlanPtr> Binder::BindAggregateSelect(const sql::SelectCore& core,
                                            Scope* scope, PlanPtr input) {
  if (input == nullptr) {
    return Status::BindError("aggregates require a FROM clause");
  }
  for (const sql::SelectItem& item : core.items) {
    if (item.is_star) {
      return Status::BindError("'*' cannot be combined with aggregation");
    }
  }

  auto agg_node = std::make_unique<AggregateNode>();
  AggContext ctx;

  // Group expressions.
  for (const ExprPtr& g : core.group_by) {
    PDM_ASSIGN_OR_RETURN(BoundExprPtr bound, BindExpr(*g, scope));
    agg_node->schema.AddColumn(Column{g->ToSql(), InferType(*bound)});
    agg_node->group_exprs.push_back(std::move(bound));
    ctx.group_sql.push_back(g->ToSql());
  }

  // Aggregate calls from SELECT list and HAVING, in slot order; a call
  // inside a text-named item is part of that name.
  std::vector<bool> call_named;
  for (const sql::SelectItem& item : core.items) {
    CollectAggCalls(*item.expr, &ctx.agg_calls);
    call_named.resize(ctx.agg_calls.size(), NamedByText(item));
  }
  if (core.having != nullptr) CollectAggCalls(*core.having, &ctx.agg_calls);
  call_named.resize(ctx.agg_calls.size(), false);

  for (size_t i = 0; i < ctx.agg_calls.size(); ++i) {
    const auto& call =
        static_cast<const sql::FunctionCallExpr&>(*ctx.agg_calls[i]);
    ScopedValue<bool> named(&structural_literals_,
                            structural_literals_ || call_named[i]);
    bool star = call.args.size() == 1 && call.args[0]->kind == ExprKind::kStar;
    AggKind kind = *LookupAggKind(call.name, star);
    BoundAggregate agg;
    agg.agg_kind = kind;
    agg.distinct = call.distinct;
    if (!star) {
      if (call.args.size() != 1) {
        return Status::BindError("aggregate " + call.name +
                                 " takes exactly one argument");
      }
      if (HasAggregateCall(*call.args[0])) {
        return Status::BindError("nested aggregate functions are not allowed");
      }
      PDM_ASSIGN_OR_RETURN(agg.arg, BindExpr(*call.args[0], scope));
    }
    ColumnType out_type;
    switch (kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        out_type = ColumnType::kInt64;
        break;
      case AggKind::kAvg:
        out_type = ColumnType::kDouble;
        break;
      default:
        out_type = agg.arg != nullptr ? InferType(*agg.arg)
                                      : ColumnType::kInt64;
        break;
    }
    agg_node->schema.AddColumn(Column{call.ToSql(), out_type});
    agg_node->aggregates.push_back(std::move(agg));
  }

  agg_node->child = std::move(input);

  // HAVING and the projection bind against the aggregate output.
  ctx.output = &agg_node->schema;
  ScopedValue<const AggContext*> after(&agg_context_, &ctx);
  if (core.having != nullptr) {
    PDM_ASSIGN_OR_RETURN(agg_node->having, BindExpr(*core.having, scope));
  }
  auto project = std::make_unique<ProjectNode>();
  for (const sql::SelectItem& item : core.items) {
    ScopedValue<bool> named(&structural_literals_,
                            structural_literals_ || NamedByText(item));
    PDM_ASSIGN_OR_RETURN(BoundExprPtr bound, BindExpr(*item.expr, scope));
    project->schema.AddColumn(Column{OutputColumnName(item), InferType(*bound)});
    project->exprs.push_back(std::move(bound));
  }
  project->child = std::move(agg_node);
  return PlanPtr(std::move(project));
}

// --- Binder: query expressions / CTEs -----------------------------------------------

Result<PlanPtr> Binder::BindQueryExpr(const sql::QueryExpr& query,
                                      const Scope* parent_scope) {
  if (query.terms.empty()) {
    return Status::Internal("query expression with no terms");
  }

  PDM_ASSIGN_OR_RETURN(PlanPtr plan,
                       BindSelectCore(query.terms[0], parent_scope));
  for (size_t i = 1; i < query.terms.size(); ++i) {
    PDM_ASSIGN_OR_RETURN(PlanPtr term,
                         BindSelectCore(query.terms[i], parent_scope));
    if (term->schema.num_columns() != plan->schema.num_columns()) {
      return Status::BindError(
          StrFormat("UNION branches have different column counts (%zu vs %zu)",
                    plan->schema.num_columns(), term->schema.num_columns()));
    }
    Schema merged;
    for (size_t c = 0; c < plan->schema.num_columns(); ++c) {
      merged.AddColumn(Column{
          plan->schema.column(c).name,
          MergeColumnTypes(plan->schema.column(c).type,
                           term->schema.column(c).type)});
    }
    auto union_node = std::make_unique<UnionNode>();
    union_node->schema = merged;
    union_node->children.push_back(std::move(plan));
    union_node->children.push_back(std::move(term));
    plan = std::move(union_node);
    if (!query.union_all[i - 1]) {
      auto distinct = std::make_unique<DistinctNode>();
      distinct->schema = plan->schema;
      distinct->child = std::move(plan);
      plan = std::move(distinct);
    }
  }

  if (!query.order_by.empty()) {
    auto sort = std::make_unique<SortNode>();
    sort->schema = plan->schema;
    for (const sql::OrderByItem& item : query.order_by) {
      SortKey key;
      key.descending = item.descending;
      if (item.position.has_value()) {
        int64_t pos = *item.position;
        if (pos < 1 || static_cast<size_t>(pos) > plan->schema.num_columns()) {
          return Status::BindError(
              StrFormat("ORDER BY position %lld out of range",
                        static_cast<long long>(pos)));
        }
        key.column = static_cast<size_t>(pos - 1);
      } else if (item.expr->kind == ExprKind::kColumnRef) {
        const auto& ref = static_cast<const sql::ColumnRefExpr&>(*item.expr);
        std::optional<size_t> idx = plan->schema.FindColumn(ref.column);
        if (!idx.has_value()) {
          return Status::BindError("ORDER BY column '" + ref.column +
                                   "' is not in the select list");
        }
        key.column = *idx;
      } else {
        return Status::NotImplemented(
            "ORDER BY supports output positions and column names only");
      }
      sort->keys.push_back(key);
    }
    sort->child = std::move(plan);
    plan = std::move(sort);
  }

  if (query.limit.has_value()) {
    auto limit = std::make_unique<LimitNode>();
    limit->schema = plan->schema;
    limit->limit = *query.limit;
    limit->child = std::move(plan);
    plan = std::move(limit);
  }
  return plan;
}

Result<BoundCte> Binder::BindCte(const sql::CommonTableExpr& cte,
                                 bool recursive_allowed) {
  BoundCte bound;
  bound.name = ToLowerAscii(cte.name);

  const sql::QueryExpr& query = *cte.query;
  if (!query.order_by.empty() || query.limit.has_value()) {
    return Status::NotImplemented(
        "ORDER BY / LIMIT inside a common table expression");
  }

  // Partition the UNION terms into seed and recursive terms.
  std::vector<const sql::SelectCore*> seed_terms;
  std::vector<const sql::SelectCore*> recursive_terms;
  bool any_union_distinct = false;
  for (size_t i = 0; i < query.terms.size(); ++i) {
    CteRefCounts counts = CountCteRefs(query.terms[i], cte.name);
    if (counts.in_from + counts.elsewhere == 0) {
      seed_terms.push_back(&query.terms[i]);
    } else {
      if (!recursive_allowed) {
        return Status::BindError("table '" + cte.name +
                                 "' referenced inside its own definition "
                                 "requires WITH RECURSIVE");
      }
      if (counts.in_from != 1 || counts.elsewhere != 0) {
        return Status::NotImplemented(
            "a recursive term must reference the CTE exactly once, in its "
            "top-level FROM clause");
      }
      recursive_terms.push_back(&query.terms[i]);
    }
    if (i > 0 && !query.union_all[i - 1]) any_union_distinct = true;
  }
  if (seed_terms.empty()) {
    return Status::BindError("recursive CTE '" + cte.name +
                             "' has no non-recursive seed term");
  }
  bound.recursive = !recursive_terms.empty();
  bound.union_all = !any_union_distinct && query.terms.size() > 1;
  if (query.terms.size() == 1) bound.union_all = false;

  // Bind the seed (union of seed terms; dedup handled by the executor).
  PDM_ASSIGN_OR_RETURN(PlanPtr seed, BindSelectCore(*seed_terms[0], nullptr));
  for (size_t i = 1; i < seed_terms.size(); ++i) {
    PDM_ASSIGN_OR_RETURN(PlanPtr term, BindSelectCore(*seed_terms[i], nullptr));
    if (term->schema.num_columns() != seed->schema.num_columns()) {
      return Status::BindError("CTE seed terms have different column counts");
    }
    auto union_node = std::make_unique<UnionNode>();
    union_node->schema = seed->schema;
    union_node->children.push_back(std::move(seed));
    union_node->children.push_back(std::move(term));
    seed = std::move(union_node);
  }

  // The CTE schema: seed columns renamed by the declared column list.
  Schema schema = seed->schema;
  if (!cte.column_names.empty()) {
    if (cte.column_names.size() != schema.num_columns()) {
      return Status::BindError(StrFormat(
          "CTE '%s' declares %zu column(s) but its query produces %zu",
          cte.name.c_str(), cte.column_names.size(), schema.num_columns()));
    }
    Schema renamed;
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      renamed.AddColumn(Column{cte.column_names[i], schema.column(i).type});
    }
    schema = renamed;
  }
  bound.schema = schema;
  bound.seed = std::move(seed);

  // Bind recursive terms with the CTE itself registered.
  if (bound.recursive) {
    ctes_.push_back(CteInfo{bound.name, bound.schema});
    for (const sql::SelectCore* term : recursive_terms) {
      PDM_ASSIGN_OR_RETURN(PlanPtr plan, BindSelectCore(*term, nullptr));
      if (plan->schema.num_columns() != bound.schema.num_columns()) {
        return Status::BindError(
            "recursive term column count does not match the CTE");
      }
      bound.recursive_terms.push_back(std::move(plan));
    }
    ctes_.pop_back();  // re-registered by the caller with final schema
  }
  return bound;
}

// --- Binder: statements ----------------------------------------------------------

Result<BoundSelect> Binder::BindSelect(const sql::SelectStmt& stmt) {
  BoundSelect bound;
  params_bound_.clear();
  for (const sql::CommonTableExpr& cte : stmt.ctes) {
    PDM_ASSIGN_OR_RETURN(BoundCte bcte, BindCte(cte, stmt.recursive));
    ctes_.push_back(CteInfo{bcte.name, bcte.schema});
    bound.ctes.push_back(std::move(bcte));
  }
  PDM_ASSIGN_OR_RETURN(bound.root, BindQueryExpr(stmt.query, nullptr));

  bound.params_bound = std::move(params_bound_);
  return bound;
}

Result<BoundInsert> Binder::BindInsert(const sql::InsertStmt& stmt) {
  const Table* table = catalog_->FindTable(stmt.table_name);
  if (table == nullptr) {
    return Status::BindError("unknown table '" + stmt.table_name + "'");
  }
  const Schema& schema = table->schema();

  // Map provided column order to schema order.
  std::vector<size_t> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_columns(); ++i) positions.push_back(i);
  } else {
    for (const std::string& name : stmt.columns) {
      std::optional<size_t> idx = schema.FindColumn(name);
      if (!idx.has_value()) {
        return Status::BindError("unknown column '" + name + "' in table '" +
                                 table->name() + "'");
      }
      positions.push_back(*idx);
    }
  }

  BoundInsert bound;
  bound.table_name = table->name();
  for (const std::vector<ExprPtr>& row : stmt.rows) {
    if (row.size() != positions.size()) {
      return Status::BindError(
          StrFormat("INSERT row has %zu value(s), expected %zu", row.size(),
                    positions.size()));
    }
    std::vector<BoundExprPtr> bound_row(schema.num_columns());
    for (size_t i = 0; i < row.size(); ++i) {
      PDM_ASSIGN_OR_RETURN(BoundExprPtr e, BindExpr(*row[i], nullptr));
      bound_row[positions[i]] = std::move(e);
    }
    for (BoundExprPtr& e : bound_row) {
      if (e == nullptr) e = std::make_unique<BoundLiteral>(Value::Null());
    }
    bound.rows.push_back(std::move(bound_row));
  }
  return bound;
}

Result<BoundUpdate> Binder::BindUpdate(const sql::UpdateStmt& stmt) {
  const Table* table = catalog_->FindTable(stmt.table_name);
  if (table == nullptr) {
    return Status::BindError("unknown table '" + stmt.table_name + "'");
  }
  Scope scope;
  scope.AddTable(table->name(), table->schema());

  BoundUpdate bound;
  bound.table_name = table->name();
  for (const auto& [col, expr] : stmt.assignments) {
    std::optional<size_t> idx = table->schema().FindColumn(col);
    if (!idx.has_value()) {
      return Status::BindError("unknown column '" + col + "' in table '" +
                               table->name() + "'");
    }
    PDM_ASSIGN_OR_RETURN(BoundExprPtr e, BindExpr(*expr, &scope));
    bound.assignments.emplace_back(*idx, std::move(e));
  }
  if (stmt.where != nullptr) {
    PDM_ASSIGN_OR_RETURN(bound.predicate, BindExpr(*stmt.where, &scope));
  }
  return bound;
}

Result<BoundDelete> Binder::BindDelete(const sql::DeleteStmt& stmt) {
  const Table* table = catalog_->FindTable(stmt.table_name);
  if (table == nullptr) {
    return Status::BindError("unknown table '" + stmt.table_name + "'");
  }
  Scope scope;
  scope.AddTable(table->name(), table->schema());

  BoundDelete bound;
  bound.table_name = table->name();
  if (stmt.where != nullptr) {
    PDM_ASSIGN_OR_RETURN(bound.predicate, BindExpr(*stmt.where, &scope));
  }
  return bound;
}

}  // namespace pdm
