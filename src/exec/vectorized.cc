#include "exec/vectorized.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/table.h"
#include "common/string_util.h"
#include "exec/expr_eval.h"
#include "exec/result_set.h"
#include "exec/vec_batch.h"

namespace pdm {

namespace {

// The row engine's non-boolean error message depends on the operator
// consuming the value; the tri-state evaluator threads the right one
// through so both engines fail identically.
constexpr const char* kNonBoolLogic = "boolean operator on non-boolean value";
constexpr const char* kNonBoolNot = "NOT on non-boolean value";
constexpr const char* kNonBoolPredicate =
    "predicate did not evaluate to a boolean";

// ---------------------------------------------------------------------------
// Plan gate
// ---------------------------------------------------------------------------

/// True when an equality scan belongs to the row engine's index path:
/// some equality column already has a fresh index, or its demand
/// history says the lazy build is about to amortize (second sighting
/// onward). A first-touch point filter on a never-indexed column sweeps
/// batchwise instead — the vectorized full pass costs no more than the
/// full pass the lazy index build would do, and an index nobody asks
/// for twice is never built.
bool RouteScanToRowIndexPath(const ScanNode& scan, const Table& table,
                             const ExecContext& ctx) {
  if (scan.filter == nullptr) return false;
  std::vector<IndexCandidate> found;
  CollectIndexCandidates(*scan.filter, ctx, &found);
  const size_t num_columns = table.schema().num_columns();
  for (const IndexCandidate& c : found) {
    if (c.column < num_columns && table.HasFreshIndex(c.column)) return true;
  }
  bool repeat = false;
  for (const IndexCandidate& c : found) {
    if (c.column < num_columns && table.NoteIndexDemand(c.column) > 0) {
      repeat = true;
    }
  }
  return repeat;
}

/// Whitelist of expressions the batch evaluator reproduces exactly.
/// Tracks the widest level-0 column index so the caller can bounds-check
/// against the table schema before committing to the vectorized path.
bool CanVectorizeExpr(const BoundExpr& expr, size_t* max_col) {
  switch (expr.kind) {
    case BoundExprKind::kLiteral:
      return true;
    case BoundExprKind::kColumnRef: {
      const auto& ref = static_cast<const BoundColumnRef&>(expr);
      if (ref.level != 0) return false;  // correlated: row path only
      *max_col = std::max(*max_col, ref.index);
      return true;
    }
    case BoundExprKind::kInList:
      // Expression items have per-row, per-item short-circuit order;
      // only the binder's precomputed literal-set form maps onto a
      // batch without re-deriving that order.
      if (!static_cast<const BoundInList&>(expr).use_literal_set) return false;
      break;
    case BoundExprKind::kUnary:
    case BoundExprKind::kBinary:
    case BoundExprKind::kCast:
    case BoundExprKind::kIsNull:
    case BoundExprKind::kBetween:
    case BoundExprKind::kLike:
      break;
    case BoundExprKind::kFunctionCall:  // opaque scalar function
    case BoundExprKind::kCase:          // per-row WHEN short-circuit
    case BoundExprKind::kSubquery:      // needs the row-path machinery
      return false;
  }
  bool ok = true;
  ForEachChild(expr, [&](const BoundExprPtr& c) {
    ok = ok && CanVectorizeExpr(*c, max_col);
  });
  return ok;
}

/// True when `expr` reads no column: its value is the same for every
/// row of an execution, so a batch evaluates it once.
bool IsConstantExpr(const BoundExpr& expr) {
  if (expr.kind == BoundExprKind::kColumnRef) return false;
  bool constant = true;
  ForEachChild(expr, [&](const BoundExprPtr& c) {
    constant = constant && IsConstantExpr(*c);
  });
  return constant;
}

// ---------------------------------------------------------------------------
// Dense tier: expression -> one Value per selected slot
// ---------------------------------------------------------------------------

Status EvalDense(const BoundExpr& expr, ExecContext* ctx,
                 const FragmentSpan& span, const uint32_t* rows, size_t n,
                 std::vector<Value>* out);

/// AND/OR with the row engine's short-circuit: the rhs is evaluated only
/// for slots the lhs did not already decide (bool FALSE for AND, bool
/// TRUE for OR) — so an rhs that would error on a short-circuited slot
/// stays silent, exactly as on the row path.
Status EvalDenseLogic(const BoundBinary& e, ExecContext* ctx,
                      const FragmentSpan& span, const uint32_t* rows, size_t n,
                      std::vector<Value>* out) {
  const bool is_and = e.op == sql::BinaryOp::kAnd;
  std::vector<Value> lhs;
  PDM_RETURN_NOT_OK(EvalDense(*e.lhs, ctx, span, rows, n, &lhs));
  std::vector<uint32_t> rest_rows;
  std::vector<size_t> rest_idx;
  for (size_t i = 0; i < n; ++i) {
    if (lhs[i].is_bool() && lhs[i].bool_value() != is_and) continue;
    rest_rows.push_back(rows[i]);
    rest_idx.push_back(i);
  }
  std::vector<Value> rhs;
  if (!rest_rows.empty()) {
    PDM_RETURN_NOT_OK(
        EvalDense(*e.rhs, ctx, span, rest_rows.data(), rest_rows.size(), &rhs));
  }
  out->resize(n);
  for (size_t i = 0; i < n; ++i) (*out)[i] = Value::Bool(!is_and);
  for (size_t j = 0; j < rest_idx.size(); ++j) {
    Result<Value> v = SqlLogicValues(e.op, lhs[rest_idx[j]], rhs[j]);
    if (!v.ok()) return v.status();
    (*out)[rest_idx[j]] = std::move(v).value();
  }
  return Status::OK();
}

Status EvalDense(const BoundExpr& expr, ExecContext* ctx,
                 const FragmentSpan& span, const uint32_t* rows, size_t n,
                 std::vector<Value>* out) {
  switch (expr.kind) {
    case BoundExprKind::kLiteral: {
      const Value& v =
          ctx->LiteralValue(static_cast<const BoundLiteral&>(expr));
      out->resize(n);
      for (size_t i = 0; i < n; ++i) (*out)[i] = v;
      return Status::OK();
    }
    case BoundExprKind::kColumnRef: {
      const auto& ref = static_cast<const BoundColumnRef&>(expr);
      const ColumnFragment& col = span.fragment->cols[ref.index];
      out->resize(n);  // no clear: LoadInto recycles string capacity
      for (size_t i = 0; i < n; ++i) col.LoadInto(rows[i], &(*out)[i]);
      return Status::OK();
    }
    case BoundExprKind::kUnary: {
      const auto& e = static_cast<const BoundUnary&>(expr);
      std::vector<Value> v;
      PDM_RETURN_NOT_OK(EvalDense(*e.operand, ctx, span, rows, n, &v));
      out->resize(n);
      for (size_t i = 0; i < n; ++i) {
        if (v[i].is_null()) {
          (*out)[i] = Value::Null();
        } else if (e.op == sql::UnaryOp::kNot) {
          if (!v[i].is_bool()) return Status::ExecutionError(kNonBoolNot);
          (*out)[i] = Value::Bool(!v[i].bool_value());
        } else if (v[i].is_int64()) {
          (*out)[i] = Value::Int64(-v[i].int64_value());
        } else if (v[i].is_double()) {
          (*out)[i] = Value::Double(-v[i].double_value());
        } else {
          return Status::ExecutionError("unary minus on non-numeric value");
        }
      }
      return Status::OK();
    }
    case BoundExprKind::kBinary: {
      const auto& e = static_cast<const BoundBinary&>(expr);
      if (e.op == sql::BinaryOp::kAnd || e.op == sql::BinaryOp::kOr) {
        return EvalDenseLogic(e, ctx, span, rows, n, out);
      }
      std::vector<Value> a;
      std::vector<Value> b;
      PDM_RETURN_NOT_OK(EvalDense(*e.lhs, ctx, span, rows, n, &a));
      PDM_RETURN_NOT_OK(EvalDense(*e.rhs, ctx, span, rows, n, &b));
      const bool compare = e.op == sql::BinaryOp::kEq ||
                           e.op == sql::BinaryOp::kNotEq ||
                           e.op == sql::BinaryOp::kLess ||
                           e.op == sql::BinaryOp::kLessEq ||
                           e.op == sql::BinaryOp::kGreater ||
                           e.op == sql::BinaryOp::kGreaterEq;
      out->resize(n);
      for (size_t i = 0; i < n; ++i) {
        Result<Value> v = compare ? SqlCompareValues(e.op, a[i], b[i])
                                  : SqlArithmeticValues(e.op, a[i], b[i]);
        if (!v.ok()) return v.status();
        (*out)[i] = std::move(v).value();
      }
      return Status::OK();
    }
    case BoundExprKind::kCast: {
      const auto& e = static_cast<const BoundCast&>(expr);
      std::vector<Value> v;
      PDM_RETURN_NOT_OK(EvalDense(*e.operand, ctx, span, rows, n, &v));
      out->resize(n);
      for (size_t i = 0; i < n; ++i) {
        Result<Value> c = CastValue(v[i], e.target_type);
        if (!c.ok()) return c.status();
        (*out)[i] = std::move(c).value();
      }
      return Status::OK();
    }
    case BoundExprKind::kIsNull: {
      const auto& e = static_cast<const BoundIsNull&>(expr);
      std::vector<Value> v;
      PDM_RETURN_NOT_OK(EvalDense(*e.operand, ctx, span, rows, n, &v));
      out->resize(n);
      for (size_t i = 0; i < n; ++i) {
        (*out)[i] = Value::Bool(e.negated ? !v[i].is_null() : v[i].is_null());
      }
      return Status::OK();
    }
    case BoundExprKind::kInList: {
      const auto& e = static_cast<const BoundInList&>(expr);
      std::vector<Value> needle;
      PDM_RETURN_NOT_OK(EvalDense(*e.operand, ctx, span, rows, n, &needle));
      const InSet& set = ctx->InListValues(e);
      out->resize(n);
      for (size_t i = 0; i < n; ++i) {
        (*out)[i] = needle[i].is_null() ? Value::Null()
                                        : set.Probe(needle[i], e.negated);
      }
      return Status::OK();
    }
    case BoundExprKind::kBetween: {
      const auto& e = static_cast<const BoundBetween&>(expr);
      std::vector<Value> v;
      std::vector<Value> lo;
      std::vector<Value> hi;
      PDM_RETURN_NOT_OK(EvalDense(*e.operand, ctx, span, rows, n, &v));
      PDM_RETURN_NOT_OK(EvalDense(*e.low, ctx, span, rows, n, &lo));
      PDM_RETURN_NOT_OK(EvalDense(*e.high, ctx, span, rows, n, &hi));
      out->resize(n);
      for (size_t i = 0; i < n; ++i) {
        Result<Value> ge =
            SqlCompareValues(sql::BinaryOp::kGreaterEq, v[i], lo[i]);
        if (!ge.ok()) return ge.status();
        Result<Value> le =
            SqlCompareValues(sql::BinaryOp::kLessEq, v[i], hi[i]);
        if (!le.ok()) return le.status();
        Result<Value> both =
            SqlLogicValues(sql::BinaryOp::kAnd, ge.value(), le.value());
        if (!both.ok()) return both.status();
        Value b = std::move(both).value();
        if (e.negated && !b.is_null()) b = Value::Bool(!b.bool_value());
        (*out)[i] = std::move(b);
      }
      return Status::OK();
    }
    case BoundExprKind::kLike: {
      const auto& e = static_cast<const BoundLike&>(expr);
      std::vector<Value> text;
      std::vector<Value> pattern;
      PDM_RETURN_NOT_OK(EvalDense(*e.operand, ctx, span, rows, n, &text));
      PDM_RETURN_NOT_OK(EvalDense(*e.pattern, ctx, span, rows, n, &pattern));
      out->resize(n);
      for (size_t i = 0; i < n; ++i) {
        if (text[i].is_null() || pattern[i].is_null()) {
          (*out)[i] = Value::Null();
          continue;
        }
        if (!text[i].is_string() || !pattern[i].is_string()) {
          return Status::ExecutionError("LIKE requires string operands");
        }
        const bool match =
            SqlLikeMatch(text[i].string_value(), pattern[i].string_value());
        (*out)[i] = Value::Bool(e.negated ? !match : match);
      }
      return Status::OK();
    }
    case BoundExprKind::kFunctionCall:
    case BoundExprKind::kCase:
    case BoundExprKind::kSubquery:
      break;  // rejected by CanVectorizeExpr
  }
  return Status::Internal("expression kind not vectorizable");
}

// ---------------------------------------------------------------------------
// Tri tier: predicate -> {TRUE=1, FALSE=0, NULL=-1} per selected slot
// ---------------------------------------------------------------------------

using TriVec = std::vector<int8_t>;

Status EvalTri(const BoundExpr& expr, ExecContext* ctx,
               const FragmentSpan& span, const uint32_t* rows, size_t n,
               const char* nonbool_error, TriVec* out);

/// tri := cell <op> literal (or flipped), straight off the column
/// arrays: no Value is constructed for any cell. Mirrors
/// SqlCompareValues exactly — NULL on a NULL side, error on incomparable
/// non-NULL kinds, exact int64 compare, mixed numerics via double.
Status CompareColumnLiteral(sql::BinaryOp op, const ColumnSpan& col,
                            const Value& lit, bool lit_on_left,
                            const uint32_t* rows, size_t n, TriVec* out) {
  out->resize(n);
  if (lit.is_null()) {
    std::fill(out->begin(), out->end(), int8_t{-1});
    return Status::OK();
  }
  const ValueKind lk = lit.kind();
  const bool lit_numeric = lit.is_numeric();
  const int64_t li = lit.is_int64() ? lit.int64_value() : 0;
  const double ld = lit_numeric ? lit.AsDouble() : 0.0;
  const std::string* ls = lit.is_string() ? &lit.string_value() : nullptr;
  const int lb = lit.is_bool() ? (lit.bool_value() ? 1 : 0) : 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t slot = rows[i];
    const ValueKind ck = static_cast<ValueKind>(col.kinds[slot]);
    if (ck == ValueKind::kNull) {
      (*out)[i] = -1;
      continue;
    }
    int c;  // sign of (cell - literal)
    if (ck == ValueKind::kInt64 && lk == ValueKind::kInt64) {
      const int64_t x = static_cast<int64_t>(col.fixed[slot]);
      c = x < li ? -1 : (x > li ? 1 : 0);
    } else if ((ck == ValueKind::kInt64 || ck == ValueKind::kDouble) &&
               lit_numeric) {
      const double x =
          ck == ValueKind::kInt64
              ? static_cast<double>(static_cast<int64_t>(col.fixed[slot]))
              : BitsToDouble(col.fixed[slot]);
      c = x < ld ? -1 : (x > ld ? 1 : 0);
    } else if (ck == ValueKind::kString && lk == ValueKind::kString) {
      const int r = col.strs[slot].compare(*ls);
      c = r < 0 ? -1 : (r > 0 ? 1 : 0);
    } else if (ck == ValueKind::kBool && lk == ValueKind::kBool) {
      c = (col.fixed[slot] != 0 ? 1 : 0) - lb;
    } else {
      const std::string cn(ValueKindName(ck));
      const std::string ln(ValueKindName(lk));
      return Status::ExecutionError(StrFormat(
          "cannot compare %s with %s", lit_on_left ? ln.c_str() : cn.c_str(),
          lit_on_left ? cn.c_str() : ln.c_str()));
    }
    if (lit_on_left) c = -c;
    bool t;
    switch (op) {
      case sql::BinaryOp::kEq:
        t = c == 0;
        break;
      case sql::BinaryOp::kNotEq:
        t = c != 0;
        break;
      case sql::BinaryOp::kLess:
        t = c < 0;
        break;
      case sql::BinaryOp::kLessEq:
        t = c <= 0;
        break;
      case sql::BinaryOp::kGreater:
        t = c > 0;
        break;
      case sql::BinaryOp::kGreaterEq:
        t = c >= 0;
        break;
      default:
        return Status::Internal("not a comparison operator");
    }
    (*out)[i] = t ? 1 : 0;
  }
  return Status::OK();
}

/// Kleene AND/OR with row-engine short-circuit at batch granularity: the
/// rhs runs only over slots the lhs left undecided.
Status EvalTriLogic(const BoundBinary& e, ExecContext* ctx,
                    const FragmentSpan& span, const uint32_t* rows, size_t n,
                    TriVec* out) {
  const bool is_and = e.op == sql::BinaryOp::kAnd;
  const int8_t decided = is_and ? 0 : 1;
  TriVec lhs;
  PDM_RETURN_NOT_OK(EvalTri(*e.lhs, ctx, span, rows, n, kNonBoolLogic, &lhs));
  std::vector<uint32_t> rest_rows;
  std::vector<size_t> rest_idx;
  for (size_t i = 0; i < n; ++i) {
    if (lhs[i] == decided) continue;
    rest_rows.push_back(rows[i]);
    rest_idx.push_back(i);
  }
  TriVec rhs;
  if (!rest_rows.empty()) {
    PDM_RETURN_NOT_OK(EvalTri(*e.rhs, ctx, span, rest_rows.data(),
                              rest_rows.size(), kNonBoolLogic, &rhs));
  }
  out->resize(n);
  std::fill(out->begin(), out->end(), decided);
  for (size_t j = 0; j < rest_idx.size(); ++j) {
    const int8_t l = lhs[rest_idx[j]];
    const int8_t r = rhs[j];
    int8_t v;
    if (is_and) {
      v = r == 0 ? 0 : ((l == 1 && r == 1) ? 1 : int8_t{-1});
    } else {
      v = r == 1 ? 1 : ((l == 0 && r == 0) ? 0 : int8_t{-1});
    }
    (*out)[rest_idx[j]] = v;
  }
  return Status::OK();
}

Status EvalTri(const BoundExpr& expr, ExecContext* ctx,
               const FragmentSpan& span, const uint32_t* rows, size_t n,
               const char* nonbool_error, TriVec* out) {
  switch (expr.kind) {
    case BoundExprKind::kBinary: {
      const auto& e = static_cast<const BoundBinary&>(expr);
      if (e.op == sql::BinaryOp::kAnd || e.op == sql::BinaryOp::kOr) {
        return EvalTriLogic(e, ctx, span, rows, n, out);
      }
      const bool compare = e.op == sql::BinaryOp::kEq ||
                           e.op == sql::BinaryOp::kNotEq ||
                           e.op == sql::BinaryOp::kLess ||
                           e.op == sql::BinaryOp::kLessEq ||
                           e.op == sql::BinaryOp::kGreater ||
                           e.op == sql::BinaryOp::kGreaterEq;
      if (compare) {
        const BoundExpr* l = e.lhs.get();
        const BoundExpr* r = e.rhs.get();
        if (l->kind == BoundExprKind::kColumnRef &&
            r->kind == BoundExprKind::kLiteral) {
          const auto& ref = static_cast<const BoundColumnRef&>(*l);
          return CompareColumnLiteral(
              e.op, span.column(ref.index),
              ctx->LiteralValue(static_cast<const BoundLiteral&>(*r)),
              /*lit_on_left=*/false, rows, n, out);
        }
        if (l->kind == BoundExprKind::kLiteral &&
            r->kind == BoundExprKind::kColumnRef) {
          const auto& ref = static_cast<const BoundColumnRef&>(*r);
          return CompareColumnLiteral(
              e.op, span.column(ref.index),
              ctx->LiteralValue(static_cast<const BoundLiteral&>(*l)),
              /*lit_on_left=*/true, rows, n, out);
        }
        std::vector<Value> a;
        std::vector<Value> b;
        PDM_RETURN_NOT_OK(EvalDense(*e.lhs, ctx, span, rows, n, &a));
        PDM_RETURN_NOT_OK(EvalDense(*e.rhs, ctx, span, rows, n, &b));
        out->resize(n);
        for (size_t i = 0; i < n; ++i) {
          Result<Value> v = SqlCompareValues(e.op, a[i], b[i]);
          if (!v.ok()) return v.status();
          const Value& c = v.value();
          (*out)[i] = c.is_null() ? int8_t{-1} : (c.bool_value() ? 1 : 0);
        }
        return Status::OK();
      }
      break;  // arithmetic result as a predicate: generic conversion
    }
    case BoundExprKind::kUnary: {
      const auto& e = static_cast<const BoundUnary&>(expr);
      if (e.op == sql::UnaryOp::kNot) {
        PDM_RETURN_NOT_OK(
            EvalTri(*e.operand, ctx, span, rows, n, kNonBoolNot, out));
        for (int8_t& t : *out) {
          if (t != -1) t = t == 1 ? 0 : 1;
        }
        return Status::OK();
      }
      break;
    }
    case BoundExprKind::kIsNull: {
      const auto& e = static_cast<const BoundIsNull&>(expr);
      out->resize(n);
      if (e.operand->kind == BoundExprKind::kColumnRef) {
        // Null-ness straight from the kind tags; never NULL-valued.
        const auto& ref = static_cast<const BoundColumnRef&>(*e.operand);
        const ColumnSpan col = span.column(ref.index);
        for (size_t i = 0; i < n; ++i) {
          const bool isnull = static_cast<ValueKind>(col.kinds[rows[i]]) ==
                              ValueKind::kNull;
          (*out)[i] = (e.negated ? !isnull : isnull) ? 1 : 0;
        }
        return Status::OK();
      }
      std::vector<Value> v;
      PDM_RETURN_NOT_OK(EvalDense(*e.operand, ctx, span, rows, n, &v));
      for (size_t i = 0; i < n; ++i) {
        (*out)[i] = (e.negated ? !v[i].is_null() : v[i].is_null()) ? 1 : 0;
      }
      return Status::OK();
    }
    default:
      break;
  }
  // Generic tier: dense-evaluate, then convert with the consuming
  // operator's non-boolean error so failures match the row engine.
  std::vector<Value> vals;
  PDM_RETURN_NOT_OK(EvalDense(expr, ctx, span, rows, n, &vals));
  out->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Value& v = vals[i];
    if (v.is_null()) {
      (*out)[i] = -1;
    } else if (v.is_bool()) {
      (*out)[i] = v.bool_value() ? 1 : 0;
    } else {
      return Status::ExecutionError(nonbool_error);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// VecSource: the batch producer under the bridge leaf
// ---------------------------------------------------------------------------

/// A vec-coverable `Project? -> Filter* -> Scan` chain: the shape the
/// bridge leaf consumes batches from. `filters` are in the row
/// engine's application order and reference table columns (they sit
/// below the projection); `max_col` is the widest level-0 column any
/// filter or projected expression references (bounds-checked against
/// the table schema on resolve). A non-empty `project` is the peeled
/// projection: output column c loads table column out_cols[c] straight
/// off the fragment when project[c] is a bare column reference, and is
/// an expression evaluated densely per batch (out_cols[c] == kComputed)
/// otherwise. Empty means identity.
struct VecSourceSpec {
  static constexpr size_t kComputed = std::numeric_limits<size_t>::max();

  const ScanNode* scan = nullptr;
  std::vector<const BoundExpr*> filters;
  size_t max_col = 0;
  std::vector<const BoundExpr*> project;
  std::vector<size_t> out_cols;
  const ColumnMask* project_live = nullptr;  // the Project's live outputs

  size_t Width(const Table& table) const {
    return out_cols.empty() ? table.schema().num_columns() : out_cols.size();
  }
};

/// Peels `Project? -> Filter* -> Scan` and gates every projected and
/// filter expression through the vectorizable-expression whitelist;
/// false on any other shape.
bool MatchVecSource(const PlanNode& plan, VecSourceSpec* out) {
  const PlanNode* node = &plan;
  if (node->kind == PlanKind::kProject) {
    const auto& project = static_cast<const ProjectNode&>(*node);
    if (project.child == nullptr || project.exprs.empty()) return false;
    out->project.reserve(project.exprs.size());
    out->out_cols.reserve(project.exprs.size());
    for (const BoundExprPtr& e : project.exprs) {
      if (!CanVectorizeExpr(*e, &out->max_col)) return false;
      out->project.push_back(e.get());
      out->out_cols.push_back(
          e->kind == BoundExprKind::kColumnRef
              ? static_cast<const BoundColumnRef&>(*e).index
              : VecSourceSpec::kComputed);
    }
    out->project_live = &project.live;
    node = project.child.get();
  }
  std::vector<const BoundExpr*> outer_first;
  while (node->kind == PlanKind::kFilter) {
    const auto& filter = static_cast<const FilterNode&>(*node);
    outer_first.push_back(filter.predicate.get());
    node = filter.child.get();
  }
  if (node->kind != PlanKind::kScan) return false;
  out->scan = static_cast<const ScanNode*>(node);
  if (out->scan->filter != nullptr) {
    out->filters.push_back(out->scan->filter.get());
  }
  out->filters.insert(out->filters.end(), outer_first.rbegin(),
                      outer_first.rend());
  for (const BoundExpr* f : out->filters) {
    if (!CanVectorizeExpr(*f, &out->max_col)) return false;
  }
  return true;
}

/// Resolves the source's base table, applying the bounds check and the
/// row-index routing rule. nullptr = run this source (and whatever sits
/// on top of it) on the row path.
const Table* ResolveVecSource(const VecSourceSpec& spec, ExecContext* ctx) {
  Result<Table*> table_or = ctx->catalog()->GetTable(spec.scan->table_name);
  if (!table_or.ok()) return nullptr;  // row path reports the same error
  const Table* table = table_or.value();
  if (spec.max_col >= table->schema().num_columns()) {
    return nullptr;  // defensive: let the row path surface the binder bug
  }
  if (RouteScanToRowIndexPath(*spec.scan, *table, *ctx)) return nullptr;
  return table;
}

/// Loads slot `slot` of `span` as the table row ScanExecutor
/// materializes for `spec`'s scan: its live columns (which cover every
/// filter and projection of the chain), reusing *row's capacity.
void LoadTableRow(const VecSourceSpec& spec, const FragmentSpan& span,
                  uint32_t slot, Row* row) {
  row->resize(span.fragment->cols.size());
  span.fragment->LoadRow(slot, spec.scan->live, row->data());
}

/// Streams the filtered batches of a resolved VecSource: per batch a
/// vectorized MVCC pass fills the selection vector, the filters shrink
/// it, and only non-empty survivors come back. Charges rows_scanned and
/// vec_rows_scanned per visible version. The batch engine's only table
/// scan: like ScanExecutor::Open it fixes the scan bound (the published
/// version count) once, so a version published mid-scan stays unseen.
///
/// A batch is a window of one fragment's slots. Windows start at one
/// slot and double with every batch up to a whole fragment, so a parent
/// that stops after a few rows (LIMIT) makes the scan visit, filter and
/// project about as many slots as it takes, while a full scan splits
/// only its first fragment (into about log2(1024) batches).
///
/// A filter that fails column-at-a-time may have met a later row's
/// error first, or one the row engine never reaches because its parent
/// stops pulling. That batch is filtered row-major instead (FilterRows),
/// and the error is returned by the next NextBatch call, after the
/// consumer has taken the rows before the failing one.
class VecSourceCursor {
 public:
  VecSourceCursor(const VecSourceSpec* spec, const Table* table,
                  ExecContext* ctx)
      : spec_(spec), table_(table), ctx_(ctx) {
    bound_ = table_->num_versions();
    frags_ = (bound_ + kFragmentRows - 1) >> kFragmentShift;
  }

  Result<bool> NextBatch(VecBatch* batch) {
    if (!pending_.ok()) return pending_;
    ExecStats& stats = ctx_->stats();
    const std::vector<const BoundExpr*>& filters = spec_->filters;
    while (frag_ < frags_) {
      if (begin_ == 0) {
        span_ = table_->FragmentAt(frag_, bound_);
        stats.vec_batches++;
      }
      const size_t end = std::min(span_.rows, begin_ + window_);
      batch->span = span_;
      batch->FillVisible(ctx_->snapshot_ts(), begin_, end);
      window_ = std::min(2 * window_, kFragmentRows);
      begin_ = end;
      if (begin_ == span_.rows) {
        ++frag_;
        begin_ = 0;
      }
      stats.rows_scanned += batch->sel.size();
      stats.vec_rows_scanned += batch->sel.size();
      for (size_t f = 0; f < filters.size() && !batch->sel.empty(); ++f) {
        if (!EvalTri(*filters[f], ctx_, batch->span, batch->sel.data(),
                     batch->sel.size(), kNonBoolPredicate, &tri_)
                 .ok()) {
          FilterRows(f, batch);
          break;
        }
        survivors_.clear();
        for (size_t i = 0; i < batch->sel.size(); ++i) {
          if (tri_[i] == 1) survivors_.push_back(batch->sel[i]);
        }
        batch->sel.swap(survivors_);
      }
      if (!batch->sel.empty()) return true;
      if (!pending_.ok()) return pending_;
    }
    return false;
  }

 private:
  /// The row engine's filtering of the batch's selection from filter
  /// `first` on: each slot, in order, runs the filters through
  /// EvaluatePredicate in the row chain's order. The filters before
  /// `first` already ran error-free over every slot, so their verdicts
  /// stand. Stops at the first error, keeping the rows before it and
  /// holding the error back in `pending_`.
  void FilterRows(size_t first, VecBatch* batch) {
    size_t kept = 0;
    for (uint32_t slot : batch->sel) {
      LoadTableRow(*spec_, batch->span, slot, &row_);
      bool pass = true;
      for (size_t f = first; pass && f < spec_->filters.size(); ++f) {
        Result<bool> verdict =
            EvaluatePredicate(*spec_->filters[f], row_, ctx_);
        if (!verdict.ok()) {
          pending_ = verdict.status();
          batch->sel.resize(kept);
          return;
        }
        pass = *verdict;
      }
      if (pass) batch->sel[kept++] = slot;
    }
    batch->sel.resize(kept);
  }

  const VecSourceSpec* spec_;
  const Table* table_;
  ExecContext* ctx_;
  size_t bound_ = 0;
  size_t frags_ = 0;
  size_t frag_ = 0;    // fragment of the next window
  FragmentSpan span_;  // that fragment, once opened
  size_t begin_ = 0;   // the window's first slot; 0 = open the fragment
  size_t window_ = 1;  // slots in the next window
  TriVec tri_;
  std::vector<uint32_t> survivors_;
  Row row_;         // FilterRows' table row
  Status pending_;  // a filter error held back until the rows before it
};

/// Late materialization of a VecSource's output rows for the bridge
/// leaf. Per batch, each computed output column is evaluated once with
/// EvalDense over the surviving slots (a constant one, such as the
/// query-all's `''` and `CAST(NULL AS ...)` fillers, over one slot);
/// each row then loads its table columns straight off the fragment and
/// takes its computed cells from those vectors. A batch whose dense
/// evaluation fails is emitted row-major instead, through the row
/// evaluator: column-at-a-time evaluation may meet a later row's error
/// before an earlier row's, or one the row engine never reaches because
/// its parent stops pulling, so the error is returned only at the row
/// where the row engine's projection fails. A batch of one survivor
/// (the cursor's first window, or a selective filter's) is emitted
/// row-major too: on one row the row evaluator costs less than
/// EvalDense's per-call vectors.
class VecProjection {
 public:
  VecProjection(const VecSourceSpec* spec, const Table* table,
                ExecContext* ctx)
      : spec_(spec),
        table_(table),
        ctx_(ctx),
        width_(spec->Width(*table)),
        vals_(spec->project.size()) {
    for (size_t c = 0; c < spec->project.size(); ++c) {
      if (spec->out_cols[c] != VecSourceSpec::kComputed) continue;
      computed_.push_back({c, IsConstantExpr(*spec->project[c])});
    }
  }

  /// Evaluates the computed columns over the survivors of `batch`
  /// (non-empty, so a constant that fails to evaluate fails only when
  /// some row reaches the projection, as on the row path); on failure,
  /// or for a lone survivor, the batch's rows are emitted row-major.
  void Evaluate(const VecBatch& batch) {
    row_major_ = !computed_.empty() && batch.sel.size() == 1;
    if (row_major_) return;
    for (const Computed& c : computed_) {
      const size_t n = c.constant ? 1 : batch.sel.size();
      if (!EvalDense(*spec_->project[c.column], ctx_, batch.span,
                     batch.sel.data(), n, &vals_[c.column])
               .ok()) {
        row_major_ = true;
        return;
      }
    }
  }

  /// Materializes survivor `i` of the evaluated batch into *row, reusing
  /// its capacity, with the live columns only (DESIGN.md 5o); fails
  /// only in row-major mode, with the row engine's error for this row.
  Status Emit(const VecBatch& batch, size_t i, Row* row) {
    const uint32_t slot = batch.sel[i];
    if (row_major_) return EmitRowMajor(batch, slot, row);
    if (spec_->project.empty()) {
      LoadTableRow(*spec_, batch.span, slot, row);
      return Status::OK();
    }
    row->resize(width_);
    for (size_t c = 0; c < width_; ++c) {
      const size_t col = spec_->out_cols[c];
      if (col != VecSourceSpec::kComputed) {
        if (IsLive(*spec_->project_live, c)) {
          batch.span.fragment->cols[col].LoadInto(slot, &(*row)[c]);
        } else {
          (*row)[c].SetNull();
        }
      } else if (vals_[c].size() == 1) {
        (*row)[c] = vals_[c][0];  // constant: one cell for the batch
      } else {
        (*row)[c] = std::move(vals_[c][i]);
      }
    }
    return Status::OK();
  }

 private:
  /// ProjectExecutor's evaluation of one row: every projected expression
  /// in order over the table row, the first error returned.
  Status EmitRowMajor(const VecBatch& batch, uint32_t slot, Row* row) {
    LoadTableRow(*spec_, batch.span, slot, &input_);
    row->clear();
    for (const BoundExpr* e : spec_->project) {
      PDM_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*e, input_, ctx_));
      row->push_back(std::move(v));
    }
    return Status::OK();
  }

  const VecSourceSpec* spec_;
  const Table* table_;
  ExecContext* ctx_;
  size_t width_;
  struct Computed {
    size_t column;  // output column that is an expression
    bool constant;  // reads no column: one cell per batch
  };
  std::vector<Computed> computed_;
  std::vector<std::vector<Value>> vals_;  // per output column
  bool row_major_ = false;  // the current batch failed dense evaluation
  Row input_;               // row-major mode's table row
};

// ---------------------------------------------------------------------------
// Bridge operators (DESIGN.md 5j)
// ---------------------------------------------------------------------------

/// Batch->row bridge leaf: runs a `Project? -> Filter* -> Scan` chain
/// batchwise and streams the projected rows to a row-path parent (Sort,
/// UNION, LIMIT, CASE projection, NLJ, ...). Output rows, their order
/// and the row a projection error surfaces at are those of the
/// ScanExecutor/FilterExecutor/ProjectExecutor chain.
class VecScanExecutor : public Executor {
 public:
  VecScanExecutor(VecSourceSpec spec, const Table* table, ExecContext* ctx)
      : spec_(std::move(spec)),
        table_(table),
        ctx_(ctx),
        projection_(&spec_, table_, ctx_) {}

  Status Open() override {
    cursor_.emplace(&spec_, table_, ctx_);
    batch_.sel.clear();
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    while (pos_ >= batch_.sel.size()) {
      pos_ = 0;
      PDM_ASSIGN_OR_RETURN(bool has, cursor_->NextBatch(&batch_));
      if (!has) return false;
      projection_.Evaluate(batch_);
    }
    PDM_RETURN_NOT_OK(projection_.Emit(batch_, pos_++, row));
    return true;
  }

 private:
  VecSourceSpec spec_;
  const Table* table_;
  ExecContext* ctx_;
  VecProjection projection_;
  std::optional<VecSourceCursor> cursor_;  // (re)started by Open()
  VecBatch batch_;
  size_t pos_ = 0;
};

}  // namespace

std::unique_ptr<Executor> MaybeVecExecutor(const PlanNode& plan,
                                           ExecContext* ctx) {
  VecSourceSpec spec;
  if (!MatchVecSource(plan, &spec)) return nullptr;
  // A bare unfiltered, unprojected scan materializes every row at full
  // width either way — batching it under a row parent is pure
  // sel-vector overhead, so leave that shape to ScanExecutor.
  if (spec.filters.empty() && spec.out_cols.empty()) return nullptr;
  const Table* table = ResolveVecSource(spec, ctx);
  if (table == nullptr) return nullptr;
  return std::make_unique<VecScanExecutor>(std::move(spec), table, ctx);
}

}  // namespace pdm
