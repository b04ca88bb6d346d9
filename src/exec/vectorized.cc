#include "exec/vectorized.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/table.h"
#include "common/string_util.h"
#include "exec/aggregate_state.h"
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

/// Collects the column of every `column = non-NULL-literal` conjunct of
/// the top-level AND chain — the conjuncts the row engine's
/// ScanExecutor can answer through a column index.
void CollectEqualityColumns(const BoundExpr& filter, const ExecContext& ctx,
                            std::vector<size_t>* out) {
  if (filter.kind != BoundExprKind::kBinary) return;
  const auto& bin = static_cast<const BoundBinary&>(filter);
  if (bin.op == sql::BinaryOp::kAnd) {
    CollectEqualityColumns(*bin.lhs, ctx, out);
    CollectEqualityColumns(*bin.rhs, ctx, out);
    return;
  }
  if (bin.op != sql::BinaryOp::kEq) return;
  const BoundExpr* col = bin.lhs.get();
  const BoundExpr* lit = bin.rhs.get();
  if (col->kind != BoundExprKind::kColumnRef) std::swap(col, lit);
  if (col->kind == BoundExprKind::kColumnRef &&
      lit->kind == BoundExprKind::kLiteral &&
      static_cast<const BoundColumnRef&>(*col).level == 0 &&
      !ctx.LiteralValue(static_cast<const BoundLiteral&>(*lit)).is_null()) {
    out->push_back(static_cast<const BoundColumnRef&>(*col).index);
  }
}

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
  std::vector<size_t> cols;
  CollectEqualityColumns(*scan.filter, ctx, &cols);
  if (cols.empty()) return false;
  const size_t num_columns = table.schema().num_columns();
  for (size_t c : cols) {
    if (c < num_columns && table.HasFreshIndex(c)) return true;
  }
  bool repeat = false;
  for (size_t c : cols) {
    if (c < num_columns && table.NoteIndexDemand(c) > 0) repeat = true;
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
// VecSource: the shared batch producer under the bridge operators
// ---------------------------------------------------------------------------

/// A vec-coverable `Project? -> Filter* -> Scan` chain: the shape every
/// bridge operator consumes batches from. `filters` are in the row
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

  /// Every output column is a table column: the shape consumers that
  /// index the source's columns directly (hash-join keys and build rows)
  /// require.
  bool PureColumns() const {
    return std::find(out_cols.begin(), out_cols.end(), kComputed) ==
           out_cols.end();
  }
  size_t TableCol(size_t c) const { return out_cols.empty() ? c : out_cols[c]; }
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
    for (const BoundExprPtr& e : project.exprs) {
      if (!CanVectorizeExpr(*e, &out->max_col)) return false;
      out->project.push_back(e.get());
      out->out_cols.push_back(
          e->kind == BoundExprKind::kColumnRef
              ? static_cast<const BoundColumnRef&>(*e).index
              : VecSourceSpec::kComputed);
    }
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

/// Streams the filtered batches of a resolved VecSource: per fragment a
/// vectorized MVCC pass fills the selection vector, the filters shrink
/// it, and only non-empty survivors come back. Charges rows_scanned and
/// vec_rows_scanned per visible version. The batch engine's only table
/// reader: like ScanExecutor::Open it fixes the scan bound (the published
/// version count) once, so a version published mid-scan stays unseen.
class VecSourceCursor {
 public:
  VecSourceCursor(const VecSourceSpec* spec, const Table* table,
                  ExecContext* ctx)
      : spec_(spec), table_(table), ctx_(ctx) {
    bound_ = table_->num_versions();
    frags_ = (bound_ + kFragmentRows - 1) >> kFragmentShift;
  }

  Result<bool> NextBatch(VecBatch* batch) {
    ExecStats& stats = ctx_->stats();
    while (frag_ < frags_) {
      batch->span = table_->FragmentAt(frag_++, bound_);
      batch->FillVisible(ctx_->snapshot_ts());
      stats.vec_batches++;
      stats.rows_scanned += batch->sel.size();
      stats.vec_rows_scanned += batch->sel.size();
      for (const BoundExpr* f : spec_->filters) {
        if (batch->sel.empty()) break;
        PDM_RETURN_NOT_OK(EvalTri(*f, ctx_, batch->span, batch->sel.data(),
                                  batch->sel.size(), kNonBoolPredicate,
                                  &tri_));
        survivors_.clear();
        for (size_t i = 0; i < batch->sel.size(); ++i) {
          if (tri_[i] == 1) survivors_.push_back(batch->sel[i]);
        }
        batch->sel.swap(survivors_);
      }
      if (!batch->sel.empty()) return true;
    }
    return false;
  }

 private:
  const VecSourceSpec* spec_;
  const Table* table_;
  ExecContext* ctx_;
  size_t bound_ = 0;
  size_t frags_ = 0;
  size_t frag_ = 0;
  TriVec tri_;
  std::vector<uint32_t> survivors_;
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
/// where the row engine's projection fails.
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
      computed_.push_back(c);
      constant_.push_back(IsConstantExpr(*spec->project[c]));
    }
  }

  /// Evaluates the computed columns over the survivors of `batch`
  /// (non-empty, so a constant that fails to evaluate fails only when
  /// some row reaches the projection, as on the row path); on failure
  /// the batch's rows are emitted row-major.
  void Evaluate(const VecBatch& batch) {
    row_major_ = false;
    for (size_t k = 0; k < computed_.size(); ++k) {
      const size_t c = computed_[k];
      const size_t n = constant_[k] ? 1 : batch.sel.size();
      if (!EvalDense(*spec_->project[c], ctx_, batch.span, batch.sel.data(),
                     n, &vals_[c])
               .ok()) {
        row_major_ = true;
        return;
      }
    }
  }

  /// Materializes survivor `i` of the evaluated batch into *row, reusing
  /// its capacity; fails only in row-major mode, with the row engine's
  /// error for this row.
  Status Emit(const VecBatch& batch, size_t i, Row* row) {
    const uint32_t slot = batch.sel[i];
    if (row_major_) return EmitRowMajor(batch, slot, row);
    row->resize(width_);
    for (size_t c = 0; c < width_; ++c) {
      const size_t col = spec_->TableCol(c);
      if (col != VecSourceSpec::kComputed) {
        batch.span.fragment->cols[col].LoadInto(slot, &(*row)[c]);
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
  /// in order over the full table row, the first error returned.
  Status EmitRowMajor(const VecBatch& batch, uint32_t slot, Row* row) {
    const size_t num_columns = table_->schema().num_columns();
    input_.resize(num_columns);
    for (size_t c = 0; c < num_columns; ++c) {
      batch.span.fragment->cols[c].LoadInto(slot, &input_[c]);
    }
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
  std::vector<size_t> computed_;    // output columns that are expressions
  std::vector<bool> constant_;      // per computed_ entry
  std::vector<std::vector<Value>> vals_;  // per output column
  bool row_major_ = false;  // the current batch failed dense evaluation
  Row input_;               // row-major mode's full table row
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
      : spec_(std::move(spec)), table_(table), ctx_(ctx) {}

  Status Open() override {
    cursor_ = std::make_unique<VecSourceCursor>(&spec_, table_, ctx_);
    projection_ = std::make_unique<VecProjection>(&spec_, table_, ctx_);
    batch_.sel.clear();
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    while (pos_ >= batch_.sel.size()) {
      pos_ = 0;
      PDM_ASSIGN_OR_RETURN(bool has, cursor_->NextBatch(&batch_));
      if (!has) return false;
      projection_->Evaluate(batch_);
    }
    PDM_RETURN_NOT_OK(projection_->Emit(batch_, pos_++, row));
    return true;
  }

 private:
  VecSourceSpec spec_;
  const Table* table_;
  ExecContext* ctx_;
  std::unique_ptr<VecSourceCursor> cursor_;
  std::unique_ptr<VecProjection> projection_;
  VecBatch batch_;
  size_t pos_ = 0;
};

/// Moves an int64 fast-path build into generic Row-keyed form; called
/// when a build key turns out non-int64 or beyond the exact range.
void DemoteToGenericKeys(VecJoinBuild* b) {
  b->table.reserve(b->int64_table.size());
  for (auto& entry : b->int64_table) {
    Row key;
    key.push_back(Value::Int64(entry.first));
    b->table.emplace(std::move(key), std::move(entry.second));
  }
  b->int64_table.clear();
  b->int64_keys = false;
}

/// Builds the hash table of a vectorized build-mode join: batches off
/// the VecSource, key cells read straight from the column arrays,
/// NULL-key rows skipped (they can never match an equi-join — same as
/// the row build), surviving rows late-materialized in scan order.
Status BuildVecJoin(const HashJoinNode& node, const VecSourceSpec& spec,
                    const Table& table, ExecContext* ctx, VecJoinBuild* b) {
  ctx->stats().hash_join_builds++;
  b->int64_keys = node.right_keys.size() == 1;
  const size_t width = spec.Width(table);
  VecSourceCursor cursor(&spec, &table, ctx);
  VecBatch batch;
  while (true) {
    PDM_ASSIGN_OR_RETURN(bool has, cursor.NextBatch(&batch));
    if (!has) break;
    for (uint32_t slot : batch.sel) {
      bool null_key = false;
      for (size_t k : node.right_keys) {
        if (static_cast<ValueKind>(
                batch.span.column(spec.TableCol(k)).kinds[slot]) ==
            ValueKind::kNull) {
          null_key = true;
          break;
        }
      }
      if (null_key) continue;
      const uint32_t idx = static_cast<uint32_t>(b->rows.size());
      bool inserted = false;
      if (b->int64_keys) {
        const ColumnSpan kc =
            batch.span.column(spec.TableCol(node.right_keys[0]));
        if (static_cast<ValueKind>(kc.kinds[slot]) == ValueKind::kInt64) {
          const int64_t x = static_cast<int64_t>(kc.fixed[slot]);
          if (IsExactInt64Key(x)) {
            b->int64_table[x].push_back(idx);
            inserted = true;
          }
        }
        if (!inserted) DemoteToGenericKeys(b);
      }
      if (!inserted) {
        Row key;
        key.reserve(node.right_keys.size());
        for (size_t k : node.right_keys) {
          key.push_back(
              batch.span.fragment->cols[spec.TableCol(k)].Load(slot));
        }
        b->table[std::move(key)].push_back(idx);
      }
      Row row;
      row.reserve(width);
      for (size_t c = 0; c < width; ++c) {
        row.push_back(
            batch.span.fragment->cols[spec.TableCol(c)].Load(slot));
      }
      b->rows.push_back(std::move(row));
    }
  }
  return Status::OK();
}

/// Maps an int64 probe key candidate from whatever kind the probe side
/// holds. Every build key has |x| < 2^53 where the int64<->double
/// conversion is exact, so an integral double in range is the only
/// possible match — the same value-equality SqlCompareValues/RowEq
/// would compute. Returns false for NULL / bool / string / inexact.
bool ExactInt64Probe(ValueKind kind, uint64_t payload, int64_t* probe) {
  if (kind == ValueKind::kInt64) {
    *probe = static_cast<int64_t>(payload);
    return true;
  }
  return kind == ValueKind::kDouble &&
         ExactInt64OfDouble(BitsToDouble(payload), probe);
}

/// Vectorized build-mode hash join: the build side is a VecSource built
/// batch-at-a-time (once per statement — the ExecContext caches the
/// build keyed by plan node, so the recursive expand's per-level
/// re-execution probes one shared build); probes go through the int64
/// fast table when every build key allows it.
///
/// When the probe side is itself a VecSource the join runs in cursor
/// mode: probe keys are read straight off the left column spans (no
/// per-row virtual Next, no Value/Row key allocation on the int64
/// path), and the left row is materialized only for probes that
/// actually match. Emission order — per left row, matches in build
/// order — is byte-identical to the row join either way.
class VecHashJoinExecutor : public Executor {
 public:
  // Executor-probe mode: the left side streams rows (bridged or row
  // path); used when the probe side is not a VecSource.
  VecHashJoinExecutor(const HashJoinNode& node, std::unique_ptr<Executor> left,
                      VecSourceSpec spec, const Table* table, ExecContext* ctx)
      : node_(node),
        left_(std::move(left)),
        spec_(std::move(spec)),
        table_(table),
        ctx_(ctx) {}

  // Cursor-probe mode: the left side is a VecSource consumed batchwise.
  VecHashJoinExecutor(const HashJoinNode& node, VecSourceSpec left_spec,
                      const Table* left_table, VecSourceSpec spec,
                      const Table* table, ExecContext* ctx)
      : node_(node),
        lspec_(std::move(left_spec)),
        ltable_(left_table),
        spec_(std::move(spec)),
        table_(table),
        ctx_(ctx) {}

  Status Open() override {
    if (ltable_ != nullptr) {
      cursor_ = std::make_unique<VecSourceCursor>(&lspec_, ltable_, ctx_);
      lwidth_ = lspec_.Width(*ltable_);
      batch_.sel.clear();
      probe_i_ = 0;
    } else {
      PDM_RETURN_NOT_OK(left_->Open());
    }
    build_ = ctx_->FindJoinBuild(&node_);
    if (build_ == nullptr) {
      VecJoinBuild* b = ctx_->EmplaceJoinBuild(&node_);
      PDM_RETURN_NOT_OK(BuildVecJoin(node_, spec_, *table_, ctx_, b));
      build_ = b;
    }
    left_ready_ = false;
    matches_ = nullptr;
    match_pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    while (true) {
      if (matches_ != nullptr) {
        while (match_pos_ < matches_->size()) {
          const Row& right_row = build_->rows[(*matches_)[match_pos_++]];
          if (!left_ready_) MaterializeLeft();
          Row combined;
          combined.reserve(left_row_.size() + right_row.size());
          combined.insert(combined.end(), left_row_.begin(), left_row_.end());
          combined.insert(combined.end(), right_row.begin(), right_row.end());
          if (node_.residual != nullptr) {
            PDM_ASSIGN_OR_RETURN(
                bool pass, EvaluatePredicate(*node_.residual, combined, ctx_));
            if (!pass) continue;
          }
          *row = std::move(combined);
          return true;
        }
        matches_ = nullptr;
      }
      if (ltable_ != nullptr) {
        while (probe_i_ >= batch_.sel.size()) {
          PDM_ASSIGN_OR_RETURN(bool has, cursor_->NextBatch(&batch_));
          if (!has) return false;
          probe_i_ = 0;
          if (build_->int64_keys) {
            key_span_ =
                batch_.span.column(lspec_.TableCol(node_.left_keys[0]));
          }
        }
        slot_ = batch_.sel[probe_i_++];
        ctx_->stats().vec_join_probe_rows++;
        left_ready_ = false;
        match_pos_ = 0;
        matches_ = ProbeSlot(slot_);
      } else {
        PDM_ASSIGN_OR_RETURN(bool has, left_->Next(&left_row_));
        if (!has) return false;
        ctx_->stats().vec_join_probe_rows++;
        left_ready_ = true;
        match_pos_ = 0;
        matches_ = ProbeRow();
      }
    }
  }

 private:
  // Cursor mode defers left materialization until the first emitted
  // pair for this probe slot — non-matching probes never become Rows.
  void MaterializeLeft() {
    left_row_.clear();
    left_row_.reserve(lwidth_);
    for (size_t c = 0; c < lwidth_; ++c) {
      left_row_.push_back(
          batch_.span.fragment->cols[lspec_.TableCol(c)].Load(slot_));
    }
    left_ready_ = true;
  }

  /// Cursor-mode probe: key cells read straight off the column arrays
  /// (key_span_ is re-derived once per batch, not per probe).
  const std::vector<uint32_t>* ProbeSlot(uint32_t slot) const {
    if (build_->int64_keys) {
      int64_t probe = 0;
      if (!ExactInt64Probe(static_cast<ValueKind>(key_span_.kinds[slot]),
                           key_span_.fixed[slot], &probe)) {
        return nullptr;
      }
      auto it = build_->int64_table.find(probe);
      return it == build_->int64_table.end() ? nullptr : &it->second;
    }
    Row key;
    key.reserve(node_.left_keys.size());
    for (size_t k : node_.left_keys) {
      const size_t col = lspec_.TableCol(k);
      if (static_cast<ValueKind>(batch_.span.column(col).kinds[slot]) ==
          ValueKind::kNull) {
        return nullptr;
      }
      key.push_back(batch_.span.fragment->cols[col].Load(slot));
    }
    auto it = build_->table.find(key);
    return it == build_->table.end() ? nullptr : &it->second;
  }

  /// Executor-probe mode: key cells come from the streamed left row.
  const std::vector<uint32_t>* ProbeRow() const {
    if (build_->int64_keys) {
      int64_t probe = 0;
      if (!ExactInt64ProbeKey(left_row_[node_.left_keys[0]], &probe)) {
        return nullptr;  // NULL / bool / string / inexact double
      }
      auto it = build_->int64_table.find(probe);
      return it == build_->int64_table.end() ? nullptr : &it->second;
    }
    Row key;
    key.reserve(node_.left_keys.size());
    for (size_t k : node_.left_keys) {
      const Value& v = left_row_[k];
      if (v.is_null()) return nullptr;
      key.push_back(v);
    }
    auto it = build_->table.find(key);
    return it == build_->table.end() ? nullptr : &it->second;
  }

  const HashJoinNode& node_;
  std::unique_ptr<Executor> left_;  // executor-probe mode only
  VecSourceSpec lspec_;             // cursor-probe mode only
  const Table* ltable_ = nullptr;   // non-null selects cursor mode
  VecSourceSpec spec_;
  const Table* table_;
  ExecContext* ctx_;
  const VecJoinBuild* build_ = nullptr;
  std::unique_ptr<VecSourceCursor> cursor_;
  VecBatch batch_;
  ColumnSpan key_span_{};
  size_t lwidth_ = 0;
  size_t probe_i_ = 0;
  uint32_t slot_ = 0;
  Row left_row_;
  bool left_ready_ = false;
  const std::vector<uint32_t>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

/// Vectorized index join: same eligibility and probe pattern as the row
/// executor's index-join mode (single key, bare base-table scan on the
/// right, probes against the table's shared lazy index — preserving its
/// cross-statement amortization), but matched right rows load straight
/// from the column fragments into the combined row, skipping the
/// MaterializeRow scratch copy the row path pays per pair.
class VecIndexJoinExecutor : public Executor {
 public:
  VecIndexJoinExecutor(const HashJoinNode& node, std::unique_ptr<Executor> left,
                       const Table* table, ExecContext* ctx)
      : node_(node), left_(std::move(left)), table_(table), ctx_(ctx) {}

  Status Open() override {
    PDM_RETURN_NOT_OK(left_->Open());
    bound_ = table_->num_versions();
    have_left_ = false;
    match_pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    const size_t rcols = table_->schema().num_columns();
    while (true) {
      if (!have_left_) {
        PDM_ASSIGN_OR_RETURN(bool has, left_->Next(&left_row_));
        if (!has) return false;
        ctx_->stats().vec_join_probe_rows++;
        ctx_->stats().index_join_probes++;
        have_left_ = true;
        match_pos_ = 0;
        positions_.clear();
        const Value& key = left_row_[node_.left_keys[0]];
        if (!key.is_null()) {
          table_->IndexLookup(node_.right_keys[0], {&key, 1}, &positions_);
        }
      }
      while (match_pos_ < positions_.size()) {
        const size_t pos = positions_[match_pos_++];
        if (!table_->VisibleAt(pos, ctx_->snapshot_ts())) continue;
        const FragmentSpan span =
            table_->FragmentAt(pos >> kFragmentShift, bound_);
        const uint32_t slot = static_cast<uint32_t>(pos & kFragmentMask);
        Row combined;
        combined.reserve(left_row_.size() + rcols);
        combined.insert(combined.end(), left_row_.begin(), left_row_.end());
        for (size_t c = 0; c < rcols; ++c) {
          combined.push_back(span.fragment->cols[c].Load(slot));
        }
        if (node_.residual != nullptr) {
          PDM_ASSIGN_OR_RETURN(
              bool pass, EvaluatePredicate(*node_.residual, combined, ctx_));
          if (!pass) continue;
        }
        *row = std::move(combined);
        return true;
      }
      have_left_ = false;
    }
  }

 private:
  const HashJoinNode& node_;
  std::unique_ptr<Executor> left_;
  const Table* table_;
  ExecContext* ctx_;
  size_t bound_ = 0;
  Row left_row_;
  bool have_left_ = false;
  std::vector<size_t> positions_;
  size_t match_pos_ = 0;
};

/// Vectorized hash aggregation over a VecSource: group keys evaluate
/// dense per batch, COUNT/SUM/AVG on bare columns fold straight off the
/// kind/payload arrays, everything else goes through the shared
/// AggState value semantics. Group order (first seen) and float
/// accumulation order (row order within each group) match the row
/// aggregator exactly.
class VecAggregateExecutor : public Executor {
 public:
  VecAggregateExecutor(const AggregateNode& node, VecSourceSpec spec,
                       const Table* table, ExecContext* ctx)
      : node_(node), spec_(std::move(spec)), table_(table), ctx_(ctx) {}

  Status Open() override {
    groups_.clear();
    group_index_.clear();
    int64_groups_.clear();
    int64_active_ = true;
    pos_ = 0;
    const size_t nagg = node_.aggregates.size();
    // A single bare-column group key gets an int64-keyed group index
    // while every key value stays kInt64 (exact equality, no Row/Value
    // churn per input row); the first non-int64 key demotes to the
    // generic Row-keyed index, whose RowEq numeric equality matches the
    // row aggregator's, preserving already-assigned group ids.
    size_t fast_gcol = kNoFastGroup;
    if (node_.group_exprs.size() == 1 &&
        node_.group_exprs[0]->kind == BoundExprKind::kColumnRef) {
      const auto& ref =
          static_cast<const BoundColumnRef&>(*node_.group_exprs[0]);
      if (ref.level == 0) fast_gcol = ref.index;
    }
    VecSourceCursor cursor(&spec_, table_, ctx_);
    VecBatch batch;
    std::vector<std::vector<Value>> gcols;
    std::vector<uint32_t> gids;
    std::vector<Value> vals;
    while (true) {
      PDM_ASSIGN_OR_RETURN(bool has, cursor.NextBatch(&batch));
      if (!has) break;
      const size_t n = batch.sel.size();
      ctx_->stats().vec_agg_input_rows += n;
      gids.resize(n);
      if (node_.group_exprs.empty()) {
        if (groups_.empty()) {
          groups_.push_back(GroupState{Row{}, std::vector<AggState>(nagg)});
        }
        std::fill(gids.begin(), gids.end(), 0u);
      } else if (fast_gcol != kNoFastGroup) {
        const ColumnSpan gc = batch.span.column(fast_gcol);
        for (size_t i = 0; i < n; ++i) {
          const uint32_t slot = batch.sel[i];
          if (int64_active_ &&
              static_cast<ValueKind>(gc.kinds[slot]) == ValueKind::kInt64) {
            const int64_t k = static_cast<int64_t>(gc.fixed[slot]);
            auto it = int64_groups_.find(k);
            if (it == int64_groups_.end()) {
              gids[i] = static_cast<uint32_t>(groups_.size());
              int64_groups_.emplace(k, groups_.size());
              Row key;
              key.push_back(Value::Int64(k));
              groups_.push_back(
                  GroupState{std::move(key), std::vector<AggState>(nagg)});
            } else {
              gids[i] = static_cast<uint32_t>(it->second);
            }
            continue;
          }
          if (int64_active_) DemoteGroups();
          Row key;
          key.push_back(batch.span.fragment->cols[fast_gcol].Load(slot));
          auto it = group_index_.find(key);
          if (it == group_index_.end()) {
            gids[i] = static_cast<uint32_t>(groups_.size());
            group_index_.emplace(key, groups_.size());
            groups_.push_back(
                GroupState{std::move(key), std::vector<AggState>(nagg)});
          } else {
            gids[i] = static_cast<uint32_t>(it->second);
          }
        }
      } else {
        gcols.resize(node_.group_exprs.size());
        for (size_t g = 0; g < node_.group_exprs.size(); ++g) {
          PDM_RETURN_NOT_OK(EvalDense(*node_.group_exprs[g], ctx_, batch.span,
                                      batch.sel.data(), n, &gcols[g]));
        }
        for (size_t i = 0; i < n; ++i) {
          Row key;
          key.reserve(gcols.size());
          for (const std::vector<Value>& col : gcols) key.push_back(col[i]);
          auto it = group_index_.find(key);
          if (it == group_index_.end()) {
            gids[i] = static_cast<uint32_t>(groups_.size());
            group_index_.emplace(key, groups_.size());
            groups_.push_back(
                GroupState{std::move(key), std::vector<AggState>(nagg)});
          } else {
            gids[i] = static_cast<uint32_t>(it->second);
          }
        }
      }
      for (size_t a = 0; a < nagg; ++a) {
        const BoundAggregate& agg = node_.aggregates[a];
        if (agg.agg_kind == AggKind::kCountStar) {
          for (size_t i = 0; i < n; ++i) groups_[gids[i]].aggs[a].count++;
          continue;
        }
        if (!agg.distinct && agg.arg->kind == BoundExprKind::kColumnRef) {
          const auto& ref = static_cast<const BoundColumnRef&>(*agg.arg);
          if (ref.level == 0 &&
              (agg.agg_kind == AggKind::kCount ||
               agg.agg_kind == AggKind::kSum ||
               agg.agg_kind == AggKind::kAvg)) {
            PDM_RETURN_NOT_OK(
                AccumulateColumnKernel(agg, batch, ref.index, gids, a));
            continue;
          }
        }
        PDM_RETURN_NOT_OK(
            EvalDense(*agg.arg, ctx_, batch.span, batch.sel.data(), n, &vals));
        for (size_t i = 0; i < n; ++i) {
          PDM_RETURN_NOT_OK(
              AccumulateAggValue(agg, vals[i], &groups_[gids[i]].aggs[a]));
        }
      }
    }
    // Scalar aggregate over empty input: one all-default group.
    if (node_.group_exprs.empty() && groups_.empty()) {
      groups_.push_back(GroupState{Row{}, std::vector<AggState>(nagg)});
    }
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    while (pos_ < groups_.size()) {
      GroupState& g = groups_[pos_++];
      Row out = std::move(g.key);
      out.reserve(out.size() + node_.aggregates.size());
      for (size_t i = 0; i < node_.aggregates.size(); ++i) {
        PDM_ASSIGN_OR_RETURN(Value v,
                             FinalizeAgg(node_.aggregates[i], g.aggs[i]));
        out.push_back(std::move(v));
      }
      if (node_.having != nullptr) {
        PDM_ASSIGN_OR_RETURN(bool pass,
                             EvaluatePredicate(*node_.having, out, ctx_));
        if (!pass) continue;
      }
      *row = std::move(out);
      return true;
    }
    return false;
  }

 private:
  struct GroupState {
    Row key;
    std::vector<AggState> aggs;
  };

  static constexpr size_t kNoFastGroup = std::numeric_limits<size_t>::max();

  /// Folds the int64 group index into the generic Row-keyed one; group
  /// ids are preserved, so accumulation state never moves.
  void DemoteGroups() {
    group_index_.reserve(int64_groups_.size());
    for (const auto& entry : int64_groups_) {
      Row key;
      key.push_back(Value::Int64(entry.first));
      group_index_.emplace(std::move(key), entry.second);
    }
    int64_groups_.clear();
    int64_active_ = false;
  }

  /// COUNT/SUM/AVG over a bare column: fold straight off the fragment's
  /// kind/payload arrays in sel (= row) order — the exact accumulation
  /// AccumulateAggValue would perform per loaded Value, minus the Value.
  Status AccumulateColumnKernel(const BoundAggregate& agg,
                                const VecBatch& batch, size_t col,
                                const std::vector<uint32_t>& gids, size_t a) {
    const ColumnSpan c = batch.span.column(col);
    const size_t n = batch.sel.size();
    if (agg.agg_kind == AggKind::kCount) {
      for (size_t i = 0; i < n; ++i) {
        if (static_cast<ValueKind>(c.kinds[batch.sel[i]]) !=
            ValueKind::kNull) {
          groups_[gids[i]].aggs[a].count++;
        }
      }
      return Status::OK();
    }
    for (size_t i = 0; i < n; ++i) {
      const uint32_t slot = batch.sel[i];
      AggState& st = groups_[gids[i]].aggs[a];
      switch (static_cast<ValueKind>(c.kinds[slot])) {
        case ValueKind::kNull:
          break;
        case ValueKind::kInt64: {
          const int64_t x = static_cast<int64_t>(c.fixed[slot]);
          st.count++;
          st.sum_double += static_cast<double>(x);
          st.sum_int += x;
          break;
        }
        case ValueKind::kDouble:
          st.count++;
          st.saw_double = true;
          st.sum_double += BitsToDouble(c.fixed[slot]);
          break;
        default:
          return Status::ExecutionError(
              std::string(AggKindName(agg.agg_kind)) +
              " over non-numeric values");
      }
    }
    return Status::OK();
  }

  const AggregateNode& node_;
  VecSourceSpec spec_;
  const Table* table_;
  ExecContext* ctx_;
  std::vector<GroupState> groups_;
  std::unordered_map<Row, size_t, RowHash, RowEq> group_index_;
  std::unordered_map<int64_t, size_t> int64_groups_;
  bool int64_active_ = true;
  size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<Executor>> MaybeVecExecutor(const PlanNode& plan,
                                                   ExecContext* ctx) {
  std::unique_ptr<Executor> none;
  switch (plan.kind) {
    case PlanKind::kScan:
    case PlanKind::kFilter:
    case PlanKind::kProject: {
      VecSourceSpec spec;
      if (!MatchVecSource(plan, &spec)) return none;
      // A bare unfiltered, unprojected scan materializes every row at
      // full width either way — batching it under a row parent is pure
      // sel-vector overhead, so leave that shape to ScanExecutor.
      if (spec.filters.empty() && spec.out_cols.empty()) return none;
      const Table* table = ResolveVecSource(spec, ctx);
      if (table == nullptr) return none;
      return std::unique_ptr<Executor>(
          new VecScanExecutor(std::move(spec), table, ctx));
    }
    case PlanKind::kHashJoin: {
      const auto& node = static_cast<const HashJoinNode&>(plan);
      // Same eligibility split as HashJoinExecutor: single-key joins
      // against a bare base-table scan probe the shared lazy index;
      // everything else builds a hash table over the right side.
      if (node.right_keys.size() == 1 &&
          node.right->kind == PlanKind::kScan) {
        const auto& scan = static_cast<const ScanNode&>(*node.right);
        if (scan.filter == nullptr) {
          Result<Table*> table_or = ctx->catalog()->GetTable(scan.table_name);
          if (!table_or.ok()) return none;  // row path reports the error
          if (node.right_keys[0] >=
              table_or.value()->schema().num_columns()) {
            return none;
          }
          PDM_ASSIGN_OR_RETURN(std::unique_ptr<Executor> left,
                               CreateExecutor(*node.left, ctx));
          return std::unique_ptr<Executor>(new VecIndexJoinExecutor(
              node, std::move(left), table_or.value(), ctx));
        }
      }
      // Build keys and build rows index the source's table columns.
      VecSourceSpec spec;
      if (!MatchVecSource(*node.right, &spec) || !spec.PureColumns()) {
        return none;
      }
      const Table* table = ResolveVecSource(spec, ctx);
      if (table == nullptr) return none;
      for (size_t k : node.right_keys) {
        if (k >= spec.Width(*table)) return none;
      }
      // Prefer cursor mode: probe keys come straight off the left
      // column spans, and left rows materialize only on match.
      VecSourceSpec lspec;
      if (MatchVecSource(*node.left, &lspec) && lspec.PureColumns()) {
        const Table* ltable = ResolveVecSource(lspec, ctx);
        if (ltable != nullptr) {
          bool keys_ok = true;
          for (size_t k : node.left_keys) {
            if (k >= lspec.Width(*ltable)) {
              keys_ok = false;
              break;
            }
          }
          if (keys_ok) {
            return std::unique_ptr<Executor>(
                new VecHashJoinExecutor(node, std::move(lspec), ltable,
                                        std::move(spec), table, ctx));
          }
        }
      }
      PDM_ASSIGN_OR_RETURN(std::unique_ptr<Executor> left,
                           CreateExecutor(*node.left, ctx));
      return std::unique_ptr<Executor>(new VecHashJoinExecutor(
          node, std::move(left), std::move(spec), table, ctx));
    }
    case PlanKind::kAggregate: {
      const auto& node = static_cast<const AggregateNode&>(plan);
      VecSourceSpec spec;
      if (!MatchVecSource(*node.child, &spec)) return none;
      // Group/argument expressions index the child's schema; a peeled
      // projection would shift them, so require the identity shape.
      if (!spec.out_cols.empty()) return none;
      size_t max_col = spec.max_col;
      for (const BoundExprPtr& g : node.group_exprs) {
        if (!CanVectorizeExpr(*g, &max_col)) return none;
      }
      for (const BoundAggregate& agg : node.aggregates) {
        if (agg.arg != nullptr && !CanVectorizeExpr(*agg.arg, &max_col)) {
          return none;
        }
      }
      const Table* table = ResolveVecSource(spec, ctx);
      if (table == nullptr) return none;
      if (max_col >= table->schema().num_columns()) return none;
      return std::unique_ptr<Executor>(
          new VecAggregateExecutor(node, std::move(spec), table, ctx));
    }
    default:
      return none;
  }
}

}  // namespace pdm
