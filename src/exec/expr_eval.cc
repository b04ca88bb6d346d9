#include "exec/expr_eval.h"

#include <cmath>
#include <cstdlib>

#include "common/string_util.h"
#include "exec/executor.h"

namespace pdm {

Result<Value> SqlCompareValues(sql::BinaryOp op, const Value& a,
                               const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!Value::Comparable(a, b)) {
    return Status::ExecutionError(
        StrFormat("cannot compare %s with %s",
                  std::string(ValueKindName(a.kind())).c_str(),
                  std::string(ValueKindName(b.kind())).c_str()));
  }
  int c = Value::Compare(a, b);
  switch (op) {
    case sql::BinaryOp::kEq:
      return Value::Bool(c == 0);
    case sql::BinaryOp::kNotEq:
      return Value::Bool(c != 0);
    case sql::BinaryOp::kLess:
      return Value::Bool(c < 0);
    case sql::BinaryOp::kLessEq:
      return Value::Bool(c <= 0);
    case sql::BinaryOp::kGreater:
      return Value::Bool(c > 0);
    case sql::BinaryOp::kGreaterEq:
      return Value::Bool(c >= 0);
    default:
      return Status::Internal("not a comparison operator");
  }
}

namespace {

/// SQL arithmetic (+ - * / % ||): NULL-propagating, integer division on
/// int/int, division-by-zero error, lenient string concatenation.
Result<Value> SqlArithmeticValues(sql::BinaryOp op, const Value& a,
                                  const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (op == sql::BinaryOp::kConcat) {
    // Lenient concatenation: non-string operands are stringified.
    return Value::String(a.ToString() + b.ToString());
  }
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::ExecutionError("arithmetic on non-numeric values");
  }
  bool both_int = a.is_int64() && b.is_int64();
  if (both_int) {
    int64_t x = a.int64_value();
    int64_t y = b.int64_value();
    switch (op) {
      case sql::BinaryOp::kAdd:
        return Value::Int64(x + y);
      case sql::BinaryOp::kSub:
        return Value::Int64(x - y);
      case sql::BinaryOp::kMul:
        return Value::Int64(x * y);
      case sql::BinaryOp::kDiv:
        if (y == 0) return Status::ExecutionError("division by zero");
        return Value::Int64(x / y);  // integer division, as in DB2
      case sql::BinaryOp::kMod:
        if (y == 0) return Status::ExecutionError("division by zero");
        return Value::Int64(x % y);
      default:
        return Status::Internal("not an arithmetic operator");
    }
  }
  double x = a.AsDouble();
  double y = b.AsDouble();
  switch (op) {
    case sql::BinaryOp::kAdd:
      return Value::Double(x + y);
    case sql::BinaryOp::kSub:
      return Value::Double(x - y);
    case sql::BinaryOp::kMul:
      return Value::Double(x * y);
    case sql::BinaryOp::kDiv:
      if (y == 0) return Status::ExecutionError("division by zero");
      return Value::Double(x / y);
    case sql::BinaryOp::kMod:
      if (y == 0) return Status::ExecutionError("division by zero");
      return Value::Double(std::fmod(x, y));
    default:
      return Status::Internal("not an arithmetic operator");
  }
}

/// Kleene three-valued AND/OR over {TRUE, FALSE, NULL}; error on
/// non-boolean operands.
Result<Value> SqlLogicValues(sql::BinaryOp op, const Value& a,
                             const Value& b) {
  auto truth = [](const Value& v) -> Result<int> {  // 1 / 0 / -1 = unknown
    if (v.is_null()) return -1;
    if (v.is_bool()) return v.bool_value() ? 1 : 0;
    return Status::ExecutionError("boolean operator on non-boolean value");
  };
  PDM_ASSIGN_OR_RETURN(int x, truth(a));
  PDM_ASSIGN_OR_RETURN(int y, truth(b));
  if (op == sql::BinaryOp::kAnd) {
    if (x == 0 || y == 0) return Value::Bool(false);
    if (x == 1 && y == 1) return Value::Bool(true);
    return Value::Null();
  }
  if (x == 1 || y == 1) return Value::Bool(true);
  if (x == 0 && y == 0) return Value::Bool(false);
  return Value::Null();
}

/// Resolves the row a column reference reads from: the current row for
/// level 0, otherwise the correlation stack.
Result<const Row*> ResolveRow(const BoundColumnRef& ref, const Row& row,
                              ExecContext* ctx) {
  if (ref.level == 0) return &row;
  const Row* outer = ctx->OuterRow(ref.level);
  if (outer == nullptr) {
    return Status::Internal("correlation level " +
                            std::to_string(ref.level) +
                            " exceeds the outer-row stack");
  }
  return outer;
}

/// The cell a column reference reads, in place.
Result<const Value*> ColumnValue(const BoundColumnRef& ref, const Row& row,
                                 ExecContext* ctx) {
  PDM_ASSIGN_OR_RETURN(const Row* src, ResolveRow(ref, row, ctx));
  if (ref.index >= src->size()) {
    return Status::Internal("column index out of range for '" +
                            ref.debug_name + "'");
  }
  return &(*src)[ref.index];
}

/// Evaluates an operand without copying a literal or a column ref: the
/// result points into the plan, the parameters or the row. Any other
/// expression is evaluated into *scratch.
Result<const Value*> EvaluateOperand(const BoundExpr& expr, const Row& row,
                                     ExecContext* ctx, Value* scratch) {
  switch (expr.kind) {
    case BoundExprKind::kLiteral:
      return &ctx->LiteralValue(static_cast<const BoundLiteral&>(expr));
    case BoundExprKind::kColumnRef:
      return ColumnValue(static_cast<const BoundColumnRef&>(expr), row, ctx);
    default:
      PDM_ASSIGN_OR_RETURN(*scratch, EvaluateExpr(expr, row, ctx));
      return scratch;
  }
}

}  // namespace

Result<const SubqueryResult*> RunSubquery(const BoundSubquery& sub,
                                          const Row& row, ExecContext* ctx,
                                          SubqueryResult* storage) {
  bool cacheable =
      !sub.correlated && ctx->options().cache_uncorrelated_subqueries;
  if (cacheable) {
    if (const SubqueryResult* cached = ctx->FindCachedSubquery(&sub)) {
      ctx->stats().subquery_cache_hits++;
      return cached;
    }
  }
  ctx->stats().subquery_evaluations++;
  ctx->PushOuterRow(&row);
  Result<std::vector<Row>> rows = ExecutePlan(*sub.plan, ctx);
  ctx->PopOuterRow();
  if (!rows.ok()) return rows.status();
  if (cacheable) {
    return ctx->CacheSubquery(&sub, std::move(rows).value());
  }
  storage->rows = std::move(rows).value();
  return storage;
}

namespace {

Result<Value> EvaluateSubquery(const BoundSubquery& sub, const Row& row,
                               ExecContext* ctx) {
  SubqueryResult storage;
  PDM_ASSIGN_OR_RETURN(const SubqueryResult* result,
                       RunSubquery(sub, row, ctx, &storage));
  const std::vector<Row>& rows = result->rows;
  switch (sub.subquery_kind) {
    case SubqueryKind::kExists: {
      bool exists = !rows.empty();
      return Value::Bool(sub.negated ? !exists : exists);
    }
    case SubqueryKind::kScalar: {
      if (rows.empty()) return Value::Null();
      if (rows.size() > 1) {
        return Status::ExecutionError(
            "scalar subquery returned more than one row");
      }
      return rows[0][0];
    }
    case SubqueryKind::kIn: {
      Value scratch;
      PDM_ASSIGN_OR_RETURN(const Value* needle,
                           EvaluateOperand(*sub.operand, row, ctx, &scratch));
      if (needle->is_null()) return Value::Null();
      return result->FirstColumnValues().Probe(*needle, sub.negated);
    }
  }
  return Status::Internal("unhandled subquery kind");
}

/// SQL CAST between value kinds; NULL casts to NULL.
Result<Value> CastValue(const Value& value, ColumnType target) {
  if (value.is_null()) return Value::Null();
  switch (target) {
    case ColumnType::kInt64:
      switch (value.kind()) {
        case ValueKind::kInt64:
          return value;
        case ValueKind::kDouble:
          return Value::Int64(static_cast<int64_t>(value.double_value()));
        case ValueKind::kBool:
          return Value::Int64(value.bool_value() ? 1 : 0);
        case ValueKind::kString: {
          const std::string& s = value.string_value();
          char* end = nullptr;
          long long v = std::strtoll(s.c_str(), &end, 10);
          if (end == s.c_str() || *end != '\0') {
            return Status::ExecutionError("cannot cast '" + s +
                                          "' to INTEGER");
          }
          return Value::Int64(v);
        }
        default:
          break;
      }
      break;
    case ColumnType::kDouble:
      switch (value.kind()) {
        case ValueKind::kInt64:
          return Value::Double(static_cast<double>(value.int64_value()));
        case ValueKind::kDouble:
          return value;
        case ValueKind::kBool:
          return Value::Double(value.bool_value() ? 1.0 : 0.0);
        case ValueKind::kString: {
          const std::string& s = value.string_value();
          char* end = nullptr;
          double v = std::strtod(s.c_str(), &end);
          if (end == s.c_str() || *end != '\0') {
            return Status::ExecutionError("cannot cast '" + s +
                                          "' to DOUBLE");
          }
          return Value::Double(v);
        }
        default:
          break;
      }
      break;
    case ColumnType::kString:
      return Value::String(value.ToString());
    case ColumnType::kBool:
      switch (value.kind()) {
        case ValueKind::kBool:
          return value;
        case ValueKind::kInt64:
          return Value::Bool(value.int64_value() != 0);
        default:
          break;
      }
      break;
  }
  return Status::ExecutionError(
      StrFormat("cannot cast %s to %s",
                std::string(ValueKindName(value.kind())).c_str(),
                std::string(ColumnTypeName(target)).c_str()));
}

}  // namespace

Result<Value> EvaluateExpr(const BoundExpr& expr, const Row& row,
                           ExecContext* ctx) {
  switch (expr.kind) {
    case BoundExprKind::kLiteral:
      return ctx->LiteralValue(static_cast<const BoundLiteral&>(expr));
    case BoundExprKind::kColumnRef: {
      PDM_ASSIGN_OR_RETURN(
          const Value* v,
          ColumnValue(static_cast<const BoundColumnRef&>(expr), row, ctx));
      return *v;
    }
    case BoundExprKind::kUnary: {
      const auto& e = static_cast<const BoundUnary&>(expr);
      PDM_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*e.operand, row, ctx));
      if (e.op == sql::UnaryOp::kNot) {
        if (v.is_null()) return Value::Null();
        if (!v.is_bool()) {
          return Status::ExecutionError("NOT on non-boolean value");
        }
        return Value::Bool(!v.bool_value());
      }
      if (v.is_null()) return Value::Null();
      if (v.is_int64()) return Value::Int64(-v.int64_value());
      if (v.is_double()) return Value::Double(-v.double_value());
      return Status::ExecutionError("unary minus on non-numeric value");
    }
    case BoundExprKind::kBinary: {
      const auto& e = static_cast<const BoundBinary&>(expr);
      switch (e.op) {
        case sql::BinaryOp::kAnd:
        case sql::BinaryOp::kOr: {
          PDM_ASSIGN_OR_RETURN(Value a, EvaluateExpr(*e.lhs, row, ctx));
          // Short-circuit where three-valued logic allows it.
          if (a.is_bool()) {
            if (e.op == sql::BinaryOp::kAnd && !a.bool_value()) {
              return Value::Bool(false);
            }
            if (e.op == sql::BinaryOp::kOr && a.bool_value()) {
              return Value::Bool(true);
            }
          }
          PDM_ASSIGN_OR_RETURN(Value b, EvaluateExpr(*e.rhs, row, ctx));
          return SqlLogicValues(e.op, a, b);
        }
        case sql::BinaryOp::kEq:
        case sql::BinaryOp::kNotEq:
        case sql::BinaryOp::kLess:
        case sql::BinaryOp::kLessEq:
        case sql::BinaryOp::kGreater:
        case sql::BinaryOp::kGreaterEq: {
          Value sa, sb;
          PDM_ASSIGN_OR_RETURN(const Value* a,
                               EvaluateOperand(*e.lhs, row, ctx, &sa));
          PDM_ASSIGN_OR_RETURN(const Value* b,
                               EvaluateOperand(*e.rhs, row, ctx, &sb));
          return SqlCompareValues(e.op, *a, *b);
        }
        default: {
          Value sa, sb;
          PDM_ASSIGN_OR_RETURN(const Value* a,
                               EvaluateOperand(*e.lhs, row, ctx, &sa));
          PDM_ASSIGN_OR_RETURN(const Value* b,
                               EvaluateOperand(*e.rhs, row, ctx, &sb));
          return SqlArithmeticValues(e.op, *a, *b);
        }
      }
    }
    case BoundExprKind::kFunctionCall: {
      const auto& e = static_cast<const BoundFunctionCall&>(expr);
      std::vector<Value> args;
      args.reserve(e.args.size());
      for (const BoundExprPtr& a : e.args) {
        PDM_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*a, row, ctx));
        args.push_back(std::move(v));
      }
      return e.function->fn(args);
    }
    case BoundExprKind::kCast: {
      const auto& e = static_cast<const BoundCast&>(expr);
      PDM_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*e.operand, row, ctx));
      return CastValue(v, e.target_type);
    }
    case BoundExprKind::kIsNull: {
      const auto& e = static_cast<const BoundIsNull&>(expr);
      Value scratch;
      PDM_ASSIGN_OR_RETURN(const Value* v,
                           EvaluateOperand(*e.operand, row, ctx, &scratch));
      return Value::Bool(e.negated ? !v->is_null() : v->is_null());
    }
    case BoundExprKind::kInList: {
      const auto& e = static_cast<const BoundInList&>(expr);
      Value scratch;
      PDM_ASSIGN_OR_RETURN(const Value* operand,
                           EvaluateOperand(*e.operand, row, ctx, &scratch));
      const Value& needle = *operand;
      if (needle.is_null()) return Value::Null();
      if (e.use_literal_set) {
        return ctx->InListValues(e).Probe(needle, e.negated);
      }
      bool saw_null = false;
      for (const BoundExprPtr& item : e.items) {
        PDM_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*item, row, ctx));
        if (v.is_null()) {
          saw_null = true;
          continue;
        }
        if (Value::Comparable(needle, v) &&
            Value::Compare(needle, v) == 0) {
          return Value::Bool(!e.negated);
        }
      }
      if (saw_null) return Value::Null();
      return Value::Bool(e.negated);
    }
    case BoundExprKind::kBetween: {
      const auto& e = static_cast<const BoundBetween&>(expr);
      PDM_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*e.operand, row, ctx));
      PDM_ASSIGN_OR_RETURN(Value lo, EvaluateExpr(*e.low, row, ctx));
      PDM_ASSIGN_OR_RETURN(Value hi, EvaluateExpr(*e.high, row, ctx));
      PDM_ASSIGN_OR_RETURN(
          Value ge, SqlCompareValues(sql::BinaryOp::kGreaterEq, v, lo));
      PDM_ASSIGN_OR_RETURN(
          Value le, SqlCompareValues(sql::BinaryOp::kLessEq, v, hi));
      PDM_ASSIGN_OR_RETURN(Value both,
                           SqlLogicValues(sql::BinaryOp::kAnd, ge, le));
      if (!e.negated) return both;
      if (both.is_null()) return Value::Null();
      return Value::Bool(!both.bool_value());
    }
    case BoundExprKind::kLike: {
      const auto& e = static_cast<const BoundLike&>(expr);
      PDM_ASSIGN_OR_RETURN(Value text, EvaluateExpr(*e.operand, row, ctx));
      PDM_ASSIGN_OR_RETURN(Value pattern, EvaluateExpr(*e.pattern, row, ctx));
      if (text.is_null() || pattern.is_null()) return Value::Null();
      if (!text.is_string() || !pattern.is_string()) {
        return Status::ExecutionError("LIKE requires string operands");
      }
      bool match = SqlLikeMatch(text.string_value(), pattern.string_value());
      return Value::Bool(e.negated ? !match : match);
    }
    case BoundExprKind::kCase: {
      const auto& e = static_cast<const BoundCase&>(expr);
      for (const auto& [cond, val] : e.whens) {
        PDM_ASSIGN_OR_RETURN(Value c, EvaluateExpr(*cond, row, ctx));
        if (c.is_bool() && c.bool_value()) {
          return EvaluateExpr(*val, row, ctx);
        }
      }
      if (e.else_expr != nullptr) return EvaluateExpr(*e.else_expr, row, ctx);
      return Value::Null();
    }
    case BoundExprKind::kSubquery:
      return EvaluateSubquery(static_cast<const BoundSubquery&>(expr), row,
                              ctx);
  }
  return Status::Internal("unhandled bound expression kind");
}

Result<bool> EvaluatePredicate(const BoundExpr& expr, const Row& row,
                               ExecContext* ctx) {
  PDM_ASSIGN_OR_RETURN(Value v, EvaluateExpr(expr, row, ctx));
  if (v.is_null()) return false;
  if (!v.is_bool()) {
    return Status::ExecutionError("predicate did not evaluate to a boolean");
  }
  return v.bool_value();
}

}  // namespace pdm
