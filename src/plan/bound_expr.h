#ifndef PDM_PLAN_BOUND_EXPR_H_
#define PDM_PLAN_BOUND_EXPR_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "catalog/schema.h"
#include "common/value.h"
#include "plan/functions.h"
#include "sql/ast.h"

namespace pdm {

struct PlanNode;  // plan/plan_node.h

/// Bound (name-resolved) expression tree, produced by the Binder and
/// consumed by the expression evaluator. Column references carry a
/// correlation level and a flat row index instead of names.
enum class BoundExprKind {
  kLiteral,
  kColumnRef,
  kUnary,
  kBinary,
  kFunctionCall,  // scalar function, resolved to a ScalarFunction
  kCast,
  kIsNull,
  kInList,
  kBetween,
  kLike,
  kCase,
  kSubquery,      // EXISTS / IN / scalar
};

struct BoundExpr {
  explicit BoundExpr(BoundExprKind k) : kind(k) {}
  virtual ~BoundExpr() = default;
  BoundExpr(const BoundExpr&) = delete;
  BoundExpr& operator=(const BoundExpr&) = delete;

  const BoundExprKind kind;
};

using BoundExprPtr = std::unique_ptr<BoundExpr>;

struct BoundLiteral : BoundExpr {
  explicit BoundLiteral(Value v)
      : BoundExpr(BoundExprKind::kLiteral), value(std::move(v)) {}
  /// The bind-time value. Execution reads a literal only through
  /// ExecContext::LiteralValue, never this field directly.
  Value value;
  /// Fingerprint parameter ordinal carried over from sql::LiteralExpr,
  /// or -1. When a cached plan (engine/plan_cache.h) runs for another
  /// statement of the same fingerprint, the literal evaluates to that
  /// statement's parameter at this ordinal, read from the ExecContext;
  /// the node itself is never rewritten. Literals bound inside view
  /// expansion never carry a slot: their ordinals belong to the CREATE
  /// VIEW statement, not the statement being fingerprinted.
  int param_slot = -1;
};

/// Column reference resolved to (level, index): level 0 is the row of the
/// operator evaluating the expression; level k>0 is the k-th enclosing
/// query's row on the correlation stack (innermost outer row = level 1).
struct BoundColumnRef : BoundExpr {
  BoundColumnRef(size_t lvl, size_t idx, ColumnType type, std::string dbg)
      : BoundExpr(BoundExprKind::kColumnRef),
        level(lvl),
        index(idx),
        column_type(type),
        debug_name(std::move(dbg)) {}
  size_t level;
  size_t index;
  ColumnType column_type;  // declared type, used for schema inference
  std::string debug_name;
};

struct BoundUnary : BoundExpr {
  BoundUnary(sql::UnaryOp o, BoundExprPtr e)
      : BoundExpr(BoundExprKind::kUnary), op(o), operand(std::move(e)) {}
  sql::UnaryOp op;
  BoundExprPtr operand;
};

struct BoundBinary : BoundExpr {
  BoundBinary(sql::BinaryOp o, BoundExprPtr l, BoundExprPtr r)
      : BoundExpr(BoundExprKind::kBinary),
        op(o),
        lhs(std::move(l)),
        rhs(std::move(r)) {}
  sql::BinaryOp op;
  BoundExprPtr lhs;
  BoundExprPtr rhs;
};

struct BoundFunctionCall : BoundExpr {
  BoundFunctionCall(const ScalarFunction* f, std::vector<BoundExprPtr> a)
      : BoundExpr(BoundExprKind::kFunctionCall),
        function(f),
        args(std::move(a)) {}
  const ScalarFunction* function;  // owned by the FunctionRegistry
  std::vector<BoundExprPtr> args;
};

struct BoundCast : BoundExpr {
  BoundCast(BoundExprPtr e, ColumnType t)
      : BoundExpr(BoundExprKind::kCast),
        operand(std::move(e)),
        target_type(t) {}
  BoundExprPtr operand;
  ColumnType target_type;
};

struct BoundIsNull : BoundExpr {
  BoundIsNull(BoundExprPtr e, bool neg)
      : BoundExpr(BoundExprKind::kIsNull),
        operand(std::move(e)),
        negated(neg) {}
  BoundExprPtr operand;
  bool negated;
};

/// The right-hand side of an IN test (an all-literal IN-list or an
/// uncorrelated subquery's first column): its non-NULL values hashed,
/// plus whether any value is NULL.
struct InSet {
  std::unordered_set<Value, ValueHash, ValueEq> values;
  bool has_null = false;

  void Add(const Value& v) {
    if (v.is_null()) {
      has_null = true;
    } else {
      values.insert(v);
    }
  }

  /// `needle [NOT] IN (...)` in three-valued logic, for a non-NULL
  /// needle. The functor pair is consistent with Value::Compare
  /// (numerics match across kinds).
  Value Probe(const Value& needle, bool negated) const {
    if (values.count(needle) > 0) return Value::Bool(!negated);
    if (has_null) return Value::Null();
    return Value::Bool(negated);
  }
};

struct BoundInList : BoundExpr {
  BoundInList(BoundExprPtr e, std::vector<BoundExprPtr> it, bool neg)
      : BoundExpr(BoundExprKind::kInList),
        operand(std::move(e)),
        items(std::move(it)),
        negated(neg) {}
  BoundExprPtr operand;
  std::vector<BoundExprPtr> items;
  bool negated;

  /// When every item is a literal, the binder precomputes a hash set so
  /// long IN-lists (e.g. batched check-out updates) evaluate in O(1)
  /// per row instead of O(items). A cached plan executed with other
  /// parameters uses a per-execution set instead
  /// (ExecContext::InListValues).
  InSet literal_set;
  bool use_literal_set = false;
};

struct BoundBetween : BoundExpr {
  BoundBetween(BoundExprPtr e, BoundExprPtr lo, BoundExprPtr hi, bool neg)
      : BoundExpr(BoundExprKind::kBetween),
        operand(std::move(e)),
        low(std::move(lo)),
        high(std::move(hi)),
        negated(neg) {}
  BoundExprPtr operand;
  BoundExprPtr low;
  BoundExprPtr high;
  bool negated;
};

struct BoundLike : BoundExpr {
  BoundLike(BoundExprPtr e, BoundExprPtr p, bool neg)
      : BoundExpr(BoundExprKind::kLike),
        operand(std::move(e)),
        pattern(std::move(p)),
        negated(neg) {}
  BoundExprPtr operand;
  BoundExprPtr pattern;
  bool negated;
};

struct BoundCase : BoundExpr {
  BoundCase(std::vector<std::pair<BoundExprPtr, BoundExprPtr>> w,
            BoundExprPtr e)
      : BoundExpr(BoundExprKind::kCase),
        whens(std::move(w)),
        else_expr(std::move(e)) {}
  std::vector<std::pair<BoundExprPtr, BoundExprPtr>> whens;
  BoundExprPtr else_expr;  // may be null
};

enum class SubqueryKind {
  kExists,  // [NOT] EXISTS (q)
  kIn,      // operand [NOT] IN (q)
  kScalar,  // (q) used as a value
};

/// A subquery embedded in an expression. The subquery's plan is bound
/// with the enclosing scopes as parents, so its column references may
/// reach outer rows (correlation). `correlated` records whether any do;
/// uncorrelated subqueries are evaluated once per statement and cached
/// (the paper's "intelligent query optimizer will recognize that the
/// inner clause needs to be evaluated only once", Section 5.3.1).
struct BoundSubquery : BoundExpr {
  BoundSubquery(SubqueryKind k, BoundExprPtr op,
                std::unique_ptr<PlanNode> p, bool neg, bool corr);
  ~BoundSubquery() override;

  SubqueryKind subquery_kind;
  BoundExprPtr operand;  // only for kIn
  std::unique_ptr<PlanNode> plan;
  bool negated;
  bool correlated;
};

/// The one place that knows which children each BoundExprKind has. Calls
/// `on_expr(slot)` for each direct child expression slot of `expr` (a
/// `BoundExprPtr&`, const when `expr` is) and `on_plan(slot)` for a
/// subquery's plan slot (`std::unique_ptr<PlanNode>&`). Same order as the
/// AST enumerator (sql::ForEachChild): operand first; a subquery yields
/// its IN operand, then its plan. The two-argument form stops at
/// subquery plans.
template <typename B, typename ExprFn, typename PlanFn>
  requires std::same_as<std::remove_const_t<B>, BoundExpr>
void ForEachChild(B& expr, ExprFn&& on_expr, PlanFn&& on_plan) {
  using sql::ConstLike;
  switch (expr.kind) {
    case BoundExprKind::kLiteral:
    case BoundExprKind::kColumnRef:
      return;
    case BoundExprKind::kUnary:
      on_expr(static_cast<ConstLike<BoundUnary, B>&>(expr).operand);
      return;
    case BoundExprKind::kBinary: {
      auto& e = static_cast<ConstLike<BoundBinary, B>&>(expr);
      on_expr(e.lhs);
      on_expr(e.rhs);
      return;
    }
    case BoundExprKind::kFunctionCall:
      for (auto& a : static_cast<ConstLike<BoundFunctionCall, B>&>(expr).args) {
        on_expr(a);
      }
      return;
    case BoundExprKind::kCast:
      on_expr(static_cast<ConstLike<BoundCast, B>&>(expr).operand);
      return;
    case BoundExprKind::kIsNull:
      on_expr(static_cast<ConstLike<BoundIsNull, B>&>(expr).operand);
      return;
    case BoundExprKind::kInList: {
      auto& e = static_cast<ConstLike<BoundInList, B>&>(expr);
      on_expr(e.operand);
      for (auto& i : e.items) on_expr(i);
      return;
    }
    case BoundExprKind::kBetween: {
      auto& e = static_cast<ConstLike<BoundBetween, B>&>(expr);
      on_expr(e.operand);
      on_expr(e.low);
      on_expr(e.high);
      return;
    }
    case BoundExprKind::kLike: {
      auto& e = static_cast<ConstLike<BoundLike, B>&>(expr);
      on_expr(e.operand);
      on_expr(e.pattern);
      return;
    }
    case BoundExprKind::kCase: {
      auto& e = static_cast<ConstLike<BoundCase, B>&>(expr);
      for (auto& [cond, value] : e.whens) {
        on_expr(cond);
        on_expr(value);
      }
      if (e.else_expr != nullptr) on_expr(e.else_expr);
      return;
    }
    case BoundExprKind::kSubquery: {
      auto& e = static_cast<ConstLike<BoundSubquery, B>&>(expr);
      if (e.operand != nullptr) on_expr(e.operand);
      on_plan(e.plan);
      return;
    }
  }
}

template <typename B, typename ExprFn>
  requires std::same_as<std::remove_const_t<B>, BoundExpr>
void ForEachChild(B& expr, ExprFn&& on_expr) {
  ForEachChild(expr, on_expr,
               [](sql::ConstLike<std::unique_ptr<PlanNode>, B>&) {});
}

}  // namespace pdm

#endif  // PDM_PLAN_BOUND_EXPR_H_
