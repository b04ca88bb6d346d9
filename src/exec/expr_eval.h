#ifndef PDM_EXEC_EXPR_EVAL_H_
#define PDM_EXEC_EXPR_EVAL_H_

#include "common/result.h"
#include "common/value.h"
#include "exec/exec_context.h"
#include "plan/bound_expr.h"

namespace pdm {

/// Evaluates a bound expression against `row` (level 0) with SQL
/// three-valued logic: NULL is represented by Value::Null(), AND/OR use
/// Kleene semantics, comparisons with NULL yield NULL. Subqueries are
/// executed through `ctx` (which also supplies the correlation stack and
/// the uncorrelated-subquery cache).
Result<Value> EvaluateExpr(const BoundExpr& expr, const Row& row,
                           ExecContext* ctx);

/// Evaluates a predicate: true only if the expression evaluates to
/// boolean TRUE (NULL and FALSE both reject, as in SQL WHERE).
Result<bool> EvaluatePredicate(const BoundExpr& expr, const Row& row,
                               ExecContext* ctx);

/// Runs a subquery's plan with `row` as its outer row. An uncorrelated
/// subquery's result is cached in `ctx` (when the options allow) and
/// shared by every later run; an uncached result lands in `storage`.
Result<const SubqueryResult*> RunSubquery(const BoundSubquery& sub,
                                          const Row& row, ExecContext* ctx,
                                          SubqueryResult* storage);

/// SQL comparison producing NULL on NULL inputs; error on incomparable
/// non-NULL kinds.
Result<Value> SqlCompareValues(sql::BinaryOp op, const Value& a,
                               const Value& b);

}  // namespace pdm

#endif  // PDM_EXEC_EXPR_EVAL_H_
