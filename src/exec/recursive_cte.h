#ifndef PDM_EXEC_RECURSIVE_CTE_H_
#define PDM_EXEC_RECURSIVE_CTE_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/exec_context.h"
#include "plan/plan_node.h"

namespace pdm {

/// Materializes all CTEs of a statement, in definition order, into
/// `storage` and binds each name in the context so later plans (the main
/// query and subqueries) can scan them.
///
/// Recursive CTEs are evaluated iteratively:
///   * semi-naive (default): each round evaluates the recursive terms
///     with the CTE bound to the *delta* of the previous round only (a
///     range of the accumulated rows, not a copy), and (under
///     UNION-distinct semantics) keeps just the rows not seen before. This is the efficient strategy the paper's reference [10]
///     alludes to.
///   * naive (ExecOptions::semi_naive_recursion = false, ablation): each
///     round re-evaluates the recursive terms against the full
///     accumulated result and stops at fixpoint. Quadratic work on
///     trees; only available for UNION-distinct recursion.
Status MaterializeCtes(const std::vector<BoundCte>& ctes, ExecContext* ctx,
                       std::map<std::string, std::vector<Row>>* storage);

}  // namespace pdm

#endif  // PDM_EXEC_RECURSIVE_CTE_H_
