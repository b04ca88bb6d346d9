#ifndef PDM_EXEC_VECTORIZED_H_
#define PDM_EXEC_VECTORIZED_H_

#include <memory>

#include "exec/exec_context.h"
#include "exec/executor.h"
#include "plan/plan_node.h"

namespace pdm {

/// Batch->row bridge (DESIGN.md 5i, 5j), the only way a plan reaches
/// the batch engine: a Volcano executor that runs `plan`'s subtree
/// batch-at-a-time when it is a `Project? -> Filter* -> Scan` chain
/// over a base table (the VecSource shape) with every expression on the
/// routing whitelist (literals, level-0 column refs, unary/binary
/// operators, CAST, IS NULL, BETWEEN, LIKE, literal-set IN). Batches
/// stream fragment-wise to the row-path parent (Sort, UNION, LIMIT,
/// joins, aggregates, ...): a vectorized MVCC pass fills each
/// fragment's selection vector from the snapshot, and the filters
/// refine it. Column kernels (`column <op> literal`, `column IS [NOT]
/// NULL`, and NOT/AND/OR over those) run column-at-a-time; every other
/// filter and computed projection runs through the row evaluator over
/// the surviving slots' table rows, so there is one evaluator for
/// non-kernel expressions on both engines. Only surviving slots are
/// materialized into Rows.
///
/// Returns nullptr when the subtree has another shape, uses an
/// expression off the whitelist, or is an equality scan routed to the
/// row engine's index path; the caller then builds the ordinary row
/// operator and asks again for its children, so a partially-covered
/// plan (vectorized scan under a row-path Sort, join, aggregate or CASE
/// projection) consumes batches below the frontier instead of falling
/// back wholesale. Output rows are byte-identical to the row path's,
/// and a filter or projection error is returned at the row where the
/// row engine fails, so a parent that stops early never sees it.
std::unique_ptr<Executor> MaybeVecExecutor(const PlanNode& plan,
                                           ExecContext* ctx);

}  // namespace pdm

#endif  // PDM_EXEC_VECTORIZED_H_
