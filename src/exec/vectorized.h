#ifndef PDM_EXEC_VECTORIZED_H_
#define PDM_EXEC_VECTORIZED_H_

#include <memory>

#include "common/result.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "plan/plan_node.h"

namespace pdm {

/// Batch->row bridge (DESIGN.md 5i, 5j), the only way a plan reaches
/// the batch engine: a Volcano executor that runs `plan`'s subtree
/// batch-at-a-time when it is vec-coverable —
///
///   - a `Project? -> Filter* -> Scan` chain over a base table (the
///     VecSource shape) with every expression in the vectorizable subset
///     (literals, level-0 column refs, unary/binary operators, CAST,
///     IS NULL, BETWEEN, LIKE, literal-set IN), streamed fragment-wise
///     to the row-path parent (Sort, UNION, LIMIT, ...): a vectorized
///     MVCC pass fills each fragment's selection vector from the
///     snapshot, filters refine it column-at-a-time with row-engine
///     short-circuit semantics, and only surviving slots are
///     materialized into Rows;
///   - a hash join whose right side is index-join eligible (single key,
///     bare base-table scan): probes go against the table's shared lazy
///     index and matched rows load straight off the column fragments.
///
/// Returns nullptr when the subtree is outside that coverage (or an
/// equality scan is routed to the row engine's index path); the caller
/// then builds the ordinary row operator — a build-mode hash join or an
/// aggregate is always a row operator — and asks again for its
/// children, so a partially-covered plan (vectorized scan under a
/// row-path Sort, aggregate or CASE projection) consumes batches below
/// the frontier instead of falling back wholesale. Output rows are
/// byte-identical to the row path's, and a filter or projection error
/// is returned at the row where the row engine fails, so a parent that
/// stops early never sees it.
Result<std::unique_ptr<Executor>> MaybeVecExecutor(const PlanNode& plan,
                                                   ExecContext* ctx);

}  // namespace pdm

#endif  // PDM_EXEC_VECTORIZED_H_
