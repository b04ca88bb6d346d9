#ifndef PDM_EXEC_VECTORIZED_H_
#define PDM_EXEC_VECTORIZED_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "plan/plan_node.h"

namespace pdm {

/// Batch-at-a-time executor for the hot scan shape (DESIGN.md 5i):
///
///   Limit? -> Project? -> Filter* -> Scan
///
/// over a base table, with every expression in the vectorizable subset
/// (literals, level-0 column refs, unary/binary operators, CAST,
/// IS NULL, BETWEEN, LIKE, literal-set IN). Execution walks the table's
/// 1024-row column fragments directly: a vectorized MVCC pass fills the
/// initial selection vector from the snapshot, filters refine it
/// column-at-a-time with row-engine short-circuit semantics, and only
/// the surviving slots are materialized into Rows (late
/// materialization — a filtered-out version never touches a Value).
///
/// Returns false — without touching *out or any stats — when the plan
/// is outside that subset or the row engine would answer the scan from
/// a column index; the caller must then run the Volcano path. On true,
/// *out holds rows value-identical to the row engine's output (same
/// order, same cells), and `wire_bytes` (when given) has each row's
/// RowWireSize added as the row is built. Execution errors propagate as
/// on the row path: a failing projection reports the row engine's
/// first error, and raises nothing when no row survives the filters.
/// The only divergence is filter error *timing* under LIMIT, where the
/// row engine stops mid-fragment and this engine filters the batch.
Result<bool> TryExecuteVectorized(const PlanNode& plan, ExecContext* ctx,
                                  std::vector<Row>* out,
                                  size_t* wire_bytes = nullptr);

/// Batch->row bridge (DESIGN.md 5j): a Volcano executor that runs
/// `plan`'s subtree batch-at-a-time when it is vec-coverable —
///
///   - a `Project? -> Filter* -> Scan` chain over a base table (the
///     VecSource shape; the projection may compute vectorizable
///     expressions, such as the query-all's constant fillers), streamed
///     fragment-wise to the row-path parent (Sort, UNION, ...);
///   - a hash join whose build side is a VecSource projecting only
///     columns (batch build with late materialization, int64 fast-path
///     probe table, per-statement build cache) or whose right side is
///     index-join eligible (probes
///     batched against the table's shared lazy index);
///   - an aggregate whose input is a VecSource and whose group/argument
///     expressions are vectorizable (column-kernel COUNT/SUM/AVG,
///     shared AggState semantics for the rest).
///
/// Returns nullptr when the subtree is outside that coverage (or an
/// equality scan is routed to the row engine's index path); the caller
/// then builds the ordinary row operator. CreateExecutor calls this for
/// every node, so a partially-covered plan (vectorized scan under a
/// row-path Sort or CASE projection) consumes batches below the
/// frontier instead of falling back wholesale. Output rows are
/// byte-identical to the row path's; as with TryExecuteVectorized the
/// only divergence is error timing at batch granularity.
Result<std::unique_ptr<Executor>> MaybeVecExecutor(const PlanNode& plan,
                                                   ExecContext* ctx);

}  // namespace pdm

#endif  // PDM_EXEC_VECTORIZED_H_
