#include "exec/recursive_cte.h"

#include "common/string_util.h"
#include "exec/executor.h"

namespace pdm {

namespace {

Status TooManyIterations(const BoundCte& cte, size_t max_iters) {
  return Status::ExecutionError(
      StrFormat("recursive CTE '%s' exceeded %zu iterations (cyclic data?)",
                cte.name.c_str(), max_iters));
}

/// Runs every recursive term against the rows bound to the CTE and
/// inserts what they produce into `result`. Terms see the binding made
/// before the round: rows a term adds lie past its range.
Status RunRecursiveTerms(const BoundCte& cte, ExecContext* ctx,
                         DistinctRows* result) {
  for (const PlanPtr& term : cte.recursive_terms) {
    PDM_ASSIGN_OR_RETURN(std::vector<Row> rows, ExecutePlan(*term, ctx));
    result->Reserve(result->size() + rows.size());
    for (Row& row : rows) result->Insert(std::move(row));
  }
  return Status::OK();
}

/// Each round binds the CTE to the previous round's new rows (the
/// delta): a range of `result`, which stores every row once.
Status EvaluateSemiNaive(const BoundCte& cte, ExecContext* ctx,
                         DistinctRows* result) {
  const size_t max_iters = ctx->options().max_recursion_iterations;
  size_t iterations = 0;
  size_t begin = 0;
  while (begin < result->size()) {
    if (++iterations > max_iters) return TooManyIterations(cte, max_iters);
    ctx->stats().recursion_iterations++;
    const size_t end = result->size();
    ctx->BindCteRows(cte.name, {&result->rows(), begin, end});
    PDM_RETURN_NOT_OK(RunRecursiveTerms(cte, ctx, result));
    begin = end;
  }
  return Status::OK();
}

/// Each round binds the CTE to everything derived so far, until a round
/// adds no row.
Status EvaluateNaive(const BoundCte& cte, ExecContext* ctx,
                     DistinctRows* result) {
  const size_t max_iters = ctx->options().max_recursion_iterations;
  size_t iterations = 0;
  while (true) {
    if (++iterations > max_iters) return TooManyIterations(cte, max_iters);
    ctx->stats().recursion_iterations++;
    const size_t before = result->size();
    ctx->BindCteRows(cte.name, {&result->rows(), 0, before});
    PDM_RETURN_NOT_OK(RunRecursiveTerms(cte, ctx, result));
    if (result->size() == before) return Status::OK();
  }
}

/// Evaluates one recursive CTE into `out`, the fixpoint rows. The CTE's
/// binding is left on the evaluation's own store; the caller rebinds it
/// to `out`'s final home before anything runs against it.
Status EvaluateRecursiveCte(const BoundCte& cte, ExecContext* ctx,
                            std::vector<Row>* out) {
  PDM_ASSIGN_OR_RETURN(std::vector<Row> seed_rows,
                       ExecutePlan(*cte.seed, ctx));
  DistinctRows result(!cte.union_all);
  result.Reserve(seed_rows.size());
  for (Row& row : seed_rows) result.Insert(std::move(row));
  // Bag-semantics recursion has no stable fixpoint test under naive
  // evaluation; it always runs semi-naive, which is exact for it.
  const bool naive = !ctx->options().semi_naive_recursion && !cte.union_all;
  PDM_RETURN_NOT_OK(naive ? EvaluateNaive(cte, ctx, &result)
                          : EvaluateSemiNaive(cte, ctx, &result));
  *out = result.Release();
  return Status::OK();
}

}  // namespace

Status MaterializeCtes(const std::vector<BoundCte>& ctes, ExecContext* ctx,
                       std::map<std::string, std::vector<Row>>* storage) {
  for (const BoundCte& cte : ctes) {
    std::vector<Row> rows;
    if (cte.recursive) {
      PDM_RETURN_NOT_OK(EvaluateRecursiveCte(cte, ctx, &rows));
    } else {
      PDM_ASSIGN_OR_RETURN(rows, ExecutePlan(*cte.seed, ctx));
      if (!cte.union_all && cte.seed->kind == PlanKind::kUnion) {
        // UNION-distinct semantics across seed branches.
        DistinctRows distinct;
        distinct.Reserve(rows.size());
        for (Row& row : rows) distinct.Insert(std::move(row));
        rows = distinct.Release();
      }
    }
    std::vector<Row>& stored = (*storage)[cte.name];
    stored = std::move(rows);
    ctx->BindCteRows(cte.name, {&stored, 0, stored.size()});
  }
  return Status::OK();
}

}  // namespace pdm
