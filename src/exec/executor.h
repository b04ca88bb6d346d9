#ifndef PDM_EXEC_EXECUTOR_H_
#define PDM_EXEC_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "exec/exec_context.h"
#include "plan/plan_node.h"

namespace pdm {

/// Volcano-style pull iterator over a plan operator. Blocking operators
/// (sort, aggregate, distinct, the nested-loop join's right side)
/// materialize in Open().
class Executor {
 public:
  virtual ~Executor() = default;

  /// Prepares the operator tree; must be called once before Next().
  virtual Status Open() = 0;

  /// Produces the next row into *row; returns false at end of stream.
  virtual Result<bool> Next(Row* row) = 0;
};

/// The one de-duplicating row store, shared by DISTINCT, the UNION
/// de-dup of a CTE's seed and recursive CTE evaluation: it keeps each
/// distinct row once, in admission order. A row is hashed once, when it
/// is inserted, and its hash kept beside it; the open-addressing table
/// holds row indexes, so each admitted row is stored once and growing
/// the table moves no row.
class DistinctRows {
 public:
  /// With `distinct` false every row is admitted (UNION ALL's bag
  /// semantics), so one recursive-CTE evaluator serves both.
  explicit DistinctRows(bool distinct = true) : distinct_(distinct) {}

  /// Room for `n` rows in all without growing.
  void Reserve(size_t n);

  /// Appends `row` (moving from it) unless an equal row is stored; true
  /// if appended. On false `row` is left untouched.
  bool Insert(Row&& row);

  size_t size() const { return rows_.size(); }
  const std::vector<Row>& rows() const { return rows_; }

  /// Moves the rows out, leaving the set empty.
  std::vector<Row> Release();

 private:
  void Rehash(size_t bits);
  size_t SlotOf(size_t hash) const {
    return (hash * 0x9e3779b97f4a7c15ULL) >> (64 - bits_);
  }

  bool distinct_;
  std::vector<Row> rows_;
  std::vector<size_t> hashes_;   // HashRow of rows_[i]
  std::vector<uint32_t> slots_;  // row index + 1; 0 = empty
  size_t bits_ = 0;              // slots_.size() == 2^bits_
};

/// A conjunct of a scan filter that a column index can answer:
/// `column = non-NULL-literal` of a kind comparable with the column's
/// declared type (one key) or a non-negated `column IN
/// (uncorrelated subquery)` whose result the subquery cache keeps (its
/// first-column values are the keys).
struct IndexCandidate {
  size_t column = 0;
  const Value* literal = nullptr;
  const BoundSubquery* subquery = nullptr;
};

/// Collects the index candidates of the top-level AND chain of
/// `filter`, in source order: the one rule for which conjuncts a
/// column index answers, used by ScanExecutor and the bridge's index
/// routing.
void CollectIndexCandidates(const BoundExpr& filter, const ExecContext& ctx,
                            std::vector<IndexCandidate>* out);

/// Builds the executor tree for a plan. CTE scans resolve through the
/// context's CTE bindings, which must be in place before Open().
Result<std::unique_ptr<Executor>> CreateExecutor(const PlanNode& plan,
                                                 ExecContext* ctx);

/// Opens CreateExecutor's tree for `plan` and drains it into a row
/// vector; vec-coverable subtrees run batchwise through the bridge
/// inside that tree. With `wire_bytes`, each produced row's RowWireSize
/// (exec/result_set.h) is added to it as the row is produced — the
/// result's wire size without a second walk over the rows.
Result<std::vector<Row>> ExecutePlan(const PlanNode& plan, ExecContext* ctx,
                                     size_t* wire_bytes = nullptr);

}  // namespace pdm

#endif  // PDM_EXEC_EXECUTOR_H_
