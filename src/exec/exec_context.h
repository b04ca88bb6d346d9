#ifndef PDM_EXEC_EXEC_CONTEXT_H_
#define PDM_EXEC_EXEC_CONTEXT_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "common/value.h"
#include "plan/bound_expr.h"

namespace pdm {

/// Execution-layer switches, toggled by the ablation benches.
struct ExecOptions {
  /// Evaluate recursive CTEs semi-naively (join only against the delta of
  /// the previous iteration) instead of naively re-deriving from the full
  /// result set each round.
  bool semi_naive_recursion = true;
  /// Evaluate uncorrelated subqueries once per statement and reuse the
  /// materialized result — the paper's "intelligent query optimizer"
  /// assumption in Section 5.3.1.
  bool cache_uncorrelated_subqueries = true;
  /// Hard bound on recursion rounds (defense against cyclic data under
  /// UNION ALL semantics).
  size_t max_recursion_iterations = 100000;
  /// Run filtered or projected `Project? -> Filter* -> Scan` chains
  /// batch-at-a-time over the columnar fragments through the batch->row
  /// bridge (exec/vectorized.h) instead of the Volcano scan, filter and
  /// project operators; read only by CreateExecutor. Every other
  /// operator (joins, the index join included, and aggregates) and
  /// every chain the batch engine cannot prove equivalent is the same
  /// row operator in both settings.
  bool vectorized_execution = true;
};

/// Counters accumulated while executing one statement, into storage the
/// caller of Database::Execute owns; asserted on by tests and benches.
struct ExecStats {
  size_t rows_scanned = 0;           // base-table rows touched by scans
  size_t cte_rows_scanned = 0;       // CTE rows touched by CTE scans
  size_t rows_emitted = 0;           // rows leaving the root operator
  size_t recursion_iterations = 0;   // semi-naive / naive rounds
  size_t subquery_evaluations = 0;   // subplan executions
  size_t subquery_cache_hits = 0;    // reused uncorrelated results
  size_t nl_join_probes = 0;         // nested-loop predicate evaluations
  size_t index_scans = 0;            // scans answered from a column index
  size_t index_join_probes = 0;      // left rows the index join probed
  size_t plan_cache_hits = 0;        // statement served from a cached plan
  size_t plan_cache_misses = 0;      // statement freshly parsed and bound
  size_t vec_rows_scanned = 0;       // subset of rows_scanned done batchwise
  size_t vec_batches = 0;            // fragments the vec engine opened
  // Disjoint from index_join_probes: a left row is counted by the join
  // operator that probed it.
  size_t join_probe_rows = 0;        // left rows probed by nested-loop joins
  size_t agg_input_rows = 0;         // rows folded by the aggregator
};

/// The rows a CTE name resolves to: rows[begin, end) of a vector its
/// evaluator owns. Indexes, not pointers into the vector, so a recursive
/// CTE may append its next round to the same vector while a term reads
/// the previous round's range (its delta).
struct CteRows {
  const std::vector<Row>* rows = nullptr;
  size_t begin = 0;
  size_t end = 0;
};

/// A materialized uncorrelated subquery result, with its first column
/// lazily hashed for fast IN evaluation.
struct SubqueryResult {
  std::vector<Row> rows;

  const InSet& FirstColumnValues() const {
    if (first_col_ == nullptr) {
      first_col_ = std::make_unique<InSet>();
      first_col_->values.reserve(rows.size());
      for (const Row& row : rows) first_col_->Add(row[0]);
    }
    return *first_col_;
  }

 private:
  mutable std::unique_ptr<InSet> first_col_;
};

/// Per-statement execution state: catalog access, the statement's
/// fingerprint parameters, materialized CTE bindings, the correlation
/// stack for subqueries, and the uncorrelated subquery cache.
class ExecContext {
 public:
  /// `snapshot_ts` is the MVCC read snapshot (DESIGN.md 5h): scans see
  /// exactly the versions visible at it. The default — one below the
  /// open-version sentinel — reads all committed-or-open data, which is
  /// correct for contexts without a commit clock (client-side scratch
  /// catalogs); the engine always passes a resolved clock value.
  ExecContext(Catalog* catalog, const ExecOptions* options, ExecStats* stats,
              uint64_t snapshot_ts = kMaxCommitTs - 1)
      : catalog_(catalog),
        options_(options),
        stats_(stats),
        snapshot_ts_(snapshot_ts) {}

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  Catalog* catalog() { return catalog_; }
  const ExecOptions& options() const { return *options_; }
  ExecStats& stats() { return *stats_; }
  uint64_t snapshot_ts() const { return snapshot_ts_; }

  /// Fingerprint parameters of the statement a cached plan runs for
  /// (engine/plan_cache.h), or null when the plan was bound from this
  /// statement's own text. Must outlive the execution.
  void set_params(const std::vector<Value>* params) { params_ = params; }

  /// The value `lit` evaluates to in this execution: the statement's
  /// parameter for a literal with a param_slot, else its bind-time
  /// value. Every execution-time read of a literal goes through here.
  const Value& LiteralValue(const BoundLiteral& lit) const {
    if (params_ != nullptr && lit.param_slot >= 0) {
      return (*params_)[static_cast<size_t>(lit.param_slot)];
    }
    return lit.value;
  }

  /// Values of an all-literal IN-list (BoundInList::use_literal_set) as
  /// this execution sees them: the binder's precomputed set, or, when a
  /// cached plan runs with parameters and some item carries a
  /// param_slot, a set built from LiteralValue once per execution.
  const InSet& InListValues(const BoundInList& e) {
    if (params_ == nullptr) return e.literal_set;
    for (const auto& [node, values] : inlist_values_) {
      if (node == &e) return values != nullptr ? *values : e.literal_set;
    }
    std::unique_ptr<InSet> values;
    if (std::any_of(e.items.begin(), e.items.end(), [](const auto& item) {
          return static_cast<const BoundLiteral&>(*item).param_slot >= 0;
        })) {
      values = std::make_unique<InSet>();
      for (const BoundExprPtr& item : e.items) {
        values->Add(LiteralValue(static_cast<const BoundLiteral&>(*item)));
      }
    }
    const InSet& result = values != nullptr ? *values : e.literal_set;
    inlist_values_.emplace_back(&e, std::move(values));
    return result;
  }

  /// Binds (or rebinds) the rows a CTE name resolves to. Used both for
  /// final materialized CTEs and for the delta range during recursive
  /// iteration. Rebinding invalidates the subquery cache.
  void BindCteRows(const std::string& key, CteRows rows) {
    cte_rows_[key] = rows;
    subquery_cache_.clear();
  }

  /// Rows bound to a CTE key, or null.
  const CteRows* FindCteRows(const std::string& key) const {
    auto it = cte_rows_.find(key);
    return it == cte_rows_.end() ? nullptr : &it->second;
  }

  // Correlation stack: subquery evaluation pushes the current outer row;
  // BoundColumnRef{level=k>0} reads the k-th row from the top.
  void PushOuterRow(const Row* row) { outer_rows_.push_back(row); }
  void PopOuterRow() { outer_rows_.pop_back(); }
  size_t outer_depth() const { return outer_rows_.size(); }

  /// Outer row for correlation `level` (1-based: 1 = innermost outer).
  const Row* OuterRow(size_t level) const {
    if (level == 0 || level > outer_rows_.size()) return nullptr;
    return outer_rows_[outer_rows_.size() - level];
  }

  /// Cached result of an uncorrelated subquery, keyed by the
  /// BoundSubquery node's address.
  const SubqueryResult* FindCachedSubquery(const void* key) const {
    auto it = subquery_cache_.find(key);
    return it == subquery_cache_.end() ? nullptr : &it->second;
  }
  const SubqueryResult* CacheSubquery(const void* key,
                                      std::vector<Row> rows) {
    SubqueryResult& entry = subquery_cache_[key];
    entry = SubqueryResult();
    entry.rows = std::move(rows);
    return &entry;
  }

 private:
  Catalog* catalog_;
  const ExecOptions* options_;
  ExecStats* stats_;
  uint64_t snapshot_ts_;
  const std::vector<Value>* params_ = nullptr;
  // Few per statement, so a linear scan beats hashing on the per-row
  // lookup; unique_ptr keeps returned references stable, and null means
  // the list's own bind-time set applies.
  std::vector<std::pair<const BoundInList*, std::unique_ptr<InSet>>>
      inlist_values_;
  std::map<std::string, CteRows> cte_rows_;
  std::vector<const Row*> outer_rows_;
  std::unordered_map<const void*, SubqueryResult> subquery_cache_;
};

}  // namespace pdm

#endif  // PDM_EXEC_EXEC_CONTEXT_H_
