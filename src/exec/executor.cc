#include "exec/executor.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "catalog/table.h"
#include "common/string_util.h"
#include "exec/aggregate_state.h"
#include "exec/expr_eval.h"
#include "exec/result_set.h"
#include "exec/vectorized.h"

namespace pdm {

void DistinctRows::Reserve(size_t n) {
  rows_.reserve(n);
  if (!distinct_) return;
  hashes_.reserve(n);
  size_t bits = std::max<size_t>(bits_, 4);
  while ((size_t{1} << bits) < 2 * n) ++bits;
  if (bits != bits_) Rehash(bits);
}

bool DistinctRows::Insert(Row&& row) {
  if (distinct_) {
    // At most half full, so a probe ends within a few slots.
    if (2 * (rows_.size() + 1) > slots_.size()) {
      Rehash(std::max<size_t>(bits_ + 1, 4));
    }
    const size_t hash = HashRow(row);
    const size_t mask = slots_.size() - 1;
    size_t i = SlotOf(hash);
    for (; slots_[i] != 0; i = (i + 1) & mask) {
      const size_t at = slots_[i] - 1;
      if (hashes_[at] == hash && RowsEqual(rows_[at], row)) return false;
    }
    slots_[i] = static_cast<uint32_t>(rows_.size() + 1);
    hashes_.push_back(hash);
  }
  rows_.push_back(std::move(row));
  return true;
}

std::vector<Row> DistinctRows::Release() {
  std::vector<Row> rows = std::move(rows_);
  rows_.clear();
  hashes_.clear();
  slots_.clear();
  bits_ = 0;
  return rows;
}

void DistinctRows::Rehash(size_t bits) {
  bits_ = bits;
  slots_.assign(size_t{1} << bits, 0);
  const size_t mask = slots_.size() - 1;
  for (size_t r = 0; r < hashes_.size(); ++r) {
    size_t i = SlotOf(hashes_[r]);
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(r + 1);
  }
}

void CollectIndexCandidates(const BoundExpr& filter, const ExecContext& ctx,
                            std::vector<IndexCandidate>* out) {
  if (filter.kind == BoundExprKind::kSubquery) {
    const auto& sub = static_cast<const BoundSubquery&>(filter);
    if (sub.subquery_kind == SubqueryKind::kIn && !sub.negated &&
        !sub.correlated && ctx.options().cache_uncorrelated_subqueries &&
        sub.operand->kind == BoundExprKind::kColumnRef) {
      const auto& ref = static_cast<const BoundColumnRef&>(*sub.operand);
      if (ref.level == 0) out->push_back({ref.index, nullptr, &sub});
    }
    return;
  }
  if (filter.kind != BoundExprKind::kBinary) return;
  const auto& bin = static_cast<const BoundBinary&>(filter);
  if (bin.op == sql::BinaryOp::kAnd) {
    CollectIndexCandidates(*bin.lhs, ctx, out);
    CollectIndexCandidates(*bin.rhs, ctx, out);
    return;
  }
  if (bin.op == sql::BinaryOp::kEq) {
    const BoundExpr* col = bin.lhs.get();
    const BoundExpr* lit = bin.rhs.get();
    if (col->kind != BoundExprKind::kColumnRef) std::swap(col, lit);
    if (col->kind == BoundExprKind::kColumnRef &&
        lit->kind == BoundExprKind::kLiteral) {
      const auto& ref = static_cast<const BoundColumnRef&>(*col);
      const Value& value =
          ctx.LiteralValue(static_cast<const BoundLiteral&>(*lit));
      // An equality the evaluator rejects is the full scan's to report.
      if (ref.level == 0 && !value.is_null() &&
          Value::ComparableKinds(value.kind(), ColumnKind(ref.column_type))) {
        out->push_back({ref.index, &value, nullptr});
      }
    }
  }
}

namespace {

/// The index keys of `c` in *keys: the literal, or the subquery's
/// first-column values. The subquery runs through RunSubquery, so its
/// cache entry (and `subquery_evaluations`) is the one the filter
/// probes later. False if the subquery fails.
bool IndexKeys(const IndexCandidate& c, ExecContext* ctx,
               std::vector<Value>* keys) {
  keys->clear();
  if (c.literal != nullptr) {
    keys->push_back(*c.literal);
    return true;
  }
  SubqueryResult storage;
  Result<const SubqueryResult*> result =
      RunSubquery(*c.subquery, Row{}, ctx, &storage);
  if (!result.ok()) return false;
  const InSet& set = (*result)->FirstColumnValues();
  keys->assign(set.values.begin(), set.values.end());
  return true;
}

// --- Leaf operators -----------------------------------------------------------

class ScanExecutor : public Executor {
 public:
  ScanExecutor(const ScanNode& node, ExecContext* ctx)
      : node_(node), ctx_(ctx) {}

  Status Open() override {
    PDM_ASSIGN_OR_RETURN(table_, ctx_->catalog()->GetTable(node_.table_name));
    bound_ = table_->num_versions();
    pos_ = 0;
    use_index_ = false;
    if (node_.filter != nullptr) ChooseIndex();
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    // Candidates materialize into a recycled scratch row (string cells
    // reuse its capacity), only the live columns (DESIGN.md 5o); only a
    // row that passes the filter is handed out, by swap — no per-row
    // Value copies on untouched columns.
    const uint64_t snapshot = ctx_->snapshot_ts();
    if (use_index_) {
      while (pos_ < candidates_.size()) {
        const size_t version_pos = candidates_[pos_++];
        if (!table_->VisibleAt(version_pos, snapshot)) continue;
        table_->MaterializeRow(version_pos, &scratch_, node_.live);
        ctx_->stats().rows_scanned++;
        PDM_ASSIGN_OR_RETURN(bool pass,
                             EvaluatePredicate(*node_.filter, scratch_, ctx_));
        if (!pass) continue;
        row->swap(scratch_);
        return true;
      }
      return false;
    }
    while (pos_ < bound_) {
      const size_t version_pos = pos_++;
      if (!table_->VisibleAt(version_pos, snapshot)) continue;
      table_->MaterializeRow(version_pos, &scratch_, node_.live);
      ctx_->stats().rows_scanned++;
      if (node_.filter != nullptr) {
        PDM_ASSIGN_OR_RETURN(bool pass,
                             EvaluatePredicate(*node_.filter, scratch_, ctx_));
        if (!pass) continue;
      }
      row->swap(scratch_);
      return true;
    }
    return false;
  }

 private:
  /// Point lookups (the navigational `link.left = <obid>`) and set
  /// lookups (the recursive expand's `left IN (SELECT obid FROM rtbl)`)
  /// go through the table's lazily built column indexes. A lone
  /// candidate's index is used directly. Among several, the one with a
  /// fresh index and the fewest positions wins; with none fresh, the
  /// first candidate's index is built (a full table pass, amortized
  /// over later statements). If a subquery
  /// fails here the scan stays a full scan, whose filter then surfaces
  /// the error exactly as before. IndexLookup copies the positions under
  /// the table's index lock, so a concurrent writer growing the index
  /// cannot race this scan; the visibility filter in Next() hides
  /// versions outside our snapshot, and the full filter still runs on
  /// every candidate.
  void ChooseIndex() {
    std::vector<IndexCandidate> found;
    CollectIndexCandidates(*node_.filter, *ctx_, &found);
    if (found.empty()) return;
    const IndexCandidate* chosen = &found.front();
    std::vector<Value> keys;
    bool have_keys = false;
    if (found.size() > 1) {
      std::vector<Value> probe;
      std::optional<size_t> fewest;
      for (const IndexCandidate& c : found) {
        // A subquery runs only for a fresh index; a literal's count is
        // its own freshness check (nullopt when stale).
        if (c.subquery != nullptr && !table_->HasFreshIndex(c.column)) {
          continue;
        }
        if (!IndexKeys(c, ctx_, &probe)) return;
        std::optional<size_t> n = table_->FreshIndexCount(c.column, probe);
        if (n.has_value() && (!fewest.has_value() || *n < *fewest)) {
          fewest = n;
          chosen = &c;
          keys.swap(probe);
          have_keys = true;
        }
      }
    }
    if (!have_keys && !IndexKeys(*chosen, ctx_, &keys)) return;
    table_->IndexLookup(chosen->column, keys, &candidates_);
    use_index_ = true;
    ctx_->stats().index_scans++;
  }

  const ScanNode& node_;
  ExecContext* ctx_;
  const Table* table_ = nullptr;
  size_t bound_ = 0;                  // published-version scan bound
  bool use_index_ = false;
  std::vector<size_t> candidates_;    // index hits (owned copy), if any
  size_t pos_ = 0;
  Row scratch_;                       // recycled materialization buffer
};

class CteScanExecutor : public Executor {
 public:
  CteScanExecutor(const CteScanNode& node, ExecContext* ctx)
      : node_(node), ctx_(ctx) {}

  Status Open() override {
    const CteRows* bound = ctx_->FindCteRows(node_.cte_name);
    if (bound == nullptr) {
      return Status::Internal("CTE '" + node_.cte_name +
                              "' is not materialized");
    }
    rows_ = *bound;
    pos_ = rows_.begin;
    return Status::OK();
  }

  /// Copies only the live cells (DESIGN.md 5o) into *row, reusing its
  /// capacity; the others are NULL.
  Result<bool> Next(Row* row) override {
    if (pos_ >= rows_.end) return false;
    ctx_->stats().cte_rows_scanned++;
    const Row& source = (*rows_.rows)[pos_++];
    row->resize(source.size());
    for (size_t c = 0; c < source.size(); ++c) {
      if (IsLive(node_.live, c)) {
        (*row)[c] = source[c];
      } else {
        (*row)[c].SetNull();
      }
    }
    return true;
  }

 private:
  const CteScanNode& node_;
  ExecContext* ctx_;
  CteRows rows_;
  size_t pos_ = 0;
};

// --- Row-at-a-time operators ------------------------------------------------------

class FilterExecutor : public Executor {
 public:
  FilterExecutor(const FilterNode& node, std::unique_ptr<Executor> child,
                 ExecContext* ctx)
      : node_(node), child_(std::move(child)), ctx_(ctx) {}

  Status Open() override { return child_->Open(); }

  Result<bool> Next(Row* row) override {
    while (true) {
      PDM_ASSIGN_OR_RETURN(bool has, child_->Next(row));
      if (!has) return false;
      PDM_ASSIGN_OR_RETURN(bool pass,
                           EvaluatePredicate(*node_.predicate, *row, ctx_));
      if (pass) return true;
    }
  }

 private:
  const FilterNode& node_;
  std::unique_ptr<Executor> child_;
  ExecContext* ctx_;
};

class ProjectExecutor : public Executor {
 public:
  ProjectExecutor(const ProjectNode& node, std::unique_ptr<Executor> child,
                  ExecContext* ctx)
      : node_(node), child_(std::move(child)), ctx_(ctx) {}

  Status Open() override {
    done_ = false;
    return child_ != nullptr ? child_->Open() : Status::OK();
  }

  Result<bool> Next(Row* row) override {
    if (child_ != nullptr) {
      PDM_ASSIGN_OR_RETURN(bool has, child_->Next(&input_));
      if (!has) return false;
    } else {
      // FROM-less SELECT: exactly one empty input row.
      if (done_) return false;
      done_ = true;
    }
    row->clear();
    row->reserve(node_.exprs.size());
    for (const BoundExprPtr& e : node_.exprs) {
      PDM_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*e, input_, ctx_));
      row->push_back(std::move(v));
    }
    return true;
  }

 private:
  const ProjectNode& node_;
  std::unique_ptr<Executor> child_;
  ExecContext* ctx_;
  bool done_ = false;
  Row input_;  // the child's row, recycled: its cells keep their capacity
};

class LimitExecutor : public Executor {
 public:
  LimitExecutor(const LimitNode& node, std::unique_ptr<Executor> child)
      : node_(node), child_(std::move(child)) {}

  Status Open() override {
    emitted_ = 0;
    return child_->Open();
  }

  Result<bool> Next(Row* row) override {
    if (emitted_ >= node_.limit) return false;
    PDM_ASSIGN_OR_RETURN(bool has, child_->Next(row));
    if (!has) return false;
    ++emitted_;
    return true;
  }

 private:
  const LimitNode& node_;
  std::unique_ptr<Executor> child_;
  int64_t emitted_ = 0;
};

// --- Joins ------------------------------------------------------------------------

/// Nested-loop inner join: the right side is materialized once in Open()
/// and re-scanned per left row.
class NestedLoopJoinExecutor : public Executor {
 public:
  NestedLoopJoinExecutor(const NestedLoopJoinNode& node,
                         std::unique_ptr<Executor> left,
                         std::unique_ptr<Executor> right, ExecContext* ctx)
      : node_(node),
        left_(std::move(left)),
        right_(std::move(right)),
        ctx_(ctx) {}

  Status Open() override {
    PDM_RETURN_NOT_OK(left_->Open());
    PDM_RETURN_NOT_OK(right_->Open());
    right_rows_.clear();
    Row row;
    while (true) {
      PDM_ASSIGN_OR_RETURN(bool has, right_->Next(&row));
      if (!has) break;
      right_rows_.push_back(row);
    }
    have_left_ = false;
    right_pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    while (true) {
      if (!have_left_) {
        PDM_ASSIGN_OR_RETURN(bool has, left_->Next(&left_row_));
        if (!has) return false;
        ctx_->stats().join_probe_rows++;
        have_left_ = true;
        right_pos_ = 0;
      }
      while (right_pos_ < right_rows_.size()) {
        const Row& right_row = right_rows_[right_pos_++];
        Row combined;
        combined.reserve(left_row_.size() + right_row.size());
        combined.insert(combined.end(), left_row_.begin(), left_row_.end());
        combined.insert(combined.end(), right_row.begin(), right_row.end());
        if (node_.predicate != nullptr) {
          ctx_->stats().nl_join_probes++;
          PDM_ASSIGN_OR_RETURN(
              bool pass, EvaluatePredicate(*node_.predicate, combined, ctx_));
          if (!pass) continue;
        }
        *row = std::move(combined);
        return true;
      }
      have_left_ = false;
    }
  }

 private:
  const NestedLoopJoinNode& node_;
  std::unique_ptr<Executor> left_;
  std::unique_ptr<Executor> right_;
  ExecContext* ctx_;
  std::vector<Row> right_rows_;
  Row left_row_;
  bool have_left_ = false;
  size_t right_pos_ = 0;
};

/// Index join, the one equi-join operator: the right table's shared lazy
/// column index is probed once per left row (this is what makes the
/// hundreds of navigational point queries cheap, like a B-tree would in
/// a real RDBMS, and keeps the index's cross-statement amortization).
/// The right scan never runs; the table is resolved in Open().
/// Matched right rows load straight from the column fragments into the
/// output row, with no scratch-row copy, residual first (DESIGN.md 5o):
/// only the right columns the residual reads load before it runs, and
/// the rest of the live right columns only for a row that passes. The
/// residual runs whole, in its own order, so an error surfaces at the
/// same row as with every column loaded. It fixes no scan bound: the
/// index may already hold an appended but unpublished version, and a
/// match counts only if VisibleAt admits it when the probe runs. The
/// positions are copied out under the index lock, so a concurrent
/// writer appending versions cannot race the probe.
class IndexJoinExecutor : public Executor {
 public:
  IndexJoinExecutor(const IndexJoinNode& node, std::unique_ptr<Executor> left,
                    ExecContext* ctx)
      : node_(node), left_(std::move(left)), ctx_(ctx) {}

  Status Open() override {
    PDM_ASSIGN_OR_RETURN(
        table_, ctx_->catalog()->GetTable(
                    static_cast<const ScanNode&>(*node_.right).table_name));
    PDM_RETURN_NOT_OK(left_->Open());
    have_left_ = false;
    match_pos_ = 0;
    return Status::OK();
  }

  /// Writes the combined row straight into *row: the left cells once per
  /// call (a rejected match loads over the right cells only), then the
  /// right cells per match.
  Result<bool> Next(Row* row) override {
    const size_t lcols = node_.left->schema.num_columns();
    const ColumnMask& right_live = node_.right->live;
    bool left_in_row = false;
    while (true) {
      if (!have_left_) {
        PDM_ASSIGN_OR_RETURN(bool has, left_->Next(&left_row_));
        if (!has) return false;
        ctx_->stats().index_join_probes++;
        have_left_ = true;
        left_in_row = false;
        match_pos_ = 0;
        positions_.clear();
        const Value& key = left_row_[node_.left_key];
        if (!key.is_null()) {
          table_->IndexLookup(node_.right_key, {&key, 1}, &positions_);
        }
      }
      while (match_pos_ < positions_.size()) {
        const size_t pos = positions_[match_pos_++];
        if (!table_->VisibleAt(pos, ctx_->snapshot_ts())) continue;
        // VisibleAt admits published positions only; clip the span there.
        const Fragment& fragment =
            *table_->FragmentAt(pos >> kFragmentShift, pos + 1).fragment;
        const size_t slot = pos & kFragmentMask;
        if (!left_in_row) {
          row->resize(lcols + table_->schema().num_columns());
          std::copy(left_row_.begin(), left_row_.end(), row->begin());
          left_in_row = true;
        }
        Value* right = row->data() + lcols;
        if (node_.residual != nullptr) {
          fragment.LoadRow(slot, node_.residual_live, right);
          PDM_ASSIGN_OR_RETURN(bool pass,
                               EvaluatePredicate(*node_.residual, *row, ctx_));
          if (!pass) continue;
          // An empty residual_live loaded every column already.
          if (node_.residual_live.empty()) return true;
        }
        fragment.LoadRow(slot, right_live, right);
        return true;
      }
      have_left_ = false;
    }
  }

 private:
  const IndexJoinNode& node_;
  std::unique_ptr<Executor> left_;
  ExecContext* ctx_;
  const Table* table_ = nullptr;
  Row left_row_;
  bool have_left_ = false;
  std::vector<size_t> positions_;  // probe hits (owned copy)
  size_t match_pos_ = 0;
};

// --- Blocking operators --------------------------------------------------------------

/// Hash aggregation; with no group expressions it degenerates to a scalar
/// aggregate that emits exactly one row (even over empty input).
class AggregateExecutor : public Executor {
 public:
  AggregateExecutor(const AggregateNode& node, std::unique_ptr<Executor> child,
                    ExecContext* ctx)
      : node_(node), child_(std::move(child)), ctx_(ctx) {}

  Status Open() override {
    PDM_RETURN_NOT_OK(child_->Open());
    groups_.clear();
    group_index_.clear();
    pos_ = 0;

    const size_t nagg = node_.aggregates.size();
    Row row;
    while (true) {
      PDM_ASSIGN_OR_RETURN(bool has, child_->Next(&row));
      if (!has) break;
      ctx_->stats().agg_input_rows++;
      Row key;
      key.reserve(node_.group_exprs.size());
      for (const BoundExprPtr& g : node_.group_exprs) {
        PDM_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*g, row, ctx_));
        key.push_back(std::move(v));
      }
      GroupState* state;
      auto it = group_index_.find(key);
      if (it == group_index_.end()) {
        group_index_[key] = groups_.size();
        groups_.push_back(GroupState{key, std::vector<AggState>(nagg)});
        state = &groups_.back();
      } else {
        state = &groups_[it->second];
      }
      for (size_t i = 0; i < nagg; ++i) {
        PDM_RETURN_NOT_OK(Accumulate(node_.aggregates[i], row,
                                     &state->aggs[i]));
      }
    }

    // Scalar aggregate over empty input: one all-default group.
    if (node_.group_exprs.empty() && groups_.empty()) {
      groups_.push_back(GroupState{Row{}, std::vector<AggState>(nagg)});
    }
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    while (pos_ < groups_.size()) {
      GroupState& g = groups_[pos_++];
      // The group is finished: move its key cells out (group_index_
      // holds its own copy) and size the output row once.
      Row out = std::move(g.key);
      out.reserve(out.size() + node_.aggregates.size());
      for (size_t i = 0; i < node_.aggregates.size(); ++i) {
        PDM_ASSIGN_OR_RETURN(Value v,
                             FinalizeAgg(node_.aggregates[i], g.aggs[i]));
        out.push_back(std::move(v));
      }
      if (node_.having != nullptr) {
        PDM_ASSIGN_OR_RETURN(bool pass,
                             EvaluatePredicate(*node_.having, out, ctx_));
        if (!pass) continue;
      }
      *row = std::move(out);
      return true;
    }
    return false;
  }

 private:
  struct GroupState {
    Row key;
    std::vector<AggState> aggs;
  };

  /// Folds one input row into the group's accumulator. The value-level
  /// semantics live in exec/aggregate_state.h, shared with the client's
  /// tree aggregates.
  Status Accumulate(const BoundAggregate& agg, const Row& row,
                    AggState* state) {
    if (agg.agg_kind == AggKind::kCountStar) {
      state->count++;
      return Status::OK();
    }
    Result<Value> v = EvaluateExpr(*agg.arg, row, ctx_);
    if (!v.ok()) return v.status();
    return AccumulateAggValue(agg, v.value(), state);
  }

  const AggregateNode& node_;
  std::unique_ptr<Executor> child_;
  ExecContext* ctx_;
  std::vector<GroupState> groups_;
  std::unordered_map<Row, size_t, RowHash, RowEq> group_index_;
  size_t pos_ = 0;
};

class SortExecutor : public Executor {
 public:
  SortExecutor(const SortNode& node, std::unique_ptr<Executor> child)
      : node_(node), child_(std::move(child)) {}

  Status Open() override {
    PDM_RETURN_NOT_OK(child_->Open());
    rows_.clear();
    pos_ = 0;
    Row row;
    while (true) {
      PDM_ASSIGN_OR_RETURN(bool has, child_->Next(&row));
      if (!has) break;
      rows_.push_back(std::move(row));
    }
    // stable_sort, not sort: rows with equal keys keep child order, so
    // ORDER BY output is deterministic and byte-identical whether the
    // child ran on the row path or through the batch->row bridge
    // (both produce rows in version order).
    std::stable_sort(rows_.begin(), rows_.end(),
                     [this](const Row& a, const Row& b) {
                       for (const SortKey& key : node_.keys) {
                         int c = Value::Compare(a[key.column], b[key.column]);
                         if (c != 0) return key.descending ? c > 0 : c < 0;
                       }
                       return false;
                     });
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    if (pos_ >= rows_.size()) return false;
    *row = std::move(rows_[pos_++]);
    return true;
  }

 private:
  const SortNode& node_;
  std::unique_ptr<Executor> child_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

/// Streams each distinct row once: an admitted row moves into the set
/// and a copy goes out; a duplicate stays in *row, whose cells the next
/// child row reuses.
class DistinctExecutor : public Executor {
 public:
  explicit DistinctExecutor(std::unique_ptr<Executor> child)
      : child_(std::move(child)) {}

  Status Open() override {
    seen_ = DistinctRows();
    return child_->Open();
  }

  Result<bool> Next(Row* row) override {
    while (true) {
      PDM_ASSIGN_OR_RETURN(bool has, child_->Next(row));
      if (!has) return false;
      if (seen_.Insert(std::move(*row))) {
        *row = seen_.rows().back();
        return true;
      }
    }
  }

 private:
  std::unique_ptr<Executor> child_;
  DistinctRows seen_;
};

class UnionExecutor : public Executor {
 public:
  explicit UnionExecutor(std::vector<std::unique_ptr<Executor>> children)
      : children_(std::move(children)) {}

  Status Open() override {
    for (std::unique_ptr<Executor>& c : children_) {
      PDM_RETURN_NOT_OK(c->Open());
    }
    current_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    while (current_ < children_.size()) {
      PDM_ASSIGN_OR_RETURN(bool has, children_[current_]->Next(row));
      if (has) return true;
      ++current_;
    }
    return false;
  }

 private:
  std::vector<std::unique_ptr<Executor>> children_;
  size_t current_ = 0;
};

}  // namespace

Result<std::unique_ptr<Executor>> CreateExecutor(const PlanNode& plan,
                                                 ExecContext* ctx) {
  // Batch->row bridge (DESIGN.md 5j), the only way into the batch
  // engine: vec-coverable `Project? -> Filter* -> Scan` chains run
  // batch-at-a-time even when the plan above them (Sort, LIMIT, joins,
  // aggregates, CASE projections, ...) stays on the row path.
  if (ctx->options().vectorized_execution) {
    if (std::unique_ptr<Executor> vec = MaybeVecExecutor(plan, ctx)) {
      return vec;
    }
  }
  switch (plan.kind) {
    case PlanKind::kScan:
      return std::unique_ptr<Executor>(std::make_unique<ScanExecutor>(
          static_cast<const ScanNode&>(plan), ctx));
    case PlanKind::kCteScan:
      return std::unique_ptr<Executor>(std::make_unique<CteScanExecutor>(
          static_cast<const CteScanNode&>(plan), ctx));
    case PlanKind::kFilter: {
      const auto& node = static_cast<const FilterNode&>(plan);
      PDM_ASSIGN_OR_RETURN(std::unique_ptr<Executor> child,
                           CreateExecutor(*node.child, ctx));
      return std::unique_ptr<Executor>(
          std::make_unique<FilterExecutor>(node, std::move(child), ctx));
    }
    case PlanKind::kProject: {
      const auto& node = static_cast<const ProjectNode&>(plan);
      std::unique_ptr<Executor> child;
      if (node.child != nullptr) {
        PDM_ASSIGN_OR_RETURN(child, CreateExecutor(*node.child, ctx));
      }
      return std::unique_ptr<Executor>(
          std::make_unique<ProjectExecutor>(node, std::move(child), ctx));
    }
    case PlanKind::kNestedLoopJoin: {
      const auto& node = static_cast<const NestedLoopJoinNode&>(plan);
      PDM_ASSIGN_OR_RETURN(std::unique_ptr<Executor> left,
                           CreateExecutor(*node.left, ctx));
      PDM_ASSIGN_OR_RETURN(std::unique_ptr<Executor> right,
                           CreateExecutor(*node.right, ctx));
      return std::unique_ptr<Executor>(std::make_unique<NestedLoopJoinExecutor>(
          node, std::move(left), std::move(right), ctx));
    }
    case PlanKind::kIndexJoin: {
      const auto& node = static_cast<const IndexJoinNode&>(plan);
      PDM_ASSIGN_OR_RETURN(std::unique_ptr<Executor> left,
                           CreateExecutor(*node.left, ctx));
      return std::unique_ptr<Executor>(
          std::make_unique<IndexJoinExecutor>(node, std::move(left), ctx));
    }
    case PlanKind::kAggregate: {
      const auto& node = static_cast<const AggregateNode&>(plan);
      PDM_ASSIGN_OR_RETURN(std::unique_ptr<Executor> child,
                           CreateExecutor(*node.child, ctx));
      return std::unique_ptr<Executor>(
          std::make_unique<AggregateExecutor>(node, std::move(child), ctx));
    }
    case PlanKind::kSort: {
      const auto& node = static_cast<const SortNode&>(plan);
      PDM_ASSIGN_OR_RETURN(std::unique_ptr<Executor> child,
                           CreateExecutor(*node.child, ctx));
      return std::unique_ptr<Executor>(
          std::make_unique<SortExecutor>(node, std::move(child)));
    }
    case PlanKind::kDistinct: {
      const auto& node = static_cast<const DistinctNode&>(plan);
      PDM_ASSIGN_OR_RETURN(std::unique_ptr<Executor> child,
                           CreateExecutor(*node.child, ctx));
      return std::unique_ptr<Executor>(
          std::make_unique<DistinctExecutor>(std::move(child)));
    }
    case PlanKind::kUnion: {
      const auto& node = static_cast<const UnionNode&>(plan);
      std::vector<std::unique_ptr<Executor>> children;
      children.reserve(node.children.size());
      for (const PlanPtr& c : node.children) {
        PDM_ASSIGN_OR_RETURN(std::unique_ptr<Executor> child,
                             CreateExecutor(*c, ctx));
        children.push_back(std::move(child));
      }
      return std::unique_ptr<Executor>(
          std::make_unique<UnionExecutor>(std::move(children)));
    }
    case PlanKind::kLimit: {
      const auto& node = static_cast<const LimitNode&>(plan);
      PDM_ASSIGN_OR_RETURN(std::unique_ptr<Executor> child,
                           CreateExecutor(*node.child, ctx));
      return std::unique_ptr<Executor>(
          std::make_unique<LimitExecutor>(node, std::move(child)));
    }
  }
  return Status::Internal("unhandled plan kind");
}

Result<std::vector<Row>> ExecutePlan(const PlanNode& plan, ExecContext* ctx,
                                     size_t* wire_bytes) {
  PDM_ASSIGN_OR_RETURN(std::unique_ptr<Executor> executor,
                       CreateExecutor(plan, ctx));
  PDM_RETURN_NOT_OK(executor->Open());
  std::vector<Row> rows;
  Row row;
  while (true) {
    PDM_ASSIGN_OR_RETURN(bool has, executor->Next(&row));
    if (!has) break;
    if (wire_bytes != nullptr) *wire_bytes += RowWireSize(row);
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace pdm
