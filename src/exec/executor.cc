#include "exec/executor.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "exec/aggregate_state.h"
#include "exec/expr_eval.h"
#include "exec/result_set.h"
#include "exec/vectorized.h"

namespace pdm {

namespace {

/// A conjunct of a scan filter that a column index can answer:
/// `column = non-NULL-literal` (one key) or a non-negated `column IN
/// (uncorrelated subquery)` whose result the subquery cache keeps (its
/// first-column values are the keys).
struct IndexCandidate {
  size_t column = 0;
  const Value* literal = nullptr;
  const BoundSubquery* subquery = nullptr;
};

/// Collects the index candidates of the top-level AND chain of
/// `filter`, in source order.
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
      if (ref.level == 0 && !value.is_null()) {
        out->push_back({ref.index, &value, nullptr});
      }
    }
  }
}

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
    // reuse its capacity); only a row that passes the filter is handed
    // out, by swap — no per-row Value copies on untouched columns.
    const uint64_t snapshot = ctx_->snapshot_ts();
    if (use_index_) {
      while (pos_ < candidates_.size()) {
        const size_t version_pos = candidates_[pos_++];
        if (!table_->VisibleAt(version_pos, snapshot)) continue;
        table_->MaterializeRow(version_pos, &scratch_);
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
      table_->MaterializeRow(version_pos, &scratch_);
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
    rows_ = ctx_->FindCteRows(node_.cte_name);
    if (rows_ == nullptr) {
      return Status::Internal("CTE '" + node_.cte_name +
                              "' is not materialized");
    }
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    if (pos_ >= rows_->size()) return false;
    ctx_->stats().cte_rows_scanned++;
    *row = (*rows_)[pos_++];
    return true;
  }

 private:
  const CteScanNode& node_;
  ExecContext* ctx_;
  const std::vector<Row>* rows_ = nullptr;
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
    Row input;
    if (child_ != nullptr) {
      PDM_ASSIGN_OR_RETURN(bool has, child_->Next(&input));
      if (!has) return false;
    } else {
      // FROM-less SELECT: exactly one empty input row.
      if (done_) return false;
      done_ = true;
    }
    row->clear();
    row->reserve(node_.exprs.size());
    for (const BoundExprPtr& e : node_.exprs) {
      PDM_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*e, input, ctx_));
      row->push_back(std::move(v));
    }
    return true;
  }

 private:
  const ProjectNode& node_;
  std::unique_ptr<Executor> child_;
  ExecContext* ctx_;
  bool done_ = false;
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

/// Hash inner join: build on the right child, probe with left rows.
/// When the right child is a bare base-table scan and the join has a
/// single key, the table's shared column index substitutes for the
/// per-query build (an "index join" — this is what makes the hundreds
/// of navigational point queries cheap, like a B-tree would in a real
/// RDBMS).
class HashJoinExecutor : public Executor {
 public:
  HashJoinExecutor(const HashJoinNode& node, std::unique_ptr<Executor> left,
                   std::unique_ptr<Executor> right, ExecContext* ctx)
      : node_(node),
        left_(std::move(left)),
        right_(std::move(right)),
        ctx_(ctx) {}

  Status Open() override {
    PDM_RETURN_NOT_OK(left_->Open());
    table_.clear();
    right_rows_.clear();
    index_table_ = nullptr;

    if (node_.right_keys.size() == 1 &&
        node_.right->kind == PlanKind::kScan) {
      const auto& scan = static_cast<const ScanNode&>(*node_.right);
      if (scan.filter == nullptr) {
        PDM_ASSIGN_OR_RETURN(index_table_,
                             ctx_->catalog()->GetTable(scan.table_name));
      }
    }
    if (index_table_ == nullptr) {
      PDM_RETURN_NOT_OK(right_->Open());
      ctx_->stats().hash_join_builds++;
      Row row;
      while (true) {
        PDM_ASSIGN_OR_RETURN(bool has, right_->Next(&row));
        if (!has) break;
        Row key = KeyOf(row, node_.right_keys);
        // Rows with NULL key columns can never match an equi-join.
        if (std::any_of(key.begin(), key.end(),
                        [](const Value& v) { return v.is_null(); })) {
          continue;
        }
        right_rows_.push_back(row);
        table_[std::move(key)].push_back(right_rows_.size() - 1);
      }
    }
    have_left_ = false;
    matches_ = nullptr;
    match_pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    while (true) {
      if (!have_left_) {
        PDM_ASSIGN_OR_RETURN(bool has, left_->Next(&left_row_));
        if (!has) return false;
        ctx_->stats().join_probe_rows++;
        have_left_ = true;
        match_pos_ = 0;
        if (index_table_ != nullptr) {
          // Index-join probe: positions are copied out under the index
          // lock, then visibility-filtered against our snapshot below —
          // safe next to a concurrent writer appending versions.
          ctx_->stats().index_join_probes++;
          index_matches_.clear();
          const Value& key = left_row_[node_.left_keys[0]];
          if (!key.is_null()) {
            index_table_->IndexLookup(node_.right_keys[0], {&key, 1},
                                      &index_matches_);
          }
          matches_ = &index_matches_;
        } else {
          Row key = KeyOf(left_row_, node_.left_keys);
          if (std::any_of(key.begin(), key.end(),
                          [](const Value& v) { return v.is_null(); })) {
            matches_ = nullptr;
          } else {
            auto it = table_.find(key);
            matches_ = it == table_.end() ? nullptr : &it->second;
          }
        }
      }
      if (matches_ != nullptr) {
        while (match_pos_ < matches_->size()) {
          const size_t match = (*matches_)[match_pos_++];
          if (index_table_ != nullptr &&
              !index_table_->VisibleAt(match, ctx_->snapshot_ts())) {
            continue;
          }
          const Row* right_row;
          if (index_table_ != nullptr) {
            index_table_->MaterializeRow(match, &right_scratch_);
            right_row = &right_scratch_;
          } else {
            right_row = &right_rows_[match];
          }
          Row combined;
          combined.reserve(left_row_.size() + right_row->size());
          combined.insert(combined.end(), left_row_.begin(), left_row_.end());
          combined.insert(combined.end(), right_row->begin(),
                          right_row->end());
          if (node_.residual != nullptr) {
            PDM_ASSIGN_OR_RETURN(
                bool pass, EvaluatePredicate(*node_.residual, combined, ctx_));
            if (!pass) continue;
          }
          *row = std::move(combined);
          return true;
        }
      }
      have_left_ = false;
    }
  }

 private:
  static Row KeyOf(const Row& row, const std::vector<size_t>& keys) {
    Row key;
    key.reserve(keys.size());
    for (size_t k : keys) key.push_back(row[k]);
    return key;
  }

  const HashJoinNode& node_;
  std::unique_ptr<Executor> left_;
  std::unique_ptr<Executor> right_;
  ExecContext* ctx_;
  std::unordered_map<Row, std::vector<size_t>, RowHash, RowEq> table_;
  std::vector<Row> right_rows_;
  const Table* index_table_ = nullptr;   // non-null = index-join mode
  std::vector<size_t> index_matches_;    // probe hits (owned copy)
  Row right_scratch_;                    // index-join materialization buffer
  Row left_row_;
  bool have_left_ = false;
  const std::vector<size_t>* matches_ = nullptr;
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

class DistinctExecutor : public Executor {
 public:
  explicit DistinctExecutor(std::unique_ptr<Executor> child)
      : child_(std::move(child)) {}

  Status Open() override {
    seen_.clear();
    return child_->Open();
  }

  Result<bool> Next(Row* row) override {
    while (true) {
      PDM_ASSIGN_OR_RETURN(bool has, child_->Next(row));
      if (!has) return false;
      if (seen_.insert(*row).second) return true;
    }
  }

 private:
  std::unique_ptr<Executor> child_;
  std::unordered_set<Row, RowHash, RowEq> seen_;
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
  // engine: vec-coverable subtrees — scan chains and index joins — run
  // batch-at-a-time even when the plan above them (Sort, LIMIT,
  // aggregates, build-mode joins, CASE projections, ...) stays on the
  // row path.
  if (ctx->options().vectorized_execution) {
    PDM_ASSIGN_OR_RETURN(std::unique_ptr<Executor> vec,
                         MaybeVecExecutor(plan, ctx));
    if (vec != nullptr) return vec;
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
    case PlanKind::kHashJoin: {
      const auto& node = static_cast<const HashJoinNode&>(plan);
      PDM_ASSIGN_OR_RETURN(std::unique_ptr<Executor> left,
                           CreateExecutor(*node.left, ctx));
      PDM_ASSIGN_OR_RETURN(std::unique_ptr<Executor> right,
                           CreateExecutor(*node.right, ctx));
      return std::unique_ptr<Executor>(std::make_unique<HashJoinExecutor>(
          node, std::move(left), std::move(right), ctx));
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
