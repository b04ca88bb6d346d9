#include "exec/vectorized.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/table.h"
#include "common/string_util.h"
#include "exec/expr_eval.h"
#include "exec/result_set.h"
#include "exec/vec_batch.h"

namespace pdm {

namespace {

// ---------------------------------------------------------------------------
// Plan gate
// ---------------------------------------------------------------------------

/// True when an equality scan belongs to the row engine's index path:
/// some equality column already has a fresh index, or its demand
/// history says the lazy build is about to amortize (second sighting
/// onward). A first-touch point filter on a never-indexed column sweeps
/// batchwise instead — the vectorized full pass costs no more than the
/// full pass the lazy index build would do, and an index nobody asks
/// for twice is never built.
bool RouteScanToRowIndexPath(const ScanNode& scan, const Table& table,
                             const ExecContext& ctx) {
  if (scan.filter == nullptr) return false;
  std::vector<IndexCandidate> found;
  CollectIndexCandidates(*scan.filter, ctx, &found);
  const size_t num_columns = table.schema().num_columns();
  for (const IndexCandidate& c : found) {
    if (c.column < num_columns && table.HasFreshIndex(c.column)) return true;
  }
  bool repeat = false;
  for (const IndexCandidate& c : found) {
    if (c.column < num_columns && table.NoteIndexDemand(c.column) > 0) {
      repeat = true;
    }
  }
  return repeat;
}

/// The bridge's routing rule: true when a chain may run batchwise with
/// `expr` in it. It does not say what the batch engine can evaluate:
/// kernel predicates (IsKernelPredicate) run column-at-a-time, and any
/// other expression it accepts runs through the row evaluator over the
/// table row. It decides which scans the bridge serves, and so which
/// rows are charged the vectorized scan rate (`per_row_scan_vec_s`), so
/// widening it moves the simulated server time of the paper's tables.
/// Tracks the widest level-0 column index so the caller can bounds-check
/// against the table schema before committing to the bridge.
bool CanVectorizeExpr(const BoundExpr& expr, size_t* max_col) {
  switch (expr.kind) {
    case BoundExprKind::kLiteral:
      return true;
    case BoundExprKind::kColumnRef: {
      const auto& ref = static_cast<const BoundColumnRef&>(expr);
      if (ref.level != 0) return false;  // correlated: row path only
      *max_col = std::max(*max_col, ref.index);
      return true;
    }
    case BoundExprKind::kInList:  // only the literal-set form
      if (!static_cast<const BoundInList&>(expr).use_literal_set) return false;
      break;
    case BoundExprKind::kUnary:
    case BoundExprKind::kBinary:
    case BoundExprKind::kCast:
    case BoundExprKind::kIsNull:
    case BoundExprKind::kBetween:
    case BoundExprKind::kLike:
      break;
    case BoundExprKind::kFunctionCall:  // opaque scalar function
    case BoundExprKind::kCase:          // per-row WHEN short-circuit
    case BoundExprKind::kSubquery:      // needs the row-path machinery
      return false;
  }
  bool ok = true;
  ForEachChild(expr, [&](const BoundExprPtr& c) {
    ok = ok && CanVectorizeExpr(*c, max_col);
  });
  return ok;
}

/// True when `expr` reads no column: its value is the same for every
/// row of an execution, so the projection evaluates it once.
bool IsConstantExpr(const BoundExpr& expr) {
  if (expr.kind == BoundExprKind::kColumnRef) return false;
  bool constant = true;
  ForEachChild(expr, [&](const BoundExprPtr& c) {
    constant = constant && IsConstantExpr(*c);
  });
  return constant;
}

// ---------------------------------------------------------------------------
// Column kernels: predicate -> {TRUE=1, FALSE=0, NULL=-1} per selected slot
// ---------------------------------------------------------------------------

using TriVec = std::vector<int8_t>;

bool IsComparison(sql::BinaryOp op) {
  return op == sql::BinaryOp::kEq || op == sql::BinaryOp::kNotEq ||
         op == sql::BinaryOp::kLess || op == sql::BinaryOp::kLessEq ||
         op == sql::BinaryOp::kGreater || op == sql::BinaryOp::kGreaterEq;
}

/// True when `expr` reads the column arrays directly: `column <op>
/// literal` (either side), `column IS [NOT] NULL`, and NOT, AND and OR
/// over those. Every value such a predicate combines is TRUE, FALSE or
/// NULL, so it can fail only on a comparison of incomparable kinds.
bool IsKernelPredicate(const BoundExpr& expr) {
  switch (expr.kind) {
    case BoundExprKind::kBinary: {
      const auto& e = static_cast<const BoundBinary&>(expr);
      if (e.op == sql::BinaryOp::kAnd || e.op == sql::BinaryOp::kOr) {
        return IsKernelPredicate(*e.lhs) && IsKernelPredicate(*e.rhs);
      }
      const BoundExprKind l = e.lhs->kind;
      const BoundExprKind r = e.rhs->kind;
      return IsComparison(e.op) && ((l == BoundExprKind::kColumnRef &&
                                     r == BoundExprKind::kLiteral) ||
                                    (l == BoundExprKind::kLiteral &&
                                     r == BoundExprKind::kColumnRef));
    }
    case BoundExprKind::kUnary: {
      const auto& e = static_cast<const BoundUnary&>(expr);
      return e.op == sql::UnaryOp::kNot && IsKernelPredicate(*e.operand);
    }
    case BoundExprKind::kIsNull:
      return static_cast<const BoundIsNull&>(expr).operand->kind ==
             BoundExprKind::kColumnRef;
    default:
      return false;
  }
}

Status EvalTri(const BoundExpr& expr, ExecContext* ctx,
               const FragmentSpan& span, const uint32_t* rows, size_t n,
               TriVec* out);

/// tri := cell <op> literal (or flipped), straight off the column
/// arrays: no Value is constructed for any cell. Mirrors
/// SqlCompareValues exactly — NULL on a NULL side, error on incomparable
/// non-NULL kinds, exact int64 compare, mixed numerics via double.
Status CompareColumnLiteral(sql::BinaryOp op, const ColumnSpan& col,
                            const Value& lit, bool lit_on_left,
                            const uint32_t* rows, size_t n, TriVec* out) {
  out->resize(n);
  if (lit.is_null()) {
    std::fill(out->begin(), out->end(), int8_t{-1});
    return Status::OK();
  }
  const ValueKind lk = lit.kind();
  const bool lit_numeric = lit.is_numeric();
  const int64_t li = lit.is_int64() ? lit.int64_value() : 0;
  const double ld = lit_numeric ? lit.AsDouble() : 0.0;
  const std::string* ls = lit.is_string() ? &lit.string_value() : nullptr;
  const int lb = lit.is_bool() ? (lit.bool_value() ? 1 : 0) : 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t slot = rows[i];
    const ValueKind ck = static_cast<ValueKind>(col.kinds[slot]);
    if (ck == ValueKind::kNull) {
      (*out)[i] = -1;
      continue;
    }
    int c;  // sign of (cell - literal)
    if (ck == ValueKind::kInt64 && lk == ValueKind::kInt64) {
      const int64_t x = static_cast<int64_t>(col.fixed[slot]);
      c = x < li ? -1 : (x > li ? 1 : 0);
    } else if ((ck == ValueKind::kInt64 || ck == ValueKind::kDouble) &&
               lit_numeric) {
      const double x =
          ck == ValueKind::kInt64
              ? static_cast<double>(static_cast<int64_t>(col.fixed[slot]))
              : BitsToDouble(col.fixed[slot]);
      c = x < ld ? -1 : (x > ld ? 1 : 0);
    } else if (ck == ValueKind::kString && lk == ValueKind::kString) {
      const int r = col.strs[slot].compare(*ls);
      c = r < 0 ? -1 : (r > 0 ? 1 : 0);
    } else if (ck == ValueKind::kBool && lk == ValueKind::kBool) {
      c = (col.fixed[slot] != 0 ? 1 : 0) - lb;
    } else {
      const std::string cn(ValueKindName(ck));
      const std::string ln(ValueKindName(lk));
      return Status::ExecutionError(StrFormat(
          "cannot compare %s with %s", lit_on_left ? ln.c_str() : cn.c_str(),
          lit_on_left ? cn.c_str() : ln.c_str()));
    }
    if (lit_on_left) c = -c;
    bool t;
    switch (op) {
      case sql::BinaryOp::kEq:
        t = c == 0;
        break;
      case sql::BinaryOp::kNotEq:
        t = c != 0;
        break;
      case sql::BinaryOp::kLess:
        t = c < 0;
        break;
      case sql::BinaryOp::kLessEq:
        t = c <= 0;
        break;
      case sql::BinaryOp::kGreater:
        t = c > 0;
        break;
      case sql::BinaryOp::kGreaterEq:
        t = c >= 0;
        break;
      default:
        return Status::Internal("not a comparison operator");
    }
    (*out)[i] = t ? 1 : 0;
  }
  return Status::OK();
}

/// Kleene AND/OR with row-engine short-circuit at batch granularity: the
/// rhs runs only over slots the lhs left undecided.
Status EvalTriLogic(const BoundBinary& e, ExecContext* ctx,
                    const FragmentSpan& span, const uint32_t* rows, size_t n,
                    TriVec* out) {
  const bool is_and = e.op == sql::BinaryOp::kAnd;
  const int8_t decided = is_and ? 0 : 1;
  TriVec lhs;
  PDM_RETURN_NOT_OK(EvalTri(*e.lhs, ctx, span, rows, n, &lhs));
  std::vector<uint32_t> rest_rows;
  std::vector<size_t> rest_idx;
  for (size_t i = 0; i < n; ++i) {
    if (lhs[i] == decided) continue;
    rest_rows.push_back(rows[i]);
    rest_idx.push_back(i);
  }
  TriVec rhs;
  if (!rest_rows.empty()) {
    PDM_RETURN_NOT_OK(
        EvalTri(*e.rhs, ctx, span, rest_rows.data(), rest_rows.size(), &rhs));
  }
  out->resize(n);
  std::fill(out->begin(), out->end(), decided);
  for (size_t j = 0; j < rest_idx.size(); ++j) {
    const int8_t l = lhs[rest_idx[j]];
    const int8_t r = rhs[j];
    int8_t v;
    if (is_and) {
      v = r == 0 ? 0 : ((l == 1 && r == 1) ? 1 : int8_t{-1});
    } else {
      v = r == 1 ? 1 : ((l == 0 && r == 0) ? 0 : int8_t{-1});
    }
    (*out)[rest_idx[j]] = v;
  }
  return Status::OK();
}

/// Runs a kernel predicate (IsKernelPredicate) over the selected slots.
Status EvalTri(const BoundExpr& expr, ExecContext* ctx,
               const FragmentSpan& span, const uint32_t* rows, size_t n,
               TriVec* out) {
  switch (expr.kind) {
    case BoundExprKind::kBinary: {
      const auto& e = static_cast<const BoundBinary&>(expr);
      if (e.op == sql::BinaryOp::kAnd || e.op == sql::BinaryOp::kOr) {
        return EvalTriLogic(e, ctx, span, rows, n, out);
      }
      const bool lit_on_left = e.lhs->kind == BoundExprKind::kLiteral;
      const auto& ref = static_cast<const BoundColumnRef&>(
          lit_on_left ? *e.rhs : *e.lhs);
      const auto& lit =
          static_cast<const BoundLiteral&>(lit_on_left ? *e.lhs : *e.rhs);
      return CompareColumnLiteral(e.op, span.column(ref.index),
                                  ctx->LiteralValue(lit), lit_on_left, rows, n,
                                  out);
    }
    case BoundExprKind::kUnary: {  // NOT
      const auto& e = static_cast<const BoundUnary&>(expr);
      PDM_RETURN_NOT_OK(EvalTri(*e.operand, ctx, span, rows, n, out));
      for (int8_t& t : *out) {
        if (t != -1) t = t == 1 ? 0 : 1;
      }
      return Status::OK();
    }
    case BoundExprKind::kIsNull: {
      // Null-ness straight from the kind tags; never NULL-valued.
      const auto& e = static_cast<const BoundIsNull&>(expr);
      const auto& ref = static_cast<const BoundColumnRef&>(*e.operand);
      const ColumnSpan col = span.column(ref.index);
      out->resize(n);
      for (size_t i = 0; i < n; ++i) {
        const bool isnull =
            static_cast<ValueKind>(col.kinds[rows[i]]) == ValueKind::kNull;
        (*out)[i] = (e.negated ? !isnull : isnull) ? 1 : 0;
      }
      return Status::OK();
    }
    default:
      return Status::Internal("not a kernel predicate");
  }
}

// ---------------------------------------------------------------------------
// VecSource: the batch producer under the bridge leaf
// ---------------------------------------------------------------------------

/// A vec-coverable `Project? -> Filter* -> Scan` chain: the shape the
/// bridge leaf consumes batches from. `filters` are in the row
/// engine's application order and reference table columns (they sit
/// below the projection); the first `kernel_filters` of them are kernel
/// predicates (IsKernelPredicate), run column-at-a-time, and the rest
/// run through the row evaluator. `max_col` is the widest level-0
/// column any filter or projected expression references (bounds-checked
/// against the table schema on resolve). A non-empty `project` is the
/// peeled projection: output column c loads table column out_cols[c]
/// straight off the fragment when project[c] is a bare column
/// reference, and is an expression (out_cols[c] == kComputed)
/// otherwise. Empty means identity.
struct VecSourceSpec {
  static constexpr size_t kComputed = std::numeric_limits<size_t>::max();

  const ScanNode* scan = nullptr;
  std::vector<const BoundExpr*> filters;
  size_t kernel_filters = 0;
  size_t max_col = 0;
  std::vector<const BoundExpr*> project;
  std::vector<size_t> out_cols;
  const ColumnMask* project_live = nullptr;  // the Project's live outputs
};

/// Peels `Project? -> Filter* -> Scan` and gates every projected and
/// filter expression through the routing rule (CanVectorizeExpr);
/// false on any other shape.
bool MatchVecSource(const PlanNode& plan, VecSourceSpec* out) {
  const PlanNode* node = &plan;
  if (node->kind == PlanKind::kProject) {
    const auto& project = static_cast<const ProjectNode&>(*node);
    if (project.child == nullptr || project.exprs.empty()) return false;
    out->project.reserve(project.exprs.size());
    out->out_cols.reserve(project.exprs.size());
    for (const BoundExprPtr& e : project.exprs) {
      if (!CanVectorizeExpr(*e, &out->max_col)) return false;
      out->project.push_back(e.get());
      out->out_cols.push_back(
          e->kind == BoundExprKind::kColumnRef
              ? static_cast<const BoundColumnRef&>(*e).index
              : VecSourceSpec::kComputed);
    }
    out->project_live = &project.live;
    node = project.child.get();
  }
  std::vector<const BoundExpr*> outer_first;
  while (node->kind == PlanKind::kFilter) {
    const auto& filter = static_cast<const FilterNode&>(*node);
    outer_first.push_back(filter.predicate.get());
    node = filter.child.get();
  }
  if (node->kind != PlanKind::kScan) return false;
  out->scan = static_cast<const ScanNode*>(node);
  if (out->scan->filter != nullptr) {
    out->filters.push_back(out->scan->filter.get());
  }
  out->filters.insert(out->filters.end(), outer_first.rbegin(),
                      outer_first.rend());
  for (const BoundExpr* f : out->filters) {
    if (!CanVectorizeExpr(*f, &out->max_col)) return false;
  }
  while (out->kernel_filters < out->filters.size() &&
         IsKernelPredicate(*out->filters[out->kernel_filters])) {
    ++out->kernel_filters;
  }
  return true;
}

/// Resolves the source's base table, applying the bounds check and the
/// row-index routing rule. nullptr = run this source (and whatever sits
/// on top of it) on the row path.
const Table* ResolveVecSource(const VecSourceSpec& spec, ExecContext* ctx) {
  Result<Table*> table_or = ctx->catalog()->GetTable(spec.scan->table_name);
  if (!table_or.ok()) return nullptr;  // row path reports the same error
  const Table* table = table_or.value();
  if (spec.max_col >= table->schema().num_columns()) {
    return nullptr;  // defensive: let the row path surface the binder bug
  }
  if (RouteScanToRowIndexPath(*spec.scan, *table, *ctx)) return nullptr;
  return table;
}

/// Loads slot `slot` of `span` as the table row ScanExecutor
/// materializes for `spec`'s scan: its live columns (which cover every
/// filter and projection of the chain), reusing *row's capacity.
void LoadTableRow(const VecSourceSpec& spec, const FragmentSpan& span,
                  uint32_t slot, Row* row) {
  row->resize(span.fragment->cols.size());
  span.fragment->LoadRow(slot, spec.scan->live, row->data());
}

/// Streams the filtered batches of a resolved VecSource: per batch a
/// vectorized MVCC pass fills the selection vector, the filters shrink
/// it, and only non-empty survivors come back. Charges rows_scanned and
/// vec_rows_scanned per visible version. The batch engine's only table
/// scan: like ScanExecutor::Open it fixes the scan bound (the published
/// version count) once, so a version published mid-scan stays unseen.
///
/// A batch is a window of one fragment's slots. Windows start at one
/// slot and double with every batch up to a whole fragment, so a parent
/// that stops after a few rows (LIMIT) makes the scan visit, filter and
/// project about as many slots as it takes, while a full scan splits
/// only its first fragment (into about log2(1024) batches).
///
/// The leading kernel filters run column-at-a-time. From the first
/// other filter on, the batch is filtered row by row (FilterRows); so
/// is a batch whose kernel fails, since column-at-a-time it may have
/// met a later row's error first, or one the row engine never reaches
/// because its parent stops pulling. A filter error is returned by the
/// next NextBatch call, after the consumer has taken the rows before
/// the failing one.
///
/// `span_` borrows a fragment across NextBatch calls. It stays valid
/// because the statement holds a registered snapshot (or the DML mutex)
/// for as long as the cursor lives, and version GC, the only operation
/// that frees fragments, takes the DML mutex and defers while any
/// snapshot is registered (DESIGN.md 5h).
class VecSourceCursor {
 public:
  VecSourceCursor(const VecSourceSpec* spec, const Table* table,
                  ExecContext* ctx)
      : spec_(spec), table_(table), ctx_(ctx) {
    bound_ = table_->num_versions();
    frags_ = (bound_ + kFragmentRows - 1) >> kFragmentShift;
  }

  Result<bool> NextBatch(VecBatch* batch) {
    if (!pending_.ok()) return pending_;
    ExecStats& stats = ctx_->stats();
    const std::vector<const BoundExpr*>& filters = spec_->filters;
    while (frag_ < frags_) {
      if (begin_ == 0) {
        span_ = table_->FragmentAt(frag_, bound_);
        stats.vec_batches++;
      }
      const size_t end = std::min(span_.rows, begin_ + window_);
      batch->span = span_;
      batch->FillVisible(ctx_->snapshot_ts(), begin_, end);
      window_ = std::min(2 * window_, kFragmentRows);
      begin_ = end;
      if (begin_ == span_.rows) {
        ++frag_;
        begin_ = 0;
      }
      stats.rows_scanned += batch->sel.size();
      stats.vec_rows_scanned += batch->sel.size();
      size_t f = 0;
      for (; f < spec_->kernel_filters && !batch->sel.empty(); ++f) {
        if (!EvalTri(*filters[f], ctx_, batch->span, batch->sel.data(),
                     batch->sel.size(), &tri_)
                 .ok()) {
          break;
        }
        survivors_.clear();
        for (size_t i = 0; i < batch->sel.size(); ++i) {
          if (tri_[i] == 1) survivors_.push_back(batch->sel[i]);
        }
        batch->sel.swap(survivors_);
      }
      if (f < filters.size() && !batch->sel.empty()) FilterRows(f, batch);
      if (!batch->sel.empty()) return true;
      if (!pending_.ok()) return pending_;
    }
    return false;
  }

 private:
  /// The row engine's filtering of the batch's selection from filter
  /// `first` on: each slot, in order, runs the filters through
  /// EvaluatePredicate in the row chain's order. The filters before
  /// `first` already ran error-free over every slot, so their verdicts
  /// stand. Stops at the first error, keeping the rows before it and
  /// holding the error back in `pending_`.
  void FilterRows(size_t first, VecBatch* batch) {
    size_t kept = 0;
    for (uint32_t slot : batch->sel) {
      LoadTableRow(*spec_, batch->span, slot, &row_);
      bool pass = true;
      for (size_t f = first; pass && f < spec_->filters.size(); ++f) {
        Result<bool> verdict =
            EvaluatePredicate(*spec_->filters[f], row_, ctx_);
        if (!verdict.ok()) {
          pending_ = verdict.status();
          batch->sel.resize(kept);
          return;
        }
        pass = *verdict;
      }
      if (pass) batch->sel[kept++] = slot;
    }
    batch->sel.resize(kept);
  }

  const VecSourceSpec* spec_;
  const Table* table_;
  ExecContext* ctx_;
  size_t bound_ = 0;
  size_t frags_ = 0;
  size_t frag_ = 0;    // fragment of the next window
  FragmentSpan span_;  // that fragment, once opened
  size_t begin_ = 0;   // the window's first slot; 0 = open the fragment
  size_t window_ = 1;  // slots in the next window
  TriVec tri_;
  std::vector<uint32_t> survivors_;
  Row row_;         // FilterRows' table row
  Status pending_;  // a filter error held back until the rows before it
};

/// Late materialization of a VecSource's output rows for the bridge
/// leaf, with ProjectExecutor's semantics: each row evaluates its
/// output columns in order and returns the first error. A column
/// reference loads straight off the fragment (NULL when dead, DESIGN.md
/// 5o). A constant column, such as the query-all's `''` and `CAST(NULL
/// AS ...)` fillers, is evaluated once, when the first row reaches it,
/// and its Result is kept. Any other column runs through EvaluateExpr
/// over the table row.
class VecProjection {
 public:
  VecProjection(const VecSourceSpec* spec, ExecContext* ctx)
      : spec_(spec),
        ctx_(ctx),
        constant_(spec->project.size()),
        constants_(spec->project.size()) {
    for (size_t c = 0; c < spec->project.size(); ++c) {
      if (spec->out_cols[c] != VecSourceSpec::kComputed) continue;
      constant_[c] = IsConstantExpr(*spec->project[c]);
      reads_row_ = reads_row_ || !constant_[c];
    }
  }

  /// Materializes slot `slot` of `span` into *row, reusing its
  /// capacity, with the live columns only (DESIGN.md 5o); fails with
  /// the row engine's error for this row.
  Status Emit(const FragmentSpan& span, uint32_t slot, Row* row) {
    if (spec_->project.empty()) {
      LoadTableRow(*spec_, span, slot, row);
      return Status::OK();
    }
    if (reads_row_) LoadTableRow(*spec_, span, slot, &input_);
    row->resize(spec_->project.size());
    for (size_t c = 0; c < row->size(); ++c) {
      const size_t col = spec_->out_cols[c];
      Value& cell = (*row)[c];
      if (col != VecSourceSpec::kComputed) {
        if (IsLive(*spec_->project_live, c)) {
          span.fragment->cols[col].LoadInto(slot, &cell);
        } else {
          cell.SetNull();
        }
      } else if (constant_[c]) {
        std::optional<Result<Value>>& constant = constants_[c];
        if (!constant.has_value()) {
          constant.emplace(EvaluateExpr(*spec_->project[c], input_, ctx_));
        }
        if (!constant->ok()) return constant->status();
        cell = constant->value();
      } else {
        PDM_ASSIGN_OR_RETURN(cell,
                             EvaluateExpr(*spec_->project[c], input_, ctx_));
      }
    }
    return Status::OK();
  }

 private:
  const VecSourceSpec* spec_;
  ExecContext* ctx_;
  std::vector<bool> constant_;  // per output column: computed, reads none
  std::vector<std::optional<Result<Value>>> constants_;  // per output column
  bool reads_row_ = false;  // some computed column reads the table row
  Row input_;               // the table row those columns read
};

// ---------------------------------------------------------------------------
// Bridge operators (DESIGN.md 5j)
// ---------------------------------------------------------------------------

/// Batch->row bridge leaf: runs a `Project? -> Filter* -> Scan` chain
/// batchwise and streams the projected rows to a row-path parent (Sort,
/// UNION, LIMIT, CASE projection, NLJ, ...). Output rows, their order
/// and the row a projection error surfaces at are those of the
/// ScanExecutor/FilterExecutor/ProjectExecutor chain.
class VecScanExecutor : public Executor {
 public:
  VecScanExecutor(VecSourceSpec spec, const Table* table, ExecContext* ctx)
      : spec_(std::move(spec)),
        table_(table),
        ctx_(ctx),
        projection_(&spec_, ctx_) {}

  Status Open() override {
    cursor_.emplace(&spec_, table_, ctx_);
    batch_.sel.clear();
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    while (pos_ >= batch_.sel.size()) {
      pos_ = 0;
      PDM_ASSIGN_OR_RETURN(bool has, cursor_->NextBatch(&batch_));
      if (!has) return false;
    }
    PDM_RETURN_NOT_OK(projection_.Emit(batch_.span, batch_.sel[pos_++], row));
    return true;
  }

 private:
  VecSourceSpec spec_;
  const Table* table_;
  ExecContext* ctx_;
  VecProjection projection_;
  std::optional<VecSourceCursor> cursor_;  // (re)started by Open()
  VecBatch batch_;
  size_t pos_ = 0;
};

}  // namespace

std::unique_ptr<Executor> MaybeVecExecutor(const PlanNode& plan,
                                           ExecContext* ctx) {
  VecSourceSpec spec;
  if (!MatchVecSource(plan, &spec)) return nullptr;
  // A bare unfiltered, unprojected scan materializes every row at full
  // width either way — batching it under a row parent is pure
  // sel-vector overhead, so leave that shape to ScanExecutor.
  if (spec.filters.empty() && spec.out_cols.empty()) return nullptr;
  const Table* table = ResolveVecSource(spec, ctx);
  if (table == nullptr) return nullptr;
  return std::make_unique<VecScanExecutor>(std::move(spec), table, ctx);
}

}  // namespace pdm
