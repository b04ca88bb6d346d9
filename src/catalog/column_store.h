#ifndef PDM_CATALOG_COLUMN_STORE_H_
#define PDM_CATALOG_COLUMN_STORE_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/value.h"

namespace pdm {

/// Commit timestamps (DESIGN.md 5h). 0 is the bulk-load timestamp (a
/// row loaded before any writer is visible to every snapshot);
/// kMaxCommitTs marks an open (never killed) version.
inline constexpr uint64_t kMaxCommitTs = ~0ull;

// Fragment geometry: versions are stored column-major in fixed 1024-row
// fragments. The fragment size doubles as the vectorized executor's
// batch size (exec/vec_batch.h) so a VecBatch borrows exactly one
// fragment's column arrays with no copying or realignment.
inline constexpr size_t kFragmentShift = 10;
inline constexpr size_t kFragmentRows = size_t{1} << kFragmentShift;
inline constexpr size_t kFragmentMask = kFragmentRows - 1;
inline constexpr size_t kMaxFragments = size_t{1} << 12;  // 4M versions

/// MVCC metadata of one row version. `end_ts` is atomic: a writer kills
/// a version while readers evaluate visibility against it.
struct VersionMeta {
  uint64_t begin_ts = 0;
  std::atomic<uint64_t> end_ts{kMaxCommitTs};
};

/// True if a version with this metadata is visible to snapshot `ts`.
inline bool MetaVisibleAt(const VersionMeta& m, uint64_t ts) {
  return m.begin_ts <= ts && ts < m.end_ts.load(std::memory_order_acquire);
}

inline uint64_t DoubleToBits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}
inline double BitsToDouble(uint64_t b) {
  double d;
  std::memcpy(&d, &b, sizeof(d));
  return d;
}

/// One column of one fragment: a ValueKind tag per cell (a kDouble
/// column may legally hold kInt64 cells — KindFitsColumn widens — and
/// NULL fits anywhere, so cells stay self-describing exactly like the
/// row engine's Values), 64-bit payload bits for the fixed-width kinds,
/// and a string array allocated only when the column's first string
/// lands in this fragment (release-published; readers below the table's
/// published bound are ordered by that bound's release/acquire pair,
/// the pointer's own acquire guards fragment-internal lazy readers).
struct ColumnFragment {
  ColumnFragment()
      : kinds(new uint8_t[kFragmentRows]()),
        fixed(new uint64_t[kFragmentRows]()) {}
  ~ColumnFragment() { delete[] strs.load(std::memory_order_relaxed); }
  ColumnFragment(const ColumnFragment&) = delete;
  ColumnFragment& operator=(const ColumnFragment&) = delete;

  std::unique_ptr<uint8_t[]> kinds;   // ValueKind per slot (0 = NULL)
  std::unique_ptr<uint64_t[]> fixed;  // int64 / double bits / bool
  std::atomic<std::string*> strs{nullptr};

  const std::string* strings() const {
    return strs.load(std::memory_order_acquire);
  }

  /// Writer-side cell store (single writer, slot not yet published).
  void Store(size_t slot, Value v) {
    switch (v.kind()) {
      case ValueKind::kNull:
        kinds[slot] = static_cast<uint8_t>(ValueKind::kNull);
        return;
      case ValueKind::kBool:
        fixed[slot] = v.bool_value() ? 1 : 0;
        break;
      case ValueKind::kInt64:
        fixed[slot] = static_cast<uint64_t>(v.int64_value());
        break;
      case ValueKind::kDouble:
        fixed[slot] = DoubleToBits(v.double_value());
        break;
      case ValueKind::kString: {
        std::string* s = strs.load(std::memory_order_relaxed);
        if (s == nullptr) {
          s = new std::string[kFragmentRows];
          strs.store(s, std::memory_order_release);
        }
        s[slot] = v.ReleaseString();
        break;
      }
    }
    kinds[slot] = static_cast<uint8_t>(v.kind());
  }

  /// Reconstructs the cell as a Value (reader side, published slots).
  Value Load(size_t slot) const {
    switch (static_cast<ValueKind>(kinds[slot])) {
      case ValueKind::kNull:
        return Value::Null();
      case ValueKind::kBool:
        return Value::Bool(fixed[slot] != 0);
      case ValueKind::kInt64:
        return Value::Int64(static_cast<int64_t>(fixed[slot]));
      case ValueKind::kDouble:
        return Value::Double(BitsToDouble(fixed[slot]));
      case ValueKind::kString:
        return Value::String(strings()[slot]);
    }
    return Value::Null();
  }

  /// In-place variant of Load for scratch-row recycling (string slots
  /// reuse the target's capacity).
  void LoadInto(size_t slot, Value* out) const {
    switch (static_cast<ValueKind>(kinds[slot])) {
      case ValueKind::kNull:
        out->SetNull();
        return;
      case ValueKind::kBool:
        out->SetBool(fixed[slot] != 0);
        return;
      case ValueKind::kInt64:
        out->SetInt64(static_cast<int64_t>(fixed[slot]));
        return;
      case ValueKind::kDouble:
        out->SetDouble(BitsToDouble(fixed[slot]));
        return;
      case ValueKind::kString:
        out->SetString(strings()[slot]);
        return;
    }
  }
};

/// A 1024-row column-major fragment: version metadata plus one
/// ColumnFragment per table column. The column vector is sized at
/// construction and never resized, so readers may hold pointers into it
/// while the single writer fills later slots.
struct Fragment {
  explicit Fragment(size_t num_columns)
      : meta(new VersionMeta[kFragmentRows]), cols(num_columns) {}
  Fragment(const Fragment&) = delete;
  Fragment& operator=(const Fragment&) = delete;

  std::unique_ptr<VersionMeta[]> meta;
  std::vector<ColumnFragment> cols;

  /// Loads slot `slot` as a table row into out[0, cols.size()): the
  /// columns `live` marks from the fragment, NULL in the others, string
  /// cells reusing the target's capacity. The one fragment-to-row
  /// loader: row scans, the batch->row bridge and the index join all
  /// load through it.
  void LoadRow(size_t slot, const ColumnMask& live, Value* out) const {
    for (size_t c = 0; c < cols.size(); ++c) {
      if (IsLive(live, c)) {
        cols[c].LoadInto(slot, &out[c]);
      } else {
        out[c].SetNull();
      }
    }
  }
};

/// Borrowed read-only view of one column within one fragment, the unit
/// the vectorized executor scans. `strs` is null when no string cell
/// was ever stored in this column-fragment (then no kind tag below the
/// scan bound is kString, so it is never dereferenced).
struct ColumnSpan {
  const uint8_t* kinds = nullptr;
  const uint64_t* fixed = nullptr;
  const std::string* strs = nullptr;
};

/// Borrowed view of one fragment clipped to a scan bound: `rows` valid
/// slots starting at absolute version position `base`.
struct FragmentSpan {
  const Fragment* fragment = nullptr;
  const VersionMeta* meta = nullptr;
  size_t base = 0;
  size_t rows = 0;

  ColumnSpan column(size_t col) const {
    const ColumnFragment& c = fragment->cols[col];
    return ColumnSpan{c.kinds.get(), c.fixed.get(), c.strings()};
  }
};

/// Append-only column-major version storage safe to scan concurrently
/// with appends. Fragments are allocated once and never moved; the
/// directory of fragment pointers has fixed capacity, so the writer
/// publishing a new fragment (release store into its slot) never
/// relocates anything a reader may be walking. Single writer appends;
/// readers access positions below Table::published_ (whose
/// release/acquire pair orders the cell stores); move/destruction
/// require full exclusivity.
class FragmentStore {
 public:
  explicit FragmentStore(size_t num_columns) : num_columns_(num_columns) {}
  FragmentStore(FragmentStore&& other) noexcept
      : dir_(std::move(other.dir_)),
        num_columns_(other.num_columns_),
        size_(other.size_) {
    other.size_ = 0;
  }
  FragmentStore& operator=(FragmentStore&& other) noexcept {
    if (this != &other) {
      FreeFragments();
      dir_ = std::move(other.dir_);
      num_columns_ = other.num_columns_;
      size_ = other.size_;
      other.size_ = 0;
    }
    return *this;
  }
  ~FragmentStore() { FreeFragments(); }

  /// Versions appended so far (writer-side count; readers bound their
  /// scans by Table::published_ instead).
  size_t size() const { return size_; }
  size_t num_columns() const { return num_columns_; }

  const Fragment& fragment(size_t frag) const {
    return *dir_[frag].load(std::memory_order_acquire);
  }

  VersionMeta& meta(size_t pos) {
    return dir_[pos >> kFragmentShift].load(std::memory_order_acquire)
        ->meta[pos & kFragmentMask];
  }
  const VersionMeta& meta(size_t pos) const {
    return dir_[pos >> kFragmentShift].load(std::memory_order_acquire)
        ->meta[pos & kFragmentMask];
  }

  /// View of fragment `frag` clipped to scan bound `bound` (exclusive
  /// absolute position, normally Table::published_).
  FragmentSpan Span(size_t frag, size_t bound) const {
    const Fragment& f = fragment(frag);
    const size_t base = frag << kFragmentShift;
    const size_t rows = bound > base ? std::min(kFragmentRows, bound - base)
                                     : 0;
    return FragmentSpan{&f, f.meta.get(), base, rows};
  }

  Value Cell(size_t pos, size_t col) const {
    return fragment(pos >> kFragmentShift)
        .cols[col]
        .Load(pos & kFragmentMask);
  }

  /// Reassembles the row of version `pos` into *out, recycling its
  /// element storage (the row-API adapter's hot path); columns `live`
  /// leaves out stay NULL.
  void MaterializeRow(size_t pos, Row* out,
                      const ColumnMask& live = {}) const {
    out->resize(num_columns_);
    fragment(pos >> kFragmentShift)
        .LoadRow(pos & kFragmentMask, live, out->data());
  }

  /// Appends one version and returns its position. Single writer only;
  /// the slot stays invisible to readers until the caller advances
  /// Table::published_.
  size_t Append(Row row, uint64_t begin_ts) {
    if (dir_ == nullptr) {
      dir_.reset(new std::atomic<Fragment*>[kMaxFragments]());
    }
    const size_t frag = size_ >> kFragmentShift;
    assert(frag < kMaxFragments && "fragment store capacity exhausted");
    if ((size_ & kFragmentMask) == 0) {
      dir_[frag].store(new Fragment(num_columns_),
                       std::memory_order_release);
    }
    Fragment& f = *dir_[frag].load(std::memory_order_relaxed);
    const size_t slot = size_ & kFragmentMask;
    f.meta[slot].begin_ts = begin_ts;
    f.meta[slot].end_ts.store(kMaxCommitTs, std::memory_order_relaxed);
    const size_t n = std::min(row.size(), num_columns_);
    for (size_t c = 0; c < n; ++c) {
      f.cols[c].Store(slot, std::move(row[c]));
    }
    for (size_t c = n; c < num_columns_; ++c) {
      f.cols[c].Store(slot, Value::Null());
    }
    return size_++;
  }

 private:
  void FreeFragments() {
    if (dir_ == nullptr) return;
    const size_t frags = (size_ + kFragmentRows - 1) >> kFragmentShift;
    for (size_t fr = 0; fr < frags; ++fr) {
      delete dir_[fr].load(std::memory_order_relaxed);
    }
  }

  std::unique_ptr<std::atomic<Fragment*>[]> dir_;
  size_t num_columns_ = 0;
  size_t size_ = 0;
};

}  // namespace pdm

#endif  // PDM_CATALOG_COLUMN_STORE_H_
