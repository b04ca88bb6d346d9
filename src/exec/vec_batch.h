#ifndef PDM_EXEC_VEC_BATCH_H_
#define PDM_EXEC_VEC_BATCH_H_

#include <cstdint>
#include <vector>

#include "catalog/column_store.h"

namespace pdm {

/// One unit of vectorized work (DESIGN.md 5i): a borrowed column-major
/// fragment view plus a selection vector of the slots still alive (all
/// within one window of the fragment, see VecSourceCursor).
/// Nothing in the batch owns data — the span points straight into the
/// table's fragment arrays — so producing a batch costs no copies. The
/// batch starts with the MVCC visibility pass filling `sel`; every
/// filter afterwards only shrinks it, and rows are materialized (late)
/// only from the survivors.
struct VecBatch {
  FragmentSpan span;
  std::vector<uint32_t> sel;  // ascending slot indices within the span

  /// MVCC visibility as a vectorized pass: resets `sel` to the slots in
  /// [first, last) of the span whose version is visible to snapshot
  /// `ts` (begin <= ts < end), in position order so scan output order
  /// matches the row engine's.
  void FillVisible(uint64_t ts, size_t first, size_t last) {
    sel.clear();
    sel.reserve(span.rows);  // once per scan: later windows reuse it
    for (size_t i = first; i < last; ++i) {
      if (MetaVisibleAt(span.meta[i], ts)) {
        sel.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  void FillVisible(uint64_t ts) { FillVisible(ts, 0, span.rows); }
};

}  // namespace pdm

#endif  // PDM_EXEC_VEC_BATCH_H_
