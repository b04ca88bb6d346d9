#ifndef PDM_EXEC_RESULT_SET_H_
#define PDM_EXEC_RESULT_SET_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/value.h"

namespace pdm {

/// Wire size of one result row: a small row header plus each value's
/// encoding (Value::WireSize).
inline size_t RowWireSize(const Row& row) {
  size_t size = 4;  // row header
  for (const Value& v : row) size += v.WireSize();
  return size;
}

/// The materialized outcome of one statement: rows for queries, an
/// affected-row count for DML. Also knows its approximate size on the
/// simulated wire (used by the network layer).
struct ResultSet {
  Schema schema;
  std::vector<Row> rows;
  size_t affected_rows = 0;

  size_t num_rows() const { return rows.size(); }
  size_t num_columns() const { return schema.num_columns(); }

  /// Cell accessor with bounds checking in debug builds.
  const Value& At(size_t row, size_t col) const { return rows[row][col]; }

  /// Σ RowWireSize over `rows`, counted by the engine while it produced
  /// them (SELECTs through ExecutePlan), so sizing a result costs no
  /// second walk. Empty when nobody counted: DML, EXPLAIN, CALL. Code
  /// that edits `rows` afterwards must reset it.
  std::optional<size_t> counted_wire_size;

  /// Realistic serialized size: per-row value encodings plus a small
  /// per-row header — `counted_wire_size` when set, else a walk over
  /// `rows`. The network layer may instead account a fixed per-node
  /// size to match the paper's model (see net/wan_model.h).
  size_t WireSize() const;

  /// ASCII table rendering (for examples and debugging).
  std::string ToString(size_t max_rows = 50) const;
};

}  // namespace pdm

#endif  // PDM_EXEC_RESULT_SET_H_
