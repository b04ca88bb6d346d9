// Test helper: reaches into Table to split an append at the point
// between index maintenance and publication, and to report which map a
// column index keys on.

#ifndef PDM_TESTS_TABLE_TEST_PEER_H_
#define PDM_TESTS_TABLE_TEST_PEER_H_

#include <mutex>
#include <utility>

#include "catalog/table.h"

namespace pdm {

class TableTestPeer {
 public:
  /// Stores `row` at the next version position without publishing it;
  /// returns that position.
  static size_t AppendUnpublished(Table* table, Row row) {
    return table->AppendUnpublished(std::move(row), /*begin_ts=*/0);
  }
  static void Publish(Table* table, size_t pos) {
    table->Publish(pos, /*undo=*/nullptr);
  }
  static bool Int64Keyed(const Table& table, size_t column) {
    std::lock_guard<std::mutex> lock(table.index_mutex_);
    return table.indexes_.at(column).int64_keys;
  }
};

}  // namespace pdm

#endif  // PDM_TESTS_TABLE_TEST_PEER_H_
