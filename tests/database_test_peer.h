// Test helper: reaches into Database to bound its replication commit
// log, so the trim path can be driven with a handful of commits.

#ifndef PDM_TESTS_DATABASE_TEST_PEER_H_
#define PDM_TESTS_DATABASE_TEST_PEER_H_

#include <mutex>

#include "engine/database.h"

namespace pdm {

class DatabaseTestPeer {
 public:
  /// Bounds the retained commit records; 0 = unbounded.
  static void SetCommitLogCapacity(Database* db, size_t capacity) {
    std::lock_guard<std::mutex> lock(db->commit_log_mutex_);
    db->commit_log_capacity_ = capacity;
  }
};

}  // namespace pdm

#endif  // PDM_TESTS_DATABASE_TEST_PEER_H_
