// Test helper: reaches into Database to bound its replication commit
// log, so the trim path can be driven with a handful of commits, and to
// run plans without column pruning, as the oracle pruned plans are
// checked against.

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

  /// With `all_live`, SELECTs bind without the column-liveness pass, so
  /// every operator reads whole rows. Flushes the plan cache, whose
  /// plans carry the masks they were bound with.
  static void SetAllColumnsLive(Database* db, bool all_live) {
    db->all_columns_live_ = all_live;
    db->plan_cache_.Flush();
  }
};

}  // namespace pdm

#endif  // PDM_TESTS_DATABASE_TEST_PEER_H_
