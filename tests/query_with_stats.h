// Test helper: Database::Query that also hands back the call's
// execution counters, which belong to the caller (Database keeps none).

#ifndef PDM_TESTS_QUERY_WITH_STATS_H_
#define PDM_TESTS_QUERY_WITH_STATS_H_

#include <string_view>

#include "engine/database.h"

namespace pdm {

/// Runs `sql` on `db`, filling `*stats` with the statement's counters.
inline Result<ResultSet> QueryWithStats(Database& db, ExecStats* stats,
                                        std::string_view sql) {
  ResultSet rs;
  PDM_RETURN_NOT_OK(db.Execute(sql, &rs, stats));
  return rs;
}

}  // namespace pdm

#endif  // PDM_TESTS_QUERY_WITH_STATS_H_
