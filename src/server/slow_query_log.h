#ifndef PDM_SERVER_SLOW_QUERY_LOG_H_
#define PDM_SERVER_SLOW_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "exec/exec_context.h"
#include "server/statement_record.h"

namespace pdm {

/// One statement captured by the slow-query log: the server's
/// statement record plus the labels and plan summary a DBA needs to
/// attribute the cost (DESIGN.md 5k) — the paper's "find the slow
/// statements first" workflow as a server feature. Coalesced fan-out
/// slots never execute, so they never reach this log.
struct SlowQueryRecord : StatementRecord {
  std::string stmt_class;  // expand/point/join/agg/dml/scan
  std::string engine;      // "vec" when the batch tier did the heavy rows
  std::string site;
  /// One-line plan/work summary (scan/join/agg rows, cache outcome).
  std::string plan_summary;
};

/// Statement-class label for the dimensioned metrics and the slow-query
/// log: dml | expand | agg | join | point | scan. `dml` and `expand`
/// are the statement fingerprint's flags (sql/fingerprint.h: a write,
/// and the WITH RECURSIVE / `link.left` token cue); the rest is decided
/// from the realized ExecStats (a recursive expand is "expand" even
/// though it also joins and scans).
std::string_view ClassifyStatementClass(bool dml, bool expand,
                                        const ExecStats& stats);

/// Engine label: "vec" when the statement ran rows at the vectorized
/// rates — batchwise scans or index-join probes, whose matches load
/// straight off the column fragments — "row" otherwise.
std::string_view EngineLabel(const ExecStats& stats);

/// Thread-safe, always-on top-K of the kTopK most expensive statements
/// by simulated server seconds (deterministic across runs), kept via a
/// min-heap so the common fast path is one comparison against the
/// cached heap minimum.
class SlowQueryLog {
 public:
  static constexpr size_t kTopK = 16;

  /// Cheap pre-check callable before building a record: false means
  /// Note() would certainly discard it (no lock taken).
  bool MightRecord(double sim_seconds) const;

  /// Keeps `record` if it is among the kTopK most expensive so far.
  void Note(SlowQueryRecord record);

  /// The top-K records, most expensive (sim seconds) first.
  std::vector<SlowQueryRecord> TopK() const;

  void Clear();

 private:
  mutable std::mutex mutex_;
  /// Min-heap on sim_seconds (heap_[0] is the cheapest kept).
  std::vector<SlowQueryRecord> heap_;
  /// Relaxed cache of heap_[0].sim_seconds once the heap is
  /// full — the lock-free fast-path bound. Stored as the double's bit
  /// pattern; kUnsetBound (never a valid positive double) means "heap
  /// not full yet, take the lock".
  std::atomic<uint64_t> heap_min_bits_{~uint64_t{0}};
};

/// JSON array of records (schema mirrors SlowQueryRecord; consumed by
/// bench artifacts and CI).
std::string SlowQueryRecordsToJson(const std::vector<SlowQueryRecord>& records);

}  // namespace pdm

#endif  // PDM_SERVER_SLOW_QUERY_LOG_H_
