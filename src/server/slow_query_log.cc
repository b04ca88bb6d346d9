#include "server/slow_query_log.h"

#include <algorithm>
#include <bit>

#include "common/string_util.h"
#include "obs/export.h"

namespace pdm {

namespace {

constexpr uint64_t kUnsetBound = ~uint64_t{0};

/// Orders records most-expensive-first (ties broken by wall seconds so
/// the order is still deterministic for equal simulated charges).
bool MoreExpensive(const SlowQueryRecord& a, const SlowQueryRecord& b) {
  if (a.sim_seconds != b.sim_seconds) {
    return a.sim_seconds > b.sim_seconds;
  }
  return a.wall_seconds > b.wall_seconds;
}

/// Min-heap comparator: heap_[0] is the cheapest kept record.
bool HeapCmp(const SlowQueryRecord& a, const SlowQueryRecord& b) {
  return MoreExpensive(a, b);
}

}  // namespace

std::string_view ClassifyStatementClass(bool dml, bool expand,
                                        const ExecStats& stats) {
  // DML first: a write is a write regardless of what its scans touched.
  if (dml) return "dml";
  // Structure expansion (the paper's dominant workload): recursive CTE
  // traversals and direct link-table hops.
  if (expand || stats.cte_rows_scanned > 0) return "expand";
  if (stats.agg_input_rows > 0) return "agg";
  if (stats.join_probe_rows + stats.vec_join_probe_rows > 0 ||
      stats.hash_join_builds > 0 || stats.index_join_probes > 0) {
    return "join";
  }
  if (stats.index_scans > 0) return "point";
  return "scan";
}

std::string_view EngineLabel(const ExecStats& stats) {
  return stats.vec_rows_scanned + stats.vec_join_probe_rows > 0 ? "vec"
                                                                : "row";
}

bool SlowQueryLog::MightRecord(const Limits& limits, double sim_seconds,
                               double wall_seconds) const {
  if (limits.threshold_seconds > 0 &&
      (sim_seconds > limits.threshold_seconds ||
       wall_seconds > limits.threshold_seconds)) {
    return true;
  }
  if (limits.top_k == 0) return false;
  uint64_t bound = heap_min_bits_.load(std::memory_order_relaxed);
  if (bound == kUnsetBound) return true;  // heap not full yet
  return sim_seconds > std::bit_cast<double>(bound);
}

size_t SlowQueryLog::Note(const Limits& limits, SlowQueryRecord record) {
  bool over_threshold =
      limits.threshold_seconds > 0 &&
      (record.sim_seconds > limits.threshold_seconds ||
       record.wall_seconds > limits.threshold_seconds);

  std::lock_guard<std::mutex> lock(mutex_);
  bool for_heap = limits.top_k > 0 &&
                  (heap_.size() < limits.top_k ||
                   MoreExpensive(record, heap_.front()));
  if (!over_threshold && !for_heap) return 0;

  size_t evicted = 0;
  if (over_threshold && limits.ring_capacity > 0) {
    ring_.push_back(record);
    while (ring_.size() > limits.ring_capacity) {
      ring_.pop_front();
      ++dropped_;
      ++evicted;
    }
  }

  if (for_heap) {
    if (heap_.size() >= limits.top_k) {
      std::pop_heap(heap_.begin(), heap_.end(), HeapCmp);
      heap_.back() = std::move(record);
    } else {
      heap_.push_back(std::move(record));
    }
    std::push_heap(heap_.begin(), heap_.end(), HeapCmp);
    heap_min_bits_.store(
        heap_.size() >= limits.top_k
            ? std::bit_cast<uint64_t>(heap_.front().sim_seconds)
            : kUnsetBound,
        std::memory_order_relaxed);
  }
  return evicted;
}

std::vector<SlowQueryRecord> SlowQueryLog::OverThreshold() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

size_t SlowQueryLog::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<SlowQueryRecord> SlowQueryLog::TopK() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SlowQueryRecord> out = heap_;
  std::sort(out.begin(), out.end(), MoreExpensive);
  return out;
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  dropped_ = 0;
  heap_.clear();
  heap_min_bits_.store(kUnsetBound, std::memory_order_relaxed);
}

std::string SlowQueryRecordsToJson(
    const std::vector<SlowQueryRecord>& records) {
  std::string out = "[\n";
  bool first = true;
  for (const SlowQueryRecord& r : records) {
    if (!first) out += ",\n";
    first = false;
    out += "  {\"sql\":\"";
    obs::AppendJsonEscaped(&out, r.sql);
    out += "\",\"fingerprint\":\"";
    obs::AppendJsonEscaped(&out, r.fingerprint);
    out += "\",\"stmt_class\":\"";
    obs::AppendJsonEscaped(&out, r.stmt_class);
    out += "\",\"engine\":\"";
    obs::AppendJsonEscaped(&out, r.engine);
    out += "\",\"site\":\"";
    obs::AppendJsonEscaped(&out, r.site);
    out += "\",\"plan_summary\":\"";
    obs::AppendJsonEscaped(&out, r.plan_summary);
    out += StrFormat(
        "\",\"wave_id\":%llu,\"batch_id\":%llu,\"client_id\":%llu,"
        "\"plan_cache_hit\":%s",
        static_cast<unsigned long long>(r.wave_id),
        static_cast<unsigned long long>(r.batch_id),
        static_cast<unsigned long long>(r.client_id),
        r.plan_cache_hit ? "true" : "false");
    out += StrFormat(
        ",\"result_rows\":%zu,\"response_bytes\":%zu,\"rows_scanned\":%zu,"
        "\"cte_rows_scanned\":%zu,\"vec_rows_scanned\":%zu",
        r.result_rows, r.response_bytes, r.rows_scanned, r.cte_rows_scanned,
        r.vec_rows_scanned);
    out += StrFormat(
        ",\"join_probe_rows\":%zu,\"vec_join_probe_rows\":%zu,"
        "\"agg_input_rows\":%zu",
        r.join_probe_rows, r.vec_join_probe_rows, r.agg_input_rows);
    out += StrFormat(
        ",\"sim_server_seconds\":%.9f,\"wall_seconds\":%.9f,"
        "\"queue_wait_seconds\":%.9f}",
        r.sim_seconds, r.wall_seconds, r.queue_wait_seconds);
  }
  out += "\n]\n";
  return out;
}

}  // namespace pdm
