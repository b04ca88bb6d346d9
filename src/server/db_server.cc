#include "server/db_server.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "server/admission_queue.h"
#include "sql/fingerprint.h"

namespace pdm {

namespace {

/// Lane classification of one wave statement, read from its fingerprint
/// (DESIGN.md 5h).
enum class StatementClass {
  kReadOnly,  // SELECT / WITH: wave snapshot, dedup, worker pool
  kDml,       // INSERT / UPDATE / DELETE: serial writer lane
  kBarrier,   // DDL / CALL / EXPLAIN / lexical error: whole wave serial
};

StatementClass ClassifyStatement(const Result<sql::StatementFingerprint>& fp) {
  // Anything neither read-only nor DML (DDL, CALL, EXPLAIN, lexical
  // errors) is a barrier.
  if (!fp.ok()) return StatementClass::kBarrier;
  if (fp->cacheable) return StatementClass::kReadOnly;
  return fp->dml ? StatementClass::kDml : StatementClass::kBarrier;
}

/// Dedup identity of a statement within a wave: the normalized
/// fingerprint key plus the parameter values, each of the same kind and
/// equal (1 and 1.0 are different literals). Two statements in one
/// group are the same query with the same literals — one execution
/// serves both (DESIGN.md 5e). Grouping keys on the fingerprints
/// themselves, so it copies no statement text.
struct SameQueryHash {
  size_t operator()(const sql::StatementFingerprint* fp) const {
    size_t h = std::hash<std::string>{}(fp->key);
    for (const Value& param : fp->params) h = h * 31 + param.Hash();
    return h;
  }
};

struct SameQuery {
  bool operator()(const sql::StatementFingerprint* a,
                  const sql::StatementFingerprint* b) const {
    if (a->key != b->key || a->params.size() != b->params.size()) {
      return false;
    }
    for (size_t i = 0; i < a->params.size(); ++i) {
      if (a->params[i].kind() != b->params[i].kind() ||
          Value::Compare(a->params[i], b->params[i]) != 0) {
        return false;
      }
    }
    return true;
  }
};

/// Process-wide statement counter — every execution path (serial,
/// batch, wave) funnels through it, so it is the one number to watch
/// for "how much SQL hit the engine".
obs::Counter& ServerStatementCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("server.statements");
  return c;
}

/// Slot of the per-server labeled-histogram cache for a (stmt_class,
/// engine) pair. Class order: dml, expand, agg, join, point, scan.
size_t StmtHistogramSlot(std::string_view stmt_class, std::string_view engine) {
  size_t c = 5;  // scan
  if (stmt_class == "dml") c = 0;
  else if (stmt_class == "expand") c = 1;
  else if (stmt_class == "agg") c = 2;
  else if (stmt_class == "join") c = 3;
  else if (stmt_class == "point") c = 4;
  return c * 2 + (engine == "vec" ? 1 : 0);
}

/// Wall seconds since `start` on the steady clock.
double WallSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

DbServer::DbServer() : DbServer(Config{}) {}

DbServer::DbServer(Config config)
    : config_(std::move(config)),
      admission_(std::make_unique<AdmissionQueue>(this)) {
  // Eager-register the ring drop counters so the exporter surfaces
  // them at zero before anything is dropped — a dashboard that only
  // shows a drop counter once data is already lost is late.
  obs::MetricsRegistry::Global().counter("server.statement_log_dropped");
  obs::MetricsRegistry::Global().counter("server.slow_query_log_dropped");
}

DbServer::~DbServer() = default;

Status DbServer::Execute(std::string_view sql, ResultSet* out) {
  BatchStatementResult result;
  const WaveItem item{.sql = sql, .slot = &result,
                      .trace = obs::CurrentContext()};
  ExecuteWave({&item, 1}, /*wave_id=*/0, /*batch_id=*/0);
  if (out != nullptr) *out = std::move(result.result);
  return result.status;
}

std::vector<DbServer::BatchStatementResult> DbServer::ExecuteBatch(
    std::span<const std::string> statements) {
  const uint64_t batch_id =
      last_batch_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  // A batch is one client action: every statement span — whichever pool
  // worker runs it — attaches to the submitting thread's trace.
  const obs::TraceContext trace = obs::CurrentContext();
  std::vector<BatchStatementResult> results(statements.size());
  std::vector<WaveItem> items;
  items.reserve(statements.size());
  for (size_t i = 0; i < statements.size(); ++i) {
    items.push_back({.sql = statements[i], .slot = &results[i],
                     .trace = trace});
  }
  ExecuteWave(items, /*wave_id=*/0, batch_id);
  obs::MetricsRegistry::Global().counter("server.batches").Increment();
  return results;
}

std::vector<DbServer::BatchStatementResult> DbServer::Submit(
    uint64_t client_id, std::span<const std::string> statements) {
  return admission_->Submit(client_id, statements);
}

DbServer::WaveExecution DbServer::ExecuteWave(std::span<const WaveItem> items,
                                              uint64_t wave_id,
                                              uint64_t batch_id) {
  WaveExecution execution;
  const size_t n = items.size();

  // One fingerprint per statement, reused for the lane classification,
  // the dedup grouping, the stmt_class label and (inside
  // ExecuteFingerprinted) parsing and the plan-cache lookup.
  std::vector<Result<sql::StatementFingerprint>> fingerprints;
  fingerprints.reserve(n);
  std::vector<StatementClass> classes;
  classes.reserve(n);
  bool read_only = true;
  bool has_barrier = false;
  size_t dml_count = 0;
  size_t num_subs = 0;
  for (const WaveItem& item : items) {
    fingerprints.push_back(sql::FingerprintSql(item.sql));
    classes.push_back(ClassifyStatement(fingerprints.back()));
    num_subs = std::max(num_subs, item.submission + 1);
    switch (classes.back()) {
      case StatementClass::kReadOnly:
        break;
      case StatementClass::kDml:
        read_only = false;
        ++dml_count;
        break;
      case StatementClass::kBarrier:
        read_only = false;
        has_barrier = true;
        break;
    }
  }
  execution.read_only = read_only;
  execution.dml_statements = dml_count;
  // Submissions carrying DML; the others are readers.
  std::vector<char> sub_has_dml(num_subs, 0);
  for (size_t i = 0; i < n; ++i) {
    if (classes[i] == StatementClass::kDml) {
      sub_has_dml[items[i].submission] = 1;
    }
  }

  // Every statement's attribution is known up front; RunStatement (or
  // the fan-out below) completes the rest of its record.
  std::vector<StatementRecord> records(n);
  for (size_t i = 0; i < n; ++i) {
    records[i].batch_id = batch_id;
    records[i].wave_id = wave_id;
    records[i].client_id = items[i].client_id;
    records[i].queue_wait_seconds = items[i].queue_wait_s;
  }

  std::atomic<size_t> conflicts{0};

  auto run_one = [&](size_t i, size_t worker, uint64_t snapshot_ts) {
    BatchStatementResult& r = *items[i].slot;
    // The leader (or a pool worker) may be executing another client's
    // statement: charge the span to the submitter's trace, not ours.
    obs::ContextScope ctx_scope(items[i].trace);
    records[i].worker = worker;
    r.status = RunStatement(items[i].sql, fingerprints[i], snapshot_ts,
                            &records[i], &r.result);
    if (IsRetryableConflict(r.status.code())) {
      conflicts.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // Dedups and executes a set of read-only statements against one
  // snapshot: identical fingerprints execute once (the first occurrence
  // is the representative), unique ones go to the worker pool.
  auto run_read_only = [&](const std::vector<size_t>& ro,
                           uint64_t snapshot_ts) {
    std::vector<size_t> rep_of(n);
    std::vector<size_t> reps;
    {
      std::unordered_map<const sql::StatementFingerprint*, size_t,
                         SameQueryHash, SameQuery>
          groups;
      if (ro.size() > 1) groups.reserve(ro.size());
      for (size_t i : ro) {
        // A lone statement (every standalone Execute) has nothing to
        // coalesce with: skip hashing its text.
        const size_t rep =
            ro.size() == 1
                ? i
                : groups.try_emplace(&*fingerprints[i], i).first->second;
        if (rep == i) reps.push_back(i);
        rep_of[i] = rep;
      }
    }
    execution.unique_statements += reps.size();

    size_t threads = config_.batch_threads == 0 ? 1 : config_.batch_threads;
    auto run_rep = [&](size_t r, size_t worker) {
      run_one(reps[r], worker, snapshot_ts);
    };
    if (threads <= 1 || reps.size() <= 1) {
      for (size_t r = 0; r < reps.size(); ++r) run_rep(r, 0);
    } else {
      // Only one parallel section may drive the pool at a time:
      // concurrent direct callers and the queue's leader take turns.
      std::lock_guard<std::mutex> pool_lock(pool_mutex_);
      EnsurePool(threads).ParallelFor(reps.size(), run_rep);
    }

    // Fan-out: duplicates copy the representative's outcome. Identical
    // fingerprints are the same query with the same literals evaluated
    // at the same snapshot, so this is byte-identical to executing each
    // copy.
    static obs::Counter& coalesced_counter =
        obs::MetricsRegistry::Global().counter("server.coalesced_statements");
    for (size_t i : ro) {
      if (rep_of[i] == i) continue;
      coalesced_counter.Increment();
      *items[i].slot = *items[rep_of[i]].slot;
      if (log_enabled_) {
        // No engine work of its own: only the outcome is copied.
        const StatementRecord& rep = records[rep_of[i]];
        StatementRecord& record = records[i];
        record.sql = items[i].sql;
        record.fingerprint = rep.fingerprint;
        record.result_rows = rep.result_rows;
        record.affected_rows = rep.affected_rows;
        record.response_bytes = rep.response_bytes;
        record.coalesced = true;
      }
    }
  };

  if (read_only) {
    // All-read-only wave: one snapshot for the whole wave, so every
    // statement — whichever client submitted it — sees the same data
    // even if writers commit mid-wave.
    Database::Snapshot snapshot = db_.AcquireSnapshot();
    std::vector<size_t> all(n);
    std::iota(all.begin(), all.end(), size_t{0});
    run_read_only(all, snapshot.ts());
  } else if (has_barrier || !config_.mvcc_waves || num_subs == 1) {
    // Barrier wave (DDL/CALL/lexical error), MVCC lanes disabled, or one
    // submission carrying DML (a standalone statement, a direct batch,
    // a lone queued check-out): serial statement order, no
    // deduplication (two identical INSERTs are two inserts), every
    // statement at the latest snapshot. DML resolves that snapshot
    // under the engine's DML mutex, so it never loses a
    // first-writer-wins race to a concurrent direct writer.
    for (size_t i = 0; i < n; ++i) run_one(i, 0, Database::kLatestSnapshot);
    execution.unique_statements = n;
    if (dml_count > 0) {
      execution.serialized_reads = static_cast<size_t>(
          std::count_if(items.begin(), items.end(), [&](const WaveItem& item) {
            return !sub_has_dml[item.submission];
          }));
    }
  } else {
    // Mixed read/DML wave of several submissions (the tuning-paper
    // bottleneck this layer removes): submissions carrying DML run
    // whole — reads included, so they see their own writes — on one
    // serial writer lane, while read-only submissions run concurrently
    // against the wave snapshot. Readers never see this wave's writes;
    // writers conflict under first-writer-wins and surface
    // kWriteConflict for client retry.
    std::vector<size_t> readers;
    std::vector<size_t> writers;
    for (size_t i = 0; i < n; ++i) {
      (sub_has_dml[items[i].submission] ? writers : readers).push_back(i);
    }

    Database::Snapshot snapshot = db_.AcquireSnapshot();
    const uint64_t wave_ts = snapshot.ts();
    std::thread writer_lane([&] {
      // Each submission starts at the wave snapshot; its own commits
      // advance its view (read-your-writes) without exposing sibling
      // submissions' writes admitted later in the same wave.
      uint64_t sub_ts = wave_ts;
      size_t current_sub = ~size_t{0};
      for (size_t i : writers) {
        if (items[i].submission != current_sub) {
          current_sub = items[i].submission;
          sub_ts = wave_ts;
        }
        run_one(i, 0, sub_ts);
        if (classes[i] == StatementClass::kDml && items[i].slot->status.ok()) {
          sub_ts = db_.commit_clock();
        }
      }
    });
    execution.unique_statements += writers.size();
    run_read_only(readers, wave_ts);
    writer_lane.join();
  }
  execution.conflicts = conflicts.load(std::memory_order_relaxed);

  // Statement order, whatever worker ran what, keeps the log
  // deterministic across thread counts. Concurrent waves each take the
  // log mutex per append.
  if (log_enabled_) {
    for (StatementRecord& record : records) AppendLogEntry(std::move(record));
  }

  // Periodic version GC, after the wave snapshot is released: prunes
  // versions no live snapshot can reach (concurrent waves' snapshots
  // make the pass defer harmlessly).
  const size_t gc_interval = config_.gc_interval_waves;
  if (dml_count > 0 && gc_interval > 0 &&
      (dml_executions_.fetch_add(1, std::memory_order_relaxed) + 1) %
              gc_interval ==
          0) {
    db_.GarbageCollectVersions();
  }
  return execution;
}

WorkerPool& DbServer::EnsurePool(size_t threads) {
  if (pool_ == nullptr || pool_->threads() != threads) {
    pool_ = std::make_unique<WorkerPool>(threads);
  }
  return *pool_;
}

size_t DbServer::ResponseBytes(const ResultSet& result) const {
  return result.WireSize() + 64;
}

Status DbServer::RunStatement(
    std::string_view sql, const Result<sql::StatementFingerprint>& fingerprint,
    uint64_t snapshot_ts, StatementRecord* record, ResultSet* out) {
  // The statement's counters land in this call's own ExecStats, so
  // serial, batched and wave traffic never share a write.
  ExecStats stats;
  Status status;
  {
    obs::ScopedSpan span("server:statement", obs::ModelTerm::kServer);
    const auto wall_start = std::chrono::steady_clock::now();
    status = fingerprint.ok() ? db_.ExecuteFingerprinted(*fingerprint, out,
                                                         &stats, snapshot_ts)
                              : fingerprint.status();
    record->wall_seconds = WallSince(wall_start);
    if (!status.ok()) *out = ResultSet();
    record->result_rows = out->num_rows();
    record->affected_rows = out->affected_rows;
    record->plan_cache_hit = stats.plan_cache_hits > 0;
    record->rows_scanned = stats.rows_scanned;
    record->cte_rows_scanned = stats.cte_rows_scanned;
    record->vec_rows_scanned = stats.vec_rows_scanned;
    record->join_probe_rows = stats.join_probe_rows;
    record->vec_join_probe_rows = stats.vec_join_probe_rows;
    record->agg_input_rows = stats.agg_input_rows;
    record->sim_seconds =
        model::ServerSeconds(config_.server_cost, record->Work());
    span.set_sim_seconds(record->sim_seconds);
  }
  ServerStatementCounter().Increment();

  // Dimensioned latency: one LogHistogram per (site, stmt_class,
  // engine). Site is fixed per server, so the slot cache keys on the
  // other two; a racing first fill stores the same stable pointer.
  const std::string_view stmt_class = ClassifyStatementClass(
      fingerprint.ok() && fingerprint->dml,
      fingerprint.ok() && fingerprint->expand, stats);
  const std::string_view engine = EngineLabel(stats);
  const size_t slot = StmtHistogramSlot(stmt_class, engine);
  obs::LogHistogram* hist = stmt_histograms_[slot].load(std::memory_order_acquire);
  if (hist == nullptr) {
    hist = &obs::MetricsRegistry::Global().log_histogram(
        "server.statement_sim_seconds",
        {{"site", config_.site},
         {"stmt_class", std::string(stmt_class)},
         {"engine", std::string(engine)}});
    stmt_histograms_[slot].store(hist, std::memory_order_release);
  }
  hist->Observe(record->sim_seconds);

  // Only a record someone keeps pays for the SQL copy and the response
  // size: a SELECT's was counted as the engine produced its rows
  // (ResultSet::counted_wire_size); DML, EXPLAIN and CALL walk theirs.
  const SlowQueryLog::Limits limits{
      .threshold_seconds = config_.slow_query_threshold};
  const bool slow = slow_query_log_.MightRecord(limits, record->sim_seconds,
                                                record->wall_seconds);
  if (!slow && !log_enabled_) return status;
  record->sql = std::string(sql);
  if (fingerprint.ok()) record->fingerprint = fingerprint->key;
  record->response_bytes = ResponseBytes(*out);
  if (!slow) return status;

  SlowQueryRecord rec{
      *record, std::string(stmt_class), std::string(engine), config_.site,
      StrFormat("scan=%zu(vec=%zu) cte=%zu probe=%zu(vec=%zu) agg=%zu "
                "plan=%s",
                stats.rows_scanned, stats.vec_rows_scanned,
                stats.cte_rows_scanned,
                stats.join_probe_rows + stats.vec_join_probe_rows,
                stats.vec_join_probe_rows, stats.agg_input_rows,
                record->plan_cache_hit ? "cached" : "parsed")};
  size_t evicted = slow_query_log_.Note(limits, std::move(rec));
  if (evicted > 0) {
    obs::MetricsRegistry::Global()
        .counter("server.slow_query_log_dropped")
        .Add(evicted);
  }
  return status;
}

void DbServer::AppendLogEntry(StatementLogEntry entry) {
  std::lock_guard<std::mutex> lock(log_mutex_);
  statement_log_.push_back(std::move(entry));
  if (config_.statement_log_capacity > 0 &&
      statement_log_.size() > config_.statement_log_capacity) {
    statement_log_.pop_front();
    ++statement_log_dropped_;
    obs::MetricsRegistry::Global()
        .counter("server.statement_log_dropped")
        .Increment();
  }
}

std::vector<DbServer::StatementLogEntry> DbServer::statement_log() const {
  std::lock_guard<std::mutex> lock(log_mutex_);
  return {statement_log_.begin(), statement_log_.end()};
}

size_t DbServer::statement_log_size() const {
  std::lock_guard<std::mutex> lock(log_mutex_);
  return statement_log_.size();
}

size_t DbServer::statement_log_dropped() const {
  std::lock_guard<std::mutex> lock(log_mutex_);
  return statement_log_dropped_;
}

void DbServer::ClearStatementLog() {
  std::lock_guard<std::mutex> lock(log_mutex_);
  statement_log_.clear();
  statement_log_dropped_ = 0;
}

void DbServer::ResetObservability() {
  ClearStatementLog();
  slow_query_log_.Clear();
  db_.plan_cache().ResetStats();
  admission_->ClearWaveLog();
  // Process-wide surfaces: finished spans and every registered metric.
  // A reset means "start a fresh measurement window", and a window that
  // kept stale spans or counter values would double-count.
  obs::Tracer::Global().Clear();
  obs::MetricsRegistry::Global().ResetAll();
}

}  // namespace pdm
