#ifndef PDM_SERVER_DB_SERVER_H_
#define PDM_SERVER_DB_SERVER_H_

#include <array>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "exec/result_set.h"
#include "model/cost_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/slow_query_log.h"
#include "server/statement_record.h"
#include "server/worker_pool.h"
#include "sql/fingerprint.h"

namespace pdm {

class AdmissionQueue;

/// The database server endpoint of the simulated client/server system.
/// Owns the Database and executes SQL text arriving "over the wire".
///
/// One scheduler (DESIGN.md 5d/5e/5h): a standalone statement is a
/// one-statement submission, a direct batch is a one-submission wave,
/// and the admission queue drains many clients' submissions into one
/// wave. All three run through ExecuteWave, which fingerprints each
/// statement once and picks the wave's lane policy from the
/// fingerprints; that fingerprint is the server's only pass over the
/// SQL text.
/// Response sizing is the client's (client::Connection); ResponseBytes
/// is the realistic wire size it falls back to.
class DbServer {
 public:
  struct Config {
    /// Worker threads for the read-only statements of a batch or wave.
    /// 1 (default) = serial execution; > 1 executes them concurrently
    /// (DESIGN.md 5d).
    size_t batch_threads = 1;
    /// Maximum statements the admission queue coalesces into one
    /// execution wave (DESIGN.md 5e); 0 = unbounded. Submissions are
    /// never split across waves, so a wave always holds at least one
    /// whole submission even when it exceeds the window.
    size_t coalesce_window = 0;
    /// Ring capacity of the statement log: once full, the oldest entry
    /// is dropped per append (statement_log_dropped() counts them).
    /// 0 = unbounded (callers owning the lifecycle, e.g. short tests).
    size_t statement_log_capacity = 4096;
    /// Run MVCC version garbage collection after every N DML-carrying
    /// executions (0 = never): standalone statements, direct batches
    /// and admission waves all count. GC prunes only versions no live
    /// snapshot can reach, so it never changes results.
    size_t gc_interval_waves = 64;
    /// Simulated server-cost calibration for the t_server spans
    /// (DESIGN.md 5f): every executed statement is charged simulated
    /// seconds from its ExecStats, so per-component reconciliation
    /// covers eq. (1)'s server term too.
    model::ServerCostParams server_cost;
    /// Site label this server reports under in the dimensioned metrics
    /// (DESIGN.md 5k): the paper's worldwide deployment is modeled as
    /// one server per site, so the label is per-server, not per-call.
    std::string site = "local";
  };

  /// One executed statement, as observed at the server boundary
  /// (server/statement_record.h): the statement log's entry type.
  using StatementLogEntry = StatementRecord;

  /// Outcome of one statement of a batch. Fail-fast-per-statement: an
  /// error is recorded in its slot, sibling statements still complete.
  /// Response sizing is the client's (client::Connection).
  struct BatchStatementResult {
    Status status;
    ResultSet result;  // empty on error
  };

  /// One statement of an execution wave: who submitted it, the SQL
  /// text, and the result slot to fill. Built by Execute (one item),
  /// ExecuteBatch (one submission) and the AdmissionQueue (the
  /// submissions it drains). The text is borrowed: it must outlive the
  /// ExecuteWave call.
  struct WaveItem {
    uint64_t client_id = 0;
    std::string_view sql;
    BatchStatementResult* slot = nullptr;
    /// Submitter's trace context: spans recorded while the wave leader
    /// executes this statement attach to the submitting client's action.
    obs::TraceContext trace;
    /// Index of the submission this statement belongs to within its
    /// wave. Lane assignment is per submission: one DML statement sends
    /// the whole submission to the writer lane, so its later statements
    /// read their own writes.
    size_t submission = 0;
    /// Wall seconds this statement's submission spent in the admission
    /// queue before its wave drained (reported by the slow-query log).
    double queue_wait_s = 0;
  };

  /// What ExecuteWave did with a wave, reported back to the queue's
  /// wave log.
  struct WaveExecution {
    size_t unique_statements = 0;  // engine executions after dedup
    bool read_only = false;        // dedup + worker pool eligible
    size_t dml_statements = 0;     // INSERT/UPDATE/DELETE in the wave
    /// Writer-lane statements that lost a first-writer-wins race and
    /// returned StatusCode::kWriteConflict (clients retry those).
    size_t conflicts = 0;
  };

  DbServer();
  explicit DbServer(Config config);
  ~DbServer();

  DbServer(const DbServer&) = delete;
  DbServer& operator=(const DbServer&) = delete;

  /// Executes one statement arriving as SQL text into `out` (may be
  /// null): a one-statement wave. Logged as batch 0, failures included.
  /// Thread-safe; a standalone DML statement resolves its snapshot under
  /// the engine's DML mutex, so concurrent direct writers never see
  /// kWriteConflict.
  Status Execute(std::string_view sql, ResultSet* out = nullptr);

  /// Executes the statements of one batch (a single wire round trip) as
  /// a one-submission wave and returns one result per statement, in
  /// statement order. An all-read-only batch (SELECT / WITH) runs at one
  /// snapshot, executes identical statements once and, with
  /// `Config::batch_threads > 1`, runs on the worker pool; a batch
  /// containing DML/DDL/CALL runs serially in statement order. Results
  /// are identical across thread counts; the statement log keeps
  /// statement order and records the batch id + worker. Thread-safe.
  std::vector<BatchStatementResult> ExecuteBatch(
      std::span<const std::string> statements);

  /// Submits one client's statements to the shared admission queue
  /// (DESIGN.md 5e) and blocks until an execution wave has produced
  /// every result. Concurrent clients' submissions coalesce into one
  /// wave; identical statements within a wave execute once and fan
  /// their result out. Thread-safe, also alongside direct Execute() /
  /// ExecuteBatch() traffic on the same server.
  std::vector<BatchStatementResult> Submit(
      uint64_t client_id, std::span<const std::string> statements);

  /// The shared admission queue (client registration and the per-wave
  /// log live there).
  AdmissionQueue& admission_queue() { return *admission_; }

  /// Realistic serialized size of a result set (per-value wire sizes
  /// plus a 64-byte frame) — the wire size clients charge when they
  /// bring no sizer of their own.
  size_t ResponseBytes(const ResultSet& result) const;

  Database& database() { return db_; }
  const Config& config() const { return config_; }
  Config& mutable_config() { return config_; }

  /// Statement logging (off by default): records every statement that
  /// arrives over the wire — the tool a DBA would use to diagnose the
  /// paper's "series of isolated SQL queries" problem. The log is a
  /// bounded ring (Config::statement_log_capacity) and every append is
  /// mutex-guarded, so concurrent executions interleave whole waves
  /// without racing or growing without bound.
  void EnableStatementLog(bool enable) { log_enabled_ = enable; }
  /// Snapshot of the log, oldest first (thread-safe copy).
  std::vector<StatementLogEntry> statement_log() const;
  size_t statement_log_size() const;
  /// Entries evicted from the ring since the last clear.
  size_t statement_log_dropped() const;
  void ClearStatementLog();

  /// Aggregate plan-cache counters of the owned Database, reported next
  /// to the statement log: hit rate here is what tells a DBA whether the
  /// client's navigational queries are reusing server-side plans.
  PlanCacheStats plan_cache_stats() const { return db_.plan_cache().stats(); }

  /// Slow-query log (DESIGN.md 5k): the always-on top-K of the most
  /// expensive statements by simulated server seconds, each with its
  /// labels and plan summary.
  const SlowQueryLog& slow_query_log() const { return slow_query_log_; }

  /// Resets everything observability-only — the statement log, the
  /// plan-cache hit/miss counters, the admission queue's wave log, the
  /// process-wide metrics registry and the tracer's finished spans —
  /// without touching cached plans or data. Benches and tests use this
  /// instead of rebuilding the server. Note the last two are
  /// process-wide surfaces (obs/): resetting one server resets them for
  /// every server in the process.
  void ResetObservability();

 private:
  friend class AdmissionQueue;

  /// The server's only scheduler: runs one wave of statements and fills
  /// their slots. It fingerprints every statement once, then decides
  /// the lane policy from the wave's contents (DESIGN.md 5h):
  ///  * all read-only: one snapshot, identical fingerprints execute once
  ///    (result fan-out), unique ones on the worker pool;
  ///  * any DDL/CALL statement or lexical error, or DML carried by the
  ///    wave's only submission: serial in statement order at the latest
  ///    snapshot, no dedup;
  ///  * otherwise: read-only submissions as above at the wave snapshot,
  ///    DML-carrying submissions on a concurrent serial writer lane in
  ///    client-id order, so a same-row race has the same winner
  ///    whatever order the clients arrived in.
  /// Every record is stamped with `wave_id` and `batch_id`. Every
  /// DML-carrying wave counts toward Config::gc_interval_waves.
  /// Callers may run it concurrently — direct Execute/ExecuteBatch
  /// callers on many threads alongside the queue's wave leader; the
  /// BatchExec and AdmissionQueue suites check this under TSan.
  WaveExecution ExecuteWave(std::span<const WaveItem> items, uint64_t wave_id,
                            uint64_t batch_id);

  /// The pool is created lazily and rebuilt when batch_threads changes.
  /// WorkerPool::ParallelFor is not reentrant, so every pool use (and
  /// rebuild) happens under `pool_mutex_` — concurrent waves' parallel
  /// sections serialize against each other while their serial paths and
  /// engine work still overlap freely.
  WorkerPool& EnsurePool(size_t threads);

  /// Appends one entry under the log mutex, evicting the oldest past
  /// the ring capacity.
  void AppendLogEntry(StatementLogEntry entry);

  /// The per-statement body ExecuteWave runs for every engine
  /// execution: the server:statement span, the simulated t_server
  /// charge, the statement counter, the dimensioned histogram and the
  /// slow-query log. `record` arrives carrying the caller's attribution
  /// (batch/wave/client ids, worker, queue wait) and leaves complete;
  /// its SQL copy and response size are filled only when the statement
  /// log or the slow-query log keeps it. `fingerprint` is the one the
  /// scheduler computed from `sql`: the engine executes from its
  /// tokens, the `stmt_class` label reads its DML and expand flags, and
  /// a lexical error is its status, returned without another pass over
  /// the text. A failed
  /// statement leaves `out` empty.
  Status RunStatement(std::string_view sql,
                      const Result<sql::StatementFingerprint>& fingerprint,
                      uint64_t snapshot_ts, StatementRecord* record,
                      ResultSet* out);

  Config config_;
  Database db_;
  bool log_enabled_ = false;
  mutable std::mutex log_mutex_;
  std::deque<StatementLogEntry> statement_log_;
  size_t statement_log_dropped_ = 0;
  std::atomic<uint64_t> last_batch_id_{0};
  /// DML-carrying executions so far; GC runs on every
  /// gc_interval_waves-th.
  std::atomic<uint64_t> dml_executions_{0};
  std::mutex pool_mutex_;
  std::unique_ptr<WorkerPool> pool_;
  std::unique_ptr<AdmissionQueue> admission_;
  SlowQueryLog slow_query_log_;
  /// Per-(stmt_class × engine) cache of the labeled statement-histogram
  /// pointers (site is fixed per server). Registry instruments are
  /// never evicted, so a benign racing fill stores the same pointer.
  std::array<std::atomic<obs::LogHistogram*>, 12> stmt_histograms_{};
};

}  // namespace pdm

#endif  // PDM_SERVER_DB_SERVER_H_
