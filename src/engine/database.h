#ifndef PDM_ENGINE_DATABASE_H_
#define PDM_ENGINE_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/status.h"
#include "engine/plan_cache.h"
#include "exec/exec_context.h"
#include "exec/result_set.h"
#include "plan/binder.h"
#include "plan/functions.h"
#include "plan/view_registry.h"
#include "sql/ast.h"
#include "sql/fingerprint.h"

namespace pdm {

/// Combined engine configuration: binder/optimizer switches plus
/// execution switches. Mutable between statements; the ablation benches
/// flip these. The plan cache has no switch: a cold engine is
/// `plan_cache().set_capacity(0)`, where every SELECT misses and runs
/// the same parse-bind-execute code as a first execution.
struct EngineOptions {
  BinderOptions binder;
  ExecOptions exec;
};

/// The embedded SQL engine: catalog + parser + binder + executor behind a
/// textual SQL interface. This is the "relational DBMS underneath the PDM
/// system" substrate; the simulated server (server/db_server.h) wraps one
/// Database instance.
class Database {
 public:
  /// A stored procedure: runs server-side with full engine access. Used
  /// to implement the paper's Section 6 outlook of installing
  /// "application-specific functionality ... at the database server".
  using Procedure = std::function<Status(
      Database& db, const std::vector<Value>& args, ResultSet* out)>;

  Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Sentinel snapshot: "resolve to the commit clock at statement
  /// start". Every entry point that does not name a snapshot reads the
  /// latest committed data — the pre-MVCC behaviour, statement by
  /// statement.
  static constexpr uint64_t kLatestSnapshot = kMaxCommitTs;

  /// RAII read-snapshot handle (DESIGN.md 5h). While live it pins every
  /// version visible at ts(): version GC defers rather than prune under
  /// an active snapshot. Acquire one per read unit (the engine does it
  /// per statement; the admission queue per wave) and drop it promptly —
  /// a long-lived snapshot blocks GC for the whole process.
  class Snapshot {
   public:
    Snapshot() = default;
    Snapshot(Snapshot&& other) noexcept
        : db_(std::exchange(other.db_, nullptr)), ts_(other.ts_) {}
    Snapshot& operator=(Snapshot&& other) noexcept {
      if (this != &other) {
        Release();
        db_ = std::exchange(other.db_, nullptr);
        ts_ = other.ts_;
      }
      return *this;
    }
    ~Snapshot() { Release(); }

    bool valid() const { return db_ != nullptr; }
    uint64_t ts() const { return ts_; }
    /// Unregisters early (idempotent).
    void Release();

   private:
    friend class Database;
    Snapshot(Database* db, uint64_t ts) : db_(db), ts_(ts) {}
    Database* db_ = nullptr;
    uint64_t ts_ = 0;
  };

  /// Registers a read snapshot at the current commit clock. Blocks only
  /// while a GC pass is compacting (a short, bounded window).
  Snapshot AcquireSnapshot();

  /// One committed DML statement, captured at the commit point for
  /// asynchronous replication (DESIGN.md 5l): the statement's canonical
  /// SQL text (sql::Statement::ToSql), its commit timestamp, and the
  /// rows it affected — the applier's divergence guard. Replaying the
  /// records in commit order against a byte-identical bootstrap yields
  /// a byte-identical replica: each record's predicates evaluate
  /// against exactly the state the primary committed it on.
  struct CommitRecord {
    uint64_t commit_ts = 0;
    std::string sql;
    size_t affected_rows = 0;
  };

  /// Enables commit-record capture (off by default: serial workloads
  /// without replicas should not pay ToSql per DML). Capture starts at
  /// the *current* commit clock: a replica must be bootstrapped to this
  /// state (same generator config) before applying records. Successful
  /// DML only — a statement that lost a first-writer-wins race never
  /// committed and is never logged.
  void EnableCommitLog(bool enable);
  bool commit_log_enabled() const {
    return commit_log_enabled_.load(std::memory_order_acquire);
  }

  /// Committed records with commit_ts > after_ts, in commit order
  /// (thread-safe copy). The pull endpoint of the replication stream:
  /// an applier passes its applied timestamp and gets everything it is
  /// missing.
  std::vector<CommitRecord> CommitLogSince(uint64_t after_ts) const;

  size_t commit_log_size() const;

  /// Commit timestamp every retained record is strictly newer than: the
  /// clock at EnableCommitLog, advanced past trimmed records when the
  /// bounded log evicts its oldest entries (counted on the
  /// "engine.commit_log_trimmed" metric). An applier whose applied
  /// timestamp is below this floor has lost records and must
  /// re-bootstrap.
  uint64_t commit_log_floor() const;

  /// Current MVCC commit clock: the timestamp of the latest committed
  /// DML statement (0 = bulk-loaded data only).
  uint64_t commit_clock() const {
    return commit_clock_.load(std::memory_order_acquire);
  }

  /// Version garbage collection: prunes, in every table, the versions
  /// no live snapshot can see (dead at or before the GC horizon, which
  /// is the commit clock — plus rolled-back versions). Requires
  /// exclusivity: when any snapshot is active the pass defers (returns
  /// 0, counts obs `mvcc.gc_deferred`) instead of blocking readers.
  /// Returns the number of versions pruned.
  size_t GarbageCollectVersions();

  /// Fingerprints and executes one statement (ExecuteFingerprinted). A
  /// lexical error is the fingerprint's status. `out` receives rows /
  /// affected counts and `stats` the statement's counters; each is
  /// cleared before the statement runs, and null means "not wanted".
  ///
  /// Concurrency contract (DESIGN.md 5d/5h): any number of threads may
  /// call Execute concurrently for read-only statements (SELECT / WITH)
  /// AND DML (INSERT / UPDATE / DELETE) — readers run against MVCC
  /// snapshots, writers serialize on an internal mutex and conflict
  /// under first-writer-wins (StatusCode::kWriteConflict, retryable).
  /// DDL and CALL must still never run concurrently with anything.
  ///
  /// `snapshot_ts` names the MVCC read snapshot (kLatestSnapshot =
  /// resolve to the commit clock at statement start). For UPDATE /
  /// DELETE it is the snapshot predicates are evaluated against — a
  /// target version killed by a writer that committed after it loses
  /// under first-writer-wins.
  Status Execute(std::string_view sql, ResultSet* out = nullptr,
                 ExecStats* stats = nullptr,
                 uint64_t snapshot_ts = kLatestSnapshot);

  /// Executes a statement from its fingerprint (sql/fingerprint.h): a
  /// cacheable SELECT goes through the plan cache, anything else is
  /// parsed from the fingerprint's tokens, so the text is never lexed
  /// again. The tokens view the statement text, which must still be
  /// alive. The server's scheduler fingerprints every statement once,
  /// for its lane, wave-level result sharing and (through here)
  /// execution. Same outputs, concurrency contract and snapshot
  /// semantics as Execute().
  Status ExecuteFingerprinted(const sql::StatementFingerprint& fp,
                              ResultSet* out, ExecStats* stats,
                              uint64_t snapshot_ts = kLatestSnapshot);

  /// Execute() returning the result set.
  Result<ResultSet> Query(std::string_view sql);

  /// Executes a ';'-separated script (DDL + DML); results discarded.
  Status ExecuteScript(std::string_view sql);

  /// Executes an already-parsed statement (clients that build ASTs avoid
  /// re-parsing; the simulated wire still ships SQL text). Same outputs
  /// and snapshot semantics as Execute(); never consults the plan cache.
  Status ExecuteStatement(const sql::Statement& stmt,
                          ResultSet* out = nullptr,
                          ExecStats* stats = nullptr,
                          uint64_t snapshot_ts = kLatestSnapshot);

  /// Registers a scalar SQL function (see FunctionRegistry).
  Status RegisterFunction(std::string_view name, size_t min_args,
                          size_t max_args, ScalarFn fn) {
    Status status = functions_.Register(name, min_args, max_args,
                                        std::move(fn));
    if (status.ok()) ++ddl_epoch_;  // new name may change how SQL binds
    return status;
  }

  /// Registers a stored procedure reachable via CALL name(args).
  Status RegisterProcedure(std::string_view name, Procedure procedure);

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  FunctionRegistry& functions() { return functions_; }
  ViewRegistry& views() { return views_; }
  const ViewRegistry& views() const { return views_; }
  EngineOptions& options() { return options_; }

  /// The prepared-statement/plan cache consulted by Execute().
  PlanCache& plan_cache() { return plan_cache_; }
  const PlanCache& plan_cache() const { return plan_cache_; }

  /// Monotonic epoch covering every binding-visible definition change:
  /// catalog tables (CREATE/DROP TABLE), views, registered functions.
  /// Plan-cache entries bound under an older epoch are discarded.
  uint64_t schema_epoch() const { return catalog_.version() + ddl_epoch_; }

 private:
  // Tests: bounds the commit log, and runs plans with every column live.
  friend class DatabaseTestPeer;

  /// Every Binder the engine builds: views are always visible, so DML
  /// predicates and CALL arguments may read through them like SELECTs.
  Binder MakeBinder() const;
  /// Binds a SELECT that is about to run (or be cached) and computes its
  /// column liveness (plan/binder.h).
  Result<BoundSelect> BindSelectToRun(const sql::SelectStmt& stmt);
  /// Runs `stmt` by kind into outputs an entry point has prepared.
  Status Dispatch(const sql::Statement& stmt, ResultSet* out,
                  ExecStats* stats, uint64_t snapshot_ts);
  Status ExecuteCachedSelect(const sql::StatementFingerprint& fp,
                             ResultSet* out, ExecStats* stats,
                             uint64_t snapshot_ts);
  /// `params` (may be null) feeds ExecContext::set_params: the
  /// statement's fingerprint parameters when `bound` is a cached plan.
  Status ExecuteBoundSelect(const BoundSelect& bound, ResultSet* out,
                            ExecStats* stats, uint64_t snapshot_ts,
                            const std::vector<Value>* params = nullptr);
  Status ExecuteSelect(const sql::SelectStmt& stmt, ResultSet* out,
                       ExecStats* stats, uint64_t snapshot_ts);
  Status ExecuteCreateTable(const sql::CreateTableStmt& stmt);
  Status ExecuteDropTable(const sql::DropTableStmt& stmt);
  Status ExecuteInsert(const sql::InsertStmt& stmt, ResultSet* out,
                       ExecStats* stats);
  Status ExecuteUpdate(const sql::UpdateStmt& stmt, ResultSet* out,
                       ExecStats* stats, uint64_t snapshot_ts);
  Status ExecuteDelete(const sql::DeleteStmt& stmt, ResultSet* out,
                       ExecStats* stats, uint64_t snapshot_ts);
  Status ExecuteCall(const sql::CallStmt& stmt, ResultSet* out,
                     ExecStats* stats);
  /// Releases one registered snapshot (called by Snapshot handles).
  void ReleaseSnapshot(uint64_t ts);
  /// Appends one commit record (no-op unless the log is enabled).
  /// Called at the DML commit sites while dml_mutex_ is held, right
  /// before the commit-clock store — the statement's success is already
  /// decided, so every logged record is a real commit.
  void AppendCommitRecord(uint64_t commit_ts, const sql::Statement& stmt,
                          size_t affected_rows);
  Status ExecuteExplain(const sql::ExplainStmt& stmt, ResultSet* out);
  Status ExecuteCreateView(const sql::CreateViewStmt& stmt);
  Status ExecuteDropView(const sql::DropViewStmt& stmt);

  Catalog catalog_;
  FunctionRegistry functions_;
  ViewRegistry views_;
  EngineOptions options_;
  PlanCache plan_cache_;
  uint64_t ddl_epoch_ = 0;  // views + functions; tables count via catalog
  /// Set only through DatabaseTestPeer: plans skip the liveness pass, so
  /// every loader reads whole rows (the pruned-vs-all-live oracle).
  bool all_columns_live_ = false;
  std::map<std::string, Procedure> procedures_;

  // --- MVCC state (DESIGN.md 5h) ---
  /// Timestamp of the latest committed DML statement. Advancing it
  /// (release, after all of a statement's versions are installed) is
  /// the commit point: snapshots acquired later see the statement
  /// atomically, earlier ones never do.
  std::atomic<uint64_t> commit_clock_{0};
  /// Serializes writers (taken inside ExecuteInsert/Update/Delete, so
  /// CALL may nest DML without deadlocking) and GC.
  std::mutex dml_mutex_;
  /// Active read snapshots; guards the GC gate.
  mutable std::mutex snapshot_mutex_;
  std::condition_variable snapshot_cv_;
  std::multiset<uint64_t> active_snapshots_;
  bool gc_active_ = false;

  // --- Replication commit log (DESIGN.md 5l) ---
  /// Atomic so the commit sites can skip the log mutex entirely while
  /// capture is off (the common case).
  std::atomic<bool> commit_log_enabled_{false};
  /// Guards the records; appenders additionally hold dml_mutex_, so
  /// records are always in commit order. A separate mutex keeps pullers
  /// (replication appliers on other threads) from contending with
  /// writers for the DML lock.
  mutable std::mutex commit_log_mutex_;
  std::deque<CommitRecord> commit_log_;
  /// Retained records past which the oldest is trimmed (0 = unbounded);
  /// tests shrink it through DatabaseTestPeer.
  size_t commit_log_capacity_ = 65536;
  uint64_t commit_log_floor_ = 0;
};

}  // namespace pdm

#endif  // PDM_ENGINE_DATABASE_H_
