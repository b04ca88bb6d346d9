#include "engine/database.h"

#include <cassert>

#include "common/string_util.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "exec/expr_eval.h"
#include "exec/recursive_cte.h"
#include "sql/parser.h"

namespace pdm {

namespace {

obs::Counter& WriteConflictCounter() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().counter("mvcc.write_conflicts");
  return c;
}

/// Age of a DML statement's read snapshot in commit-clock ticks — how
/// far behind the latest commit the statement's view was when it tried
/// to write. 0 on every serial (latest-snapshot) statement; grows with
/// wave-admission snapshots under concurrent writers. Recorded in the
/// log histogram's native unit, one tick per "second": exact below 128
/// ticks, within 1% above, clamped past ~4.4e3 ticks.
obs::LogHistogram& SnapshotAgeHistogram() {
  static obs::LogHistogram& h = obs::MetricsRegistry::Global().log_histogram(
      "mvcc.snapshot_age_commits");
  return h;
}

/// The one place an execution prepares an output: the caller's `slot`,
/// or `local` when the caller passed null, emptied so that nothing of
/// an earlier call leaks into this one.
template <typename T>
T* Fresh(T* slot, T* local) {
  T* target = slot != nullptr ? slot : local;
  *target = T();
  return target;
}

}  // namespace

Database::Database() {
  Status status = functions_.RegisterBuiltins();
  assert(status.ok());
  (void)status;
}

void Database::Snapshot::Release() {
  if (db_ != nullptr) {
    db_->ReleaseSnapshot(ts_);
    db_ = nullptr;
  }
}

Database::Snapshot Database::AcquireSnapshot() {
  std::unique_lock<std::mutex> lock(snapshot_mutex_);
  // GC holds exclusivity only while physically compacting; registration
  // waits it out rather than racing the renumbering. Resolving the
  // clock under the same lock closes the acquire/prune race: either we
  // register first (GC defers) or GC finished first (we see the
  // post-compaction world).
  snapshot_cv_.wait(lock, [this] { return !gc_active_; });
  const uint64_t ts = commit_clock();
  active_snapshots_.insert(ts);
  return Snapshot(this, ts);
}

void Database::ReleaseSnapshot(uint64_t ts) {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  auto it = active_snapshots_.find(ts);
  if (it != active_snapshots_.end()) active_snapshots_.erase(it);
  snapshot_cv_.notify_all();
}

void Database::EnableCommitLog(bool enable) {
  // Hold the DML mutex so enablement is ordered against every commit:
  // records either start exactly at the clock we stamp into the floor,
  // or capture stays off for the whole statement.
  std::lock_guard<std::mutex> dml(dml_mutex_);
  std::lock_guard<std::mutex> lock(commit_log_mutex_);
  if (enable && !commit_log_enabled_.load(std::memory_order_relaxed)) {
    commit_log_.clear();
    commit_log_floor_ = commit_clock();
  }
  commit_log_enabled_.store(enable, std::memory_order_release);
}

void Database::AppendCommitRecord(uint64_t commit_ts,
                                  const sql::Statement& stmt,
                                  size_t affected_rows) {
  if (!commit_log_enabled_.load(std::memory_order_acquire)) return;
  CommitRecord record;
  record.commit_ts = commit_ts;
  record.sql = stmt.ToSql();
  record.affected_rows = affected_rows;
  std::lock_guard<std::mutex> lock(commit_log_mutex_);
  commit_log_.push_back(std::move(record));
  if (commit_log_capacity_ > 0 && commit_log_.size() > commit_log_capacity_) {
    commit_log_floor_ = commit_log_.front().commit_ts;
    commit_log_.pop_front();
    obs::MetricsRegistry::Global()
        .counter("engine.commit_log_trimmed")
        .Increment();
  }
}

std::vector<Database::CommitRecord> Database::CommitLogSince(
    uint64_t after_ts) const {
  std::lock_guard<std::mutex> lock(commit_log_mutex_);
  std::vector<CommitRecord> out;
  for (const CommitRecord& record : commit_log_) {
    if (record.commit_ts > after_ts) out.push_back(record);
  }
  return out;
}

size_t Database::commit_log_size() const {
  std::lock_guard<std::mutex> lock(commit_log_mutex_);
  return commit_log_.size();
}

uint64_t Database::commit_log_floor() const {
  std::lock_guard<std::mutex> lock(commit_log_mutex_);
  return commit_log_floor_;
}

size_t Database::GarbageCollectVersions() {
  // Writers pause for the pass (dml mutex); readers make it defer.
  std::lock_guard<std::mutex> dml(dml_mutex_);
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    if (!active_snapshots_.empty()) {
      obs::MetricsRegistry::Global().counter("mvcc.gc_deferred").Increment();
      return 0;
    }
    gc_active_ = true;
  }
  // Horizon = commit clock: with no live snapshot, every version dead
  // at or before it is unreachable by any current or future snapshot.
  const uint64_t horizon = commit_clock();
  size_t pruned = 0;
  for (const std::string& name : catalog_.TableNames()) {
    Table* table = catalog_.FindTable(name);
    if (table != nullptr) pruned += table->PruneVersions(horizon);
  }
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    gc_active_ = false;
  }
  snapshot_cv_.notify_all();
  obs::MetricsRegistry::Global().counter("mvcc.gc_runs").Increment();
  if (pruned > 0) {
    obs::MetricsRegistry::Global()
        .counter("mvcc.versions_pruned")
        .Add(pruned);
  }
  return pruned;
}

Status Database::Execute(std::string_view sql, ResultSet* out,
                         ExecStats* stats, uint64_t snapshot_ts) {
  PDM_ASSIGN_OR_RETURN(sql::StatementFingerprint fp, sql::FingerprintSql(sql));
  return ExecuteFingerprinted(fp, out, stats, snapshot_ts);
}

Status Database::ExecuteFingerprinted(const sql::StatementFingerprint& fp,
                                      ResultSet* out, ExecStats* stats,
                                      uint64_t snapshot_ts) {
  ResultSet local_out;
  ExecStats local_stats;
  out = Fresh(out, &local_out);
  stats = Fresh(stats, &local_stats);
  if (fp.cacheable) return ExecuteCachedSelect(fp, out, stats, snapshot_ts);
  sql::StatementPtr stmt;
  {
    obs::ScopedSpan span("engine:parse", obs::ModelTerm::kParsePlan);
    sql::Parser parser(fp.tokens);
    PDM_ASSIGN_OR_RETURN(stmt, parser.ParseStatement());
  }
  obs::ScopedSpan span("engine:exec", obs::ModelTerm::kExec);
  return Dispatch(*stmt, out, stats, snapshot_ts);
}

Status Database::ExecuteCachedSelect(const sql::StatementFingerprint& fp,
                                     ResultSet* out, ExecStats* stats,
                                     uint64_t snapshot_ts) {
  if (PlanCache::EntryPtr entry = plan_cache_.Lookup(
          fp.key, fp.params, schema_epoch(), options_.binder)) {
    stats->plan_cache_hits = 1;
    obs::ScopedSpan span("engine:exec", obs::ModelTerm::kExec);
    span.set_detail("plan-cache-hit");
    // An exact-match-only entry runs on its bind-time literals, which
    // equal this statement's parameters.
    return ExecuteBoundSelect(entry->bound, out, stats, snapshot_ts,
                              entry->parameterized ? &fp.params : nullptr);
  }
  stats->plan_cache_misses = 1;

  PlanCache::EntryPtr entry;
  {
    obs::ScopedSpan parse_span("engine:parse+bind", obs::ModelTerm::kParsePlan);
    sql::Parser parser(fp.tokens);
    PDM_ASSIGN_OR_RETURN(sql::StatementPtr stmt, parser.ParseStatement());
    if (stmt->kind != sql::StatementKind::kSelect) {
      // Unreachable; defensive.
      return Dispatch(*stmt, out, stats, snapshot_ts);
    }
    PDM_ASSIGN_OR_RETURN(
        BoundSelect bound,
        BindSelectToRun(static_cast<const sql::SelectStmt&>(*stmt)));
    entry = PlanCache::Prepare(std::move(bound), fp.params,
                               schema_epoch(), options_.binder);
  }
  // Execute before handing the entry to the cache: even a failed
  // execution is deterministic, so the plan stays cacheable.
  Status status;
  {
    obs::ScopedSpan exec_span("engine:exec", obs::ModelTerm::kExec);
    status = ExecuteBoundSelect(entry->bound, out, stats, snapshot_ts);
  }
  plan_cache_.Insert(fp.key, std::move(entry));
  return status;
}

Result<ResultSet> Database::Query(std::string_view sql) {
  ResultSet result;
  PDM_RETURN_NOT_OK(Execute(sql, &result));
  return result;
}

Status Database::ExecuteScript(std::string_view sql) {
  PDM_ASSIGN_OR_RETURN(std::vector<sql::StatementPtr> stmts,
                       sql::ParseSqlScript(sql));
  for (const sql::StatementPtr& stmt : stmts) {
    PDM_RETURN_NOT_OK(ExecuteStatement(*stmt));
  }
  return Status::OK();
}

Status Database::ExecuteStatement(const sql::Statement& stmt, ResultSet* out,
                                  ExecStats* stats, uint64_t snapshot_ts) {
  ResultSet local_out;
  ExecStats local_stats;
  return Dispatch(stmt, Fresh(out, &local_out), Fresh(stats, &local_stats),
                  snapshot_ts);
}

Binder Database::MakeBinder() const {
  return Binder(&catalog_, &functions_, options_.binder, &views_);
}

Status Database::Dispatch(const sql::Statement& stmt, ResultSet* out,
                          ExecStats* stats, uint64_t snapshot_ts) {
  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      return ExecuteSelect(static_cast<const sql::SelectStmt&>(stmt), out,
                           stats, snapshot_ts);
    case sql::StatementKind::kCreateTable:
      return ExecuteCreateTable(static_cast<const sql::CreateTableStmt&>(stmt));
    case sql::StatementKind::kDropTable:
      return ExecuteDropTable(static_cast<const sql::DropTableStmt&>(stmt));
    case sql::StatementKind::kInsert:
      return ExecuteInsert(static_cast<const sql::InsertStmt&>(stmt), out,
                           stats);
    case sql::StatementKind::kUpdate:
      return ExecuteUpdate(static_cast<const sql::UpdateStmt&>(stmt), out,
                           stats, snapshot_ts);
    case sql::StatementKind::kDelete:
      return ExecuteDelete(static_cast<const sql::DeleteStmt&>(stmt), out,
                           stats, snapshot_ts);
    case sql::StatementKind::kCall:
      return ExecuteCall(static_cast<const sql::CallStmt&>(stmt), out, stats);
    case sql::StatementKind::kExplain:
      return ExecuteExplain(static_cast<const sql::ExplainStmt&>(stmt), out);
    case sql::StatementKind::kCreateView:
      return ExecuteCreateView(static_cast<const sql::CreateViewStmt&>(stmt));
    case sql::StatementKind::kDropView:
      return ExecuteDropView(static_cast<const sql::DropViewStmt&>(stmt));
  }
  return Status::Internal("unhandled statement kind");
}

Result<BoundSelect> Database::BindSelectToRun(const sql::SelectStmt& stmt) {
  PDM_ASSIGN_OR_RETURN(BoundSelect bound, MakeBinder().BindSelect(stmt));
  if (!all_columns_live_) ComputeColumnLiveness(&bound);
  return bound;
}

Status Database::ExecuteSelect(const sql::SelectStmt& stmt, ResultSet* out,
                               ExecStats* stats, uint64_t snapshot_ts) {
  PDM_ASSIGN_OR_RETURN(BoundSelect bound, BindSelectToRun(stmt));
  return ExecuteBoundSelect(bound, out, stats, snapshot_ts);
}

Status Database::ExecuteBoundSelect(const BoundSelect& bound, ResultSet* out,
                                    ExecStats* stats, uint64_t snapshot_ts,
                                    const std::vector<Value>* params) {
  // Callers that did not pin a snapshot read the latest committed data:
  // register one for the statement's duration so GC cannot renumber
  // versions under the running plan.
  Snapshot snapshot;
  if (snapshot_ts == kLatestSnapshot) {
    snapshot = AcquireSnapshot();
    snapshot_ts = snapshot.ts();
  }
  ExecContext ctx(&catalog_, &options_.exec, stats, snapshot_ts);
  ctx.set_params(params);
  std::map<std::string, std::vector<Row>> cte_storage;
  PDM_RETURN_NOT_OK(MaterializeCtes(bound.ctes, &ctx, &cte_storage));
  size_t wire_bytes = 0;
  PDM_ASSIGN_OR_RETURN(std::vector<Row> rows,
                       ExecutePlan(*bound.root, &ctx, &wire_bytes));
  stats->rows_emitted = rows.size();
  out->schema = bound.root->schema;
  out->rows = std::move(rows);
  out->counted_wire_size = wire_bytes;
  return Status::OK();
}

Status Database::ExecuteCreateTable(const sql::CreateTableStmt& stmt) {
  return catalog_.CreateTable(stmt.table_name, Schema(stmt.columns),
                              stmt.if_not_exists);
}

Status Database::ExecuteDropTable(const sql::DropTableStmt& stmt) {
  return catalog_.DropTable(stmt.table_name, stmt.if_exists);
}

Status Database::ExecuteInsert(const sql::InsertStmt& stmt, ResultSet* out,
                               ExecStats* stats) {
  PDM_ASSIGN_OR_RETURN(BoundInsert bound, MakeBinder().BindInsert(stmt));
  PDM_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(bound.table_name));

  std::lock_guard<std::mutex> writer(dml_mutex_);
  const uint64_t write_ts = commit_clock() + 1;

  // Evaluate and validate every row before appending any: a failed
  // INSERT applies nothing, and nothing ever needs rolling back.
  ExecContext ctx(&catalog_, &options_.exec, stats);
  Row empty;
  std::vector<Row> rows;
  rows.reserve(bound.rows.size());
  for (const std::vector<BoundExprPtr>& exprs : bound.rows) {
    Row row;
    row.reserve(exprs.size());
    for (const BoundExprPtr& e : exprs) {
      PDM_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*e, empty, &ctx));
      row.push_back(std::move(v));
    }
    PDM_RETURN_NOT_OK(table->schema().ValidateRow(row).WithContext(
        "insert into table '" + table->name() + "'"));
    rows.push_back(std::move(row));
  }
  for (Row& row : rows) {
    table->AppendVersion(std::move(row), write_ts, nullptr);
    out->affected_rows++;
  }
  AppendCommitRecord(write_ts, stmt, rows.size());
  // Commit point: the release store makes every appended version
  // visible atomically to snapshots acquired from here on.
  commit_clock_.store(write_ts, std::memory_order_release);
  return Status::OK();
}

Status Database::ExecuteUpdate(const sql::UpdateStmt& stmt, ResultSet* out,
                               ExecStats* stats, uint64_t snapshot_ts) {
  PDM_ASSIGN_OR_RETURN(BoundUpdate bound, MakeBinder().BindUpdate(stmt));
  PDM_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(bound.table_name));
  const Schema& schema = table->schema();

  std::lock_guard<std::mutex> writer(dml_mutex_);
  // A caller that did not pin a snapshot reads the commit clock as of
  // now; since we hold the DML mutex no writer can commit past it, so
  // the serial path can never lose a first-writer-wins race.
  Snapshot pinned;
  uint64_t read_ts = snapshot_ts;
  if (read_ts == kLatestSnapshot) {
    pinned = AcquireSnapshot();
    read_ts = pinned.ts();
  }
  const uint64_t write_ts = commit_clock() + 1;
  SnapshotAgeHistogram().Observe(static_cast<double>(commit_clock() - read_ts));

  ExecContext ctx(&catalog_, &options_.exec, stats, read_ts);

  // Phase 1: decide matches and compute new values against the snapshot,
  // so predicates/subqueries never observe partially applied updates.
  struct PendingUpdate {
    size_t pos;                 // version to kill
    std::vector<Value> values;  // aligned with bound.assignments
  };
  std::vector<PendingUpdate> pending;
  const size_t bound_versions = table->num_versions();
  Row row;  // recycled materialization buffer
  for (size_t pos = 0; pos < bound_versions; ++pos) {
    if (!table->VisibleAt(pos, read_ts)) continue;
    table->MaterializeRow(pos, &row);
    if (bound.predicate != nullptr) {
      PDM_ASSIGN_OR_RETURN(bool pass,
                           EvaluatePredicate(*bound.predicate, row, &ctx));
      if (!pass) continue;
    }
    PendingUpdate update;
    update.pos = pos;
    for (const auto& [col, expr] : bound.assignments) {
      PDM_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*expr, row, &ctx));
      if (!KindFitsColumn(v.kind(), schema.column(col).type)) {
        return Status::ExecutionError(StrFormat(
            "UPDATE value of kind %s does not fit column '%s'",
            std::string(ValueKindName(v.kind())).c_str(),
            schema.column(col).name.c_str()));
      }
      update.values.push_back(std::move(v));
    }
    pending.push_back(std::move(update));
  }

  // Phase 2: kill every target version first (first-writer-wins — a
  // target already killed by a later-committed writer means this
  // statement loses and rolls back whole), then append the replacements.
  TableUndo undo;
  for (const PendingUpdate& update : pending) {
    if (!table->KillVersion(update.pos, write_ts, &undo)) {
      undo.Rollback();
      WriteConflictCounter().Increment();
      return Status::WriteConflict(
          "UPDATE of table '" + table->name() +
          "' lost a first-writer-wins race; retry against a fresh snapshot");
    }
  }
  for (const PendingUpdate& update : pending) {
    Row copy = table->VersionData(update.pos);
    for (size_t a = 0; a < bound.assignments.size(); ++a) {
      copy[bound.assignments[a].first] = update.values[a];
    }
    table->AppendVersion(std::move(copy), write_ts, &undo);
  }
  AppendCommitRecord(write_ts, stmt, pending.size());
  commit_clock_.store(write_ts, std::memory_order_release);
  out->affected_rows = pending.size();
  return Status::OK();
}

Status Database::ExecuteDelete(const sql::DeleteStmt& stmt, ResultSet* out,
                               ExecStats* stats, uint64_t snapshot_ts) {
  PDM_ASSIGN_OR_RETURN(BoundDelete bound, MakeBinder().BindDelete(stmt));
  PDM_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(bound.table_name));

  std::lock_guard<std::mutex> writer(dml_mutex_);
  Snapshot pinned;
  uint64_t read_ts = snapshot_ts;
  if (read_ts == kLatestSnapshot) {
    pinned = AcquireSnapshot();
    read_ts = pinned.ts();
  }
  const uint64_t write_ts = commit_clock() + 1;
  SnapshotAgeHistogram().Observe(static_cast<double>(commit_clock() - read_ts));

  ExecContext ctx(&catalog_, &options_.exec, stats, read_ts);

  // Phase 1: decide against the snapshot; phase 2: kill (see
  // ExecuteUpdate for the conflict rule).
  std::vector<size_t> doomed;
  const size_t bound_versions = table->num_versions();
  Row row;  // recycled materialization buffer
  for (size_t pos = 0; pos < bound_versions; ++pos) {
    if (!table->VisibleAt(pos, read_ts)) continue;
    bool pass = true;
    if (bound.predicate != nullptr) {
      table->MaterializeRow(pos, &row);
      PDM_ASSIGN_OR_RETURN(pass,
                           EvaluatePredicate(*bound.predicate, row, &ctx));
    }
    if (pass) doomed.push_back(pos);
  }
  TableUndo undo;
  for (size_t pos : doomed) {
    if (!table->KillVersion(pos, write_ts, &undo)) {
      undo.Rollback();
      WriteConflictCounter().Increment();
      return Status::WriteConflict(
          "DELETE from table '" + table->name() +
          "' lost a first-writer-wins race; retry against a fresh snapshot");
    }
  }
  AppendCommitRecord(write_ts, stmt, doomed.size());
  commit_clock_.store(write_ts, std::memory_order_release);
  out->affected_rows = doomed.size();
  return Status::OK();
}

Status Database::ExecuteCall(const sql::CallStmt& stmt, ResultSet* out,
                             ExecStats* stats) {
  auto it = procedures_.find(ToLowerAscii(stmt.procedure_name));
  if (it == procedures_.end()) {
    return Status::NotFound("unknown procedure '" + stmt.procedure_name + "'");
  }
  Binder binder = MakeBinder();
  ExecContext ctx(&catalog_, &options_.exec, stats);
  Row empty;
  std::vector<Value> args;
  args.reserve(stmt.args.size());
  for (const sql::ExprPtr& arg : stmt.args) {
    PDM_ASSIGN_OR_RETURN(BoundExprPtr bound, binder.BindConstantExpr(*arg));
    PDM_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*bound, empty, &ctx));
    args.push_back(std::move(v));
  }
  return it->second(*this, args, out);
}

Status Database::ExecuteExplain(const sql::ExplainStmt& stmt,
                                ResultSet* out) {
  PDM_ASSIGN_OR_RETURN(BoundSelect bound,
                       MakeBinder().BindSelect(*stmt.select));

  std::string text;
  for (const BoundCte& cte : bound.ctes) {
    text += std::string(cte.recursive ? "RecursiveCTE " : "CTE ") + cte.name +
            ":\n";
    text += cte.seed->ToString(1);
    for (size_t i = 0; i < cte.recursive_terms.size(); ++i) {
      text += StrFormat("  recursive term %zu:\n", i + 1);
      text += cte.recursive_terms[i]->ToString(2);
    }
  }
  text += bound.root->ToString();

  out->schema = Schema({Column{"plan", ColumnType::kString}});
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    out->rows.push_back(
        Row{Value::String(text.substr(start, end - start))});
    start = end + 1;
  }
  return Status::OK();
}

Status Database::ExecuteCreateView(const sql::CreateViewStmt& stmt) {
  if (catalog_.HasTable(stmt.view_name)) {
    return Status::AlreadyExists("a table named '" + stmt.view_name +
                                 "' already exists");
  }
  // Validate the definition binds against the current schema.
  PDM_RETURN_NOT_OK(MakeBinder().BindSelect(*stmt.select).status().WithContext(
      "invalid view definition"));
  Status status = views_.Define(stmt.view_name, stmt.select->CloneSelect(),
                                stmt.or_replace);
  if (status.ok()) ++ddl_epoch_;
  return status;
}

Status Database::ExecuteDropView(const sql::DropViewStmt& stmt) {
  Status status = views_.Drop(stmt.view_name, stmt.if_exists);
  if (status.ok()) ++ddl_epoch_;
  return status;
}

Status Database::RegisterProcedure(std::string_view name,
                                   Procedure procedure) {
  std::string key = ToLowerAscii(name);
  if (procedures_.count(key) > 0) {
    return Status::AlreadyExists("procedure '" + key + "' already registered");
  }
  procedures_[key] = std::move(procedure);
  return Status::OK();
}

}  // namespace pdm
