// google-benchmark microbenchmarks for the SQL engine substrate:
// lexing/parsing, point lookups, joins, recursive CTE evaluation, the
// rule modificator, and the row-vs-vectorized link-expansion scan grid.
// These measure local engine cost (the component the paper deliberately
// ignores: "local query evaluation costs were ignored ... transmission
// costs are the dominating limitation factor").
//
// Usage: micro_engine [--filter REGEX] [--csv PATH] [--json PATH]
//                     [--gate-vec-speedup MIN] [--gate-vec-join-speedup MIN]
//   --filter            shorthand for --benchmark_filter
//   --csv               write results as CSV to PATH (benchmark runs)
//                       or next to the stdout report (gate mode)
//   --json              gate mode only: also write the grid as JSON
//                       (the BENCH_vec_join.json CI artifact)
//   --gate-vec-speedup  skip google-benchmark: time the link-expansion
//                       scan on both engines, verify byte-identical
//                       results, and exit non-zero unless the
//                       vectorized path is at least MIN times faster.
//   --gate-vec-join-speedup
//                       same, for the PDM statement grid the batch
//                       engine serves: the gated late-evaluation
//                       query-all, plus the index join and the
//                       recursive expand reported ungated.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "catalog/column_store.h"
#include "common/string_util.h"
#include "rules/query_builder.h"
#include "rules/query_modificator.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"

namespace pdm::bench {
namespace {

std::unique_ptr<client::Experiment>& SharedExperiment() {
  static std::unique_ptr<client::Experiment>* kExperiment = [] {
    model::TreeParams tree{5, 5, 0.6};
    model::NetworkParams net;
    Result<std::unique_ptr<client::Experiment>> experiment =
        client::Experiment::Create(MakeExperimentConfig(tree, net));
    if (!experiment.ok()) std::abort();
    return new std::unique_ptr<client::Experiment>(
        std::move(*experiment));
  }();
  return *kExperiment;
}

void BM_LexAndParseRecursiveQuery(benchmark::State& state) {
  std::string sql = rules::BuildRecursiveTreeQuery(1)->ToSql();
  for (auto _ : state) {
    Result<sql::StatementPtr> stmt = sql::ParseSql(sql);
    if (!stmt.ok()) state.SkipWithError("parse failed");
    benchmark::DoNotOptimize(stmt);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sql.size()));
}
BENCHMARK(BM_LexAndParseRecursiveQuery);

void BM_RenderRecursiveQuery(benchmark::State& state) {
  std::unique_ptr<sql::SelectStmt> stmt = rules::BuildRecursiveTreeQuery(1);
  for (auto _ : state) {
    std::string sql = stmt->ToSql();
    benchmark::DoNotOptimize(sql);
  }
}
BENCHMARK(BM_RenderRecursiveQuery);

/// The statement the navigate workload ships once per node: the a9b3
/// navigational (early rule evaluation) single-level expand, taken from
/// the server's statement log for the root.
const std::string& NavExpandSql() {
  static const std::string* kSql = [] {
    const model::TreeParams a9b3 = model::PaperTreeScenarios()[1];
    Result<std::unique_ptr<client::Experiment>> e = client::Experiment::Create(
        MakeExperimentConfig(a9b3, model::NetworkParams{}));
    if (!e.ok()) std::abort();
    DbServer& server = (*e)->server();
    server.EnableStatementLog(true);
    std::unique_ptr<client::AccessStrategy> nav =
        (*e)->MakeStrategy(model::StrategyKind::kNavigationalEarly);
    if (!nav->SingleLevelExpand((*e)->product().root_obid).ok()) std::abort();
    std::vector<DbServer::StatementLogEntry> log = server.statement_log();
    if (log.empty()) std::abort();
    return new std::string(log.front().sql);
  }();
  return *kSql;
}

/// Server-side reading of one navigational statement's text: the lexer
/// pass plus the fingerprint (key, parameters, flags). One iteration is
/// one statement, so the reported time is ns per statement.
void BM_FingerprintNavExpand(benchmark::State& state) {
  const std::string& sql = NavExpandSql();
  size_t tokens = 0;
  for (auto _ : state) {
    Result<sql::StatementFingerprint> fp = sql::FingerprintSql(sql);
    if (!fp.ok()) {
      state.SkipWithError("fingerprint failed");
      return;
    }
    tokens = fp->tokens.size();
    benchmark::DoNotOptimize(fp);
  }
  state.counters["bytes"] = static_cast<double>(sql.size());
  state.counters["tokens"] = static_cast<double>(tokens);
}
BENCHMARK(BM_FingerprintNavExpand);

void BM_PointLookup(benchmark::State& state) {
  client::Experiment& e = *SharedExperiment();
  Database& db = e.server().database();
  std::string sql = "SELECT name FROM assy WHERE obid = " +
                    std::to_string(e.product().root_obid);
  for (auto _ : state) {
    Result<ResultSet> result = db.Query(sql);
    if (!result.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PointLookup);

void BM_ExpandQuery(benchmark::State& state) {
  client::Experiment& e = *SharedExperiment();
  Database& db = e.server().database();
  std::string sql =
      rules::BuildExpandQuery(e.product().root_obid)->ToSql();
  for (auto _ : state) {
    Result<ResultSet> result = db.Query(sql);
    if (!result.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ExpandQuery);

void BM_RecursiveMleLocal(benchmark::State& state) {
  client::Experiment& e = *SharedExperiment();
  Database& db = e.server().database();
  std::unique_ptr<sql::SelectStmt> stmt =
      rules::BuildRecursiveTreeQuery(e.product().root_obid);
  rules::QueryModificator modificator(&e.rule_table(), e.user());
  if (!modificator
           .ApplyToRecursiveQuery(stmt.get(),
                                  rules::RuleAction::kMultiLevelExpand)
           .ok()) {
    state.SkipWithError("modification failed");
    return;
  }
  std::string sql = stmt->ToSql();
  for (auto _ : state) {
    Result<ResultSet> result = db.Query(sql);
    if (!result.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(result);
  }
  state.counters["result_rows"] = static_cast<double>(
      db.Query(sql)->num_rows());
}
BENCHMARK(BM_RecursiveMleLocal);

void BM_QueryModification(benchmark::State& state) {
  client::Experiment& e = *SharedExperiment();
  rules::QueryModificator modificator(&e.rule_table(), e.user());
  for (auto _ : state) {
    std::unique_ptr<sql::SelectStmt> stmt =
        rules::BuildRecursiveTreeQuery(e.product().root_obid);
    Result<rules::ModificationSummary> summary =
        modificator.ApplyToRecursiveQuery(
            stmt.get(), rules::RuleAction::kMultiLevelExpand);
    if (!summary.ok()) state.SkipWithError("modification failed");
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_QueryModification);

/// Parent obids of the shared product, the navigation workload's
/// rotating parameter.
const std::vector<int64_t>& ExpandParents() {
  static const std::vector<int64_t>* kParents = [] {
    Database& db = SharedExperiment()->server().database();
    Result<ResultSet> rs =
        db.Query("SELECT DISTINCT left FROM link ORDER BY 1");
    if (!rs.ok()) std::abort();
    auto* parents = new std::vector<int64_t>();
    for (size_t i = 0; i < rs->num_rows(); ++i) {
      parents->push_back(rs->At(i, 0).int64_value());
    }
    return parents;
  }();
  return *kParents;
}

/// Server CPU per navigational expand, plan cache on vs off. The SQL
/// text changes every iteration (different parent obid), so cache-on
/// exercises fingerprint + a cached plan run with the new parameters
/// while cache-off (a zero-capacity cache) fingerprints, then parses the
/// tokens and binds — the paper's repeated "isolated SQL queries"
/// pattern seen by the server. Results are verified byte-identical
/// between the two modes before timing.
void ExpandBenchmark(benchmark::State& state, bool use_cache) {
  client::Experiment& e = *SharedExperiment();
  Database& db = e.server().database();
  PlanCache& cache = db.plan_cache();
  const std::vector<int64_t>& parents = ExpandParents();

  // Every cold run first, so the warm pass runs on cached plans with
  // other parameters rather than on one fresh miss per parent.
  const size_t saved = cache.capacity();
  cache.set_capacity(0);
  std::vector<Result<ResultSet>> cold;
  for (int64_t parent : parents) {
    cold.push_back(db.Query(rules::BuildExpandQuery(parent)->ToSql()));
  }
  cache.set_capacity(saved);
  for (size_t i = 0; i < parents.size(); ++i) {
    Result<ResultSet> warm =
        db.Query(rules::BuildExpandQuery(parents[i])->ToSql());
    if (!cold[i].ok() || !warm.ok() ||
        cold[i]->ToString(1 << 20) != warm->ToString(1 << 20)) {
      state.SkipWithError("cached result differs from cold result");
      return;
    }
  }

  if (!use_cache) cache.set_capacity(0);
  const PlanCacheStats before = cache.stats();
  size_t next = 0;
  for (auto _ : state) {
    std::string sql =
        rules::BuildExpandQuery(parents[next])->ToSql();
    next = (next + 1) % parents.size();
    Result<ResultSet> result = db.Query(sql);
    if (!result.ok()) {
      cache.set_capacity(saved);
      state.SkipWithError("query failed");
      return;
    }
    benchmark::DoNotOptimize(result);
  }
  cache.set_capacity(saved);
  const PlanCacheStats& after = db.plan_cache().stats();
  state.counters["cache_hits"] =
      static_cast<double>(after.hits - before.hits);
  state.counters["cache_misses"] =
      static_cast<double>(after.misses - before.misses);
}

void BM_ExpandQueryPlanCacheOff(benchmark::State& state) {
  ExpandBenchmark(state, false);
}
BENCHMARK(BM_ExpandQueryPlanCacheOff);

void BM_ExpandQueryPlanCacheOn(benchmark::State& state) {
  ExpandBenchmark(state, true);
}
BENCHMARK(BM_ExpandQueryPlanCacheOn);

/// Server CPU for one level-sized batch of expand statements through
/// DbServer::ExecuteBatch, swept over batch_threads (DESIGN.md 5d).
/// Before timing, the swept thread count is verified byte-identical to
/// the serial (batch_threads = 1) execution, slot by slot.
void BM_BatchExpandThreads(benchmark::State& state) {
  client::Experiment& e = *SharedExperiment();
  DbServer& server = e.server();
  const std::vector<int64_t>& parents = ExpandParents();

  std::vector<std::string> statements;
  statements.reserve(parents.size());
  for (int64_t parent : parents) {
    statements.push_back(rules::BuildExpandQuery(parent)->ToSql());
  }

  const size_t threads = static_cast<size_t>(state.range(0));
  const size_t saved = server.config().batch_threads;
  auto run = [&](size_t n) {
    server.mutable_config().batch_threads = n;
    return server.ExecuteBatch(statements);
  };
  std::vector<DbServer::BatchStatementResult> reference = run(1);
  std::vector<DbServer::BatchStatementResult> probe = run(threads);
  for (size_t i = 0; i < statements.size(); ++i) {
    if (!reference[i].status.ok() || !probe[i].status.ok() ||
        reference[i].result.ToString(1 << 20) !=
            probe[i].result.ToString(1 << 20)) {
      server.mutable_config().batch_threads = saved;
      state.SkipWithError("parallel batch differs from serial batch");
      return;
    }
  }

  server.mutable_config().batch_threads = threads;
  const uint64_t fp_before = sql::FingerprintCallCount();
  size_t batches = 0;
  for (auto _ : state) {
    std::vector<DbServer::BatchStatementResult> results =
        server.ExecuteBatch(statements);
    benchmark::DoNotOptimize(results);
    ++batches;
  }
  const uint64_t fp_after = sql::FingerprintCallCount();
  server.mutable_config().batch_threads = saved;
  state.counters["statements"] = static_cast<double>(statements.size());
  // Lexer passes per statement: 1.0 since the batch path computes one
  // fingerprint per statement and reuses it for the read-only check and
  // the plan-cache lookup (it was 2.0 when those were separate passes).
  if (batches > 0) {
    state.counters["fingerprints_per_stmt"] =
        static_cast<double>(fp_after - fp_before) /
        static_cast<double>(batches * statements.size());
  }
}
BENCHMARK(BM_BatchExpandThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --- Row vs vectorized link-expansion scan (DESIGN.md 5i) -------------------

constexpr size_t kLinkScanRows = 100000;

/// Dedicated 100k-row link table for the hot scan cell. The effectivity
/// window predicate `eff_from <= K AND eff_to > K` is the paper's
/// link-expansion filter shape and — being a pure range conjunction —
/// never diverts to the equality-index row path, so both engines do an
/// honest full scan.
Database& LinkScanDb() {
  static Database* kDb = [] {
    auto* db = new Database();
    Status created = db->Execute(
        "CREATE TABLE biglink (obid INTEGER, left INTEGER, right INTEGER, "
        "eff_from INTEGER, eff_to INTEGER)");
    if (!created.ok()) std::abort();
    size_t next = 0;
    while (next < kLinkScanRows) {
      std::string sql = "INSERT INTO biglink VALUES ";
      const size_t batch = std::min<size_t>(1000, kLinkScanRows - next);
      for (size_t j = 0; j < batch; ++j) {
        const size_t i = next + j;
        const size_t from = i % 100;
        if (j > 0) sql += ", ";
        sql += StrFormat("(%zu, %zu, %zu, %zu, %zu)", i, i / 8, i + 1, from,
                         from + 10 + i % 37);
      }
      if (!db->Execute(sql).ok()) std::abort();
      next += batch;
    }
    return db;
  }();
  return *kDb;
}

std::string LinkScanSql(int64_t k) {
  return StrFormat(
      "SELECT left, right FROM biglink WHERE eff_from <= %lld AND "
      "eff_to > %lld",
      static_cast<long long>(k), static_cast<long long>(k));
}

constexpr size_t kObjRows = kLinkScanRows / 8;  // one obj per 8 links

/// Companion object table for the join/aggregate grid: biglink.left
/// ranges over 0..kObjRows-1, so `l.left = o.obid` is the paper's
/// link->object navigation join at benchmark scale.
void EnsureBigObj(Database* db) {
  if (db->Query("SELECT obid FROM bigobj LIMIT 1").ok()) return;
  Status created = db->Execute(
      "CREATE TABLE bigobj (obid INTEGER, grp INTEGER, weight DOUBLE)");
  if (!created.ok()) std::abort();
  size_t next = 0;
  while (next < kObjRows) {
    std::string sql = "INSERT INTO bigobj VALUES ";
    const size_t batch = std::min<size_t>(1000, kObjRows - next);
    for (size_t j = 0; j < batch; ++j) {
      const size_t i = next + j;
      if (j > 0) sql += ", ";
      sql += StrFormat("(%zu, %zu, %zu.5)", i, i % 100, i % 17);
    }
    if (!db->Execute(sql).ok()) std::abort();
    next += batch;
  }
}

/// One cell of the grid: the effectivity scan at cut point K (higher K
/// selects fewer rows), on one engine. Before timing, the two engines'
/// result trees are verified byte-identical for this K.
void LinkExpansionScan(benchmark::State& state, bool vectorized) {
  Database& db = LinkScanDb();
  const std::string sql = LinkScanSql(state.range(0));

  db.options().exec.vectorized_execution = false;
  Result<ResultSet> row_rs = db.Query(sql);
  db.options().exec.vectorized_execution = true;
  Result<ResultSet> vec_rs = db.Query(sql);
  if (!row_rs.ok() || !vec_rs.ok() ||
      row_rs->ToString(1 << 24) != vec_rs->ToString(1 << 24)) {
    state.SkipWithError("vectorized result differs from row result");
    return;
  }

  db.options().exec.vectorized_execution = vectorized;
  for (auto _ : state) {
    Result<ResultSet> result = db.Query(sql);
    if (!result.ok()) {
      db.options().exec.vectorized_execution = true;
      state.SkipWithError("query failed");
      return;
    }
    benchmark::DoNotOptimize(result);
  }
  db.options().exec.vectorized_execution = true;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kLinkScanRows));
  state.counters["result_rows"] = static_cast<double>(vec_rs->num_rows());
  state.counters["vec_batches"] = static_cast<double>(
      vectorized ? (kLinkScanRows + kFragmentRows - 1) / kFragmentRows : 0);
}

void BM_LinkExpansionScanRow(benchmark::State& state) {
  LinkExpansionScan(state, /*vectorized=*/false);
}
BENCHMARK(BM_LinkExpansionScanRow)->Arg(10)->Arg(50)->Arg(90);

void BM_LinkExpansionScanVectorized(benchmark::State& state) {
  LinkExpansionScan(state, /*vectorized=*/true);
}
BENCHMARK(BM_LinkExpansionScanVectorized)->Arg(10)->Arg(50)->Arg(90);

void BM_FlatQueryScan(benchmark::State& state) {
  client::Experiment& e = *SharedExperiment();
  Database& db = e.server().database();
  for (auto _ : state) {
    Result<ResultSet> result =
        db.Query("SELECT COUNT(*) FROM comp WHERE acc = '+'");
    if (!result.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FlatQueryScan);

void BM_AggregateGroupBy(benchmark::State& state) {
  client::Experiment& e = *SharedExperiment();
  Database& db = e.server().database();
  for (auto _ : state) {
    Result<ResultSet> result = db.Query(
        "SELECT material, COUNT(*), AVG(weight) FROM comp GROUP BY "
        "material");
    if (!result.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_AggregateGroupBy);

}  // namespace

/// CI gate: times the link-expansion scan grid on both engines with
/// plain steady_clock (no google-benchmark — the gate must stay cheap
/// and its output one CSV table), verifies byte-identical results, and
/// fails unless every cell's vectorized path is at least `min_speedup`
/// times faster than the row path. The CI floor is 3x; the calibrated
/// model target (per_row_scan_s / per_row_scan_vec_s) is 5x, which
/// local runs should meet.
int RunLinkExpansionGate(double min_speedup, const std::string& csv_path) {
  Database& db = LinkScanDb();
  constexpr int64_t kCuts[] = {10, 50, 90};
  constexpr int kRowIters = 5;
  constexpr int kVecIters = 15;

  auto best_seconds = [&](const std::string& sql, bool vectorized,
                          int iters) {
    db.options().exec.vectorized_execution = vectorized;
    double best = 1e300;
    for (int i = 0; i < iters; ++i) {
      const auto start = std::chrono::steady_clock::now();
      Result<ResultSet> result = db.Query(sql);
      const auto stop = std::chrono::steady_clock::now();
      if (!result.ok()) return -1.0;
      best = std::min(best, std::chrono::duration<double>(stop - start)
                                .count());
    }
    return best;
  };

  std::string csv =
      "cell,k,result_rows,row_s_per_query,vec_s_per_query,speedup\n";
  PrintBanner("micro_engine gate: vectorized link-expansion scan speedup");
  std::printf("%-20s %4s %12s %12s %12s %9s\n", "cell", "k", "result_rows",
              "row s/query", "vec s/query", "speedup");
  bool ok = true;
  for (int64_t k : kCuts) {
    const std::string sql = LinkScanSql(k);
    db.options().exec.vectorized_execution = false;
    Result<ResultSet> row_rs = db.Query(sql);
    db.options().exec.vectorized_execution = true;
    Result<ResultSet> vec_rs = db.Query(sql);
    if (!row_rs.ok() || !vec_rs.ok() ||
        row_rs->ToString(1 << 24) != vec_rs->ToString(1 << 24)) {
      std::fprintf(stderr, "k=%lld: engines disagree\n",
                   static_cast<long long>(k));
      return 1;
    }
    const double row_s = best_seconds(sql, /*vectorized=*/false, kRowIters);
    const double vec_s = best_seconds(sql, /*vectorized=*/true, kVecIters);
    db.options().exec.vectorized_execution = true;
    if (row_s < 0 || vec_s <= 0) {
      std::fprintf(stderr, "k=%lld: query failed\n",
                   static_cast<long long>(k));
      return 1;
    }
    const double speedup = row_s / vec_s;
    const bool cell_ok = speedup >= min_speedup;
    ok = ok && cell_ok;
    std::printf("%-20s %4lld %12zu %12.6f %12.6f %8.2fx%s\n",
                "link-expansion-scan", static_cast<long long>(k),
                vec_rs->num_rows(), row_s, vec_s, speedup,
                cell_ok ? "" : "  BELOW GATE");
    csv += StrFormat("link-expansion-scan,%lld,%zu,%.9f,%.9f,%.3f\n",
                     static_cast<long long>(k), vec_rs->num_rows(), row_s,
                     vec_s, speedup);
  }
  if (!csv_path.empty()) {
    std::FILE* f = std::fopen(csv_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
      return 1;
    }
    std::fputs(csv.c_str(), f);
    std::fclose(f);
    std::printf("csv written to %s\n", csv_path.c_str());
  }
  if (!ok) {
    std::fprintf(stderr, "\nvectorized speedup below the %.1fx gate\n",
                 min_speedup);
    return 1;
  }
  std::printf("\nall cells at or above the %.1fx gate\n", min_speedup);
  return 0;
}

/// CI gate for the statements the batch engine serves (DESIGN.md 5j):
/// times each grid cell on both engines (best-of-8 steady_clock each),
/// verifies the results byte-identical per cell first, and fails unless
/// every *gated* cell clears `min_speedup`. The late-evaluation
/// query-all is gated; the index join, whose row path already probes
/// the shared lazy index, and the end-to-end recursive expand are
/// reported for EXPERIMENTS.md but don't fail the run; their engines
/// must still agree. Writes the grid as CSV (--csv) and JSON (--json,
/// the BENCH_vec_join.json CI artifact).
int RunVecJoinGate(double min_speedup, const std::string& csv_path,
                   const std::string& json_path) {
  Database& db = LinkScanDb();
  EnsureBigObj(&db);

  struct Cell {
    const char* name;
    std::string sql;
    bool gated;
    // Runs against the shared experiment's PDM database instead of the
    // dedicated benchmark tables.
    bool on_experiment = false;
  };
  std::vector<Cell> cells = {
      {"index-join",
       "SELECT l.obid, o.grp FROM biglink AS l "
       "JOIN bigobj AS o ON l.left = o.obid",
       false},
  };
  {
    // End-to-end payoff cell: the recursive multi-level expand over the
    // shared experiment product (per-level joins through the bridge).
    client::Experiment& e = *SharedExperiment();
    std::unique_ptr<sql::SelectStmt> stmt =
        rules::BuildRecursiveTreeQuery(e.product().root_obid);
    rules::QueryModificator modificator(&e.rule_table(), e.user());
    if (modificator
            .ApplyToRecursiveQuery(stmt.get(),
                                   rules::RuleAction::kMultiLevelExpand)
            .ok()) {
      cells.push_back({"recursive-mle", stmt->ToSql(), false, true});
    }
    // The late-evaluation query-all: every object, homogenized with ''
    // and CAST(NULL AS ...) fillers, one VecSource per UNION ALL branch.
    cells.push_back(
        {"late-query-all", rules::BuildFlatQuery()->ToSql(), true, true});
  }

  constexpr int kIters = 8;
  auto best_seconds = [](Database* target, const std::string& sql,
                         bool vectorized) {
    target->options().exec.vectorized_execution = vectorized;
    double best = 1e300;
    for (int i = 0; i < kIters; ++i) {
      const auto start = std::chrono::steady_clock::now();
      Result<ResultSet> result = target->Query(sql);
      const auto stop = std::chrono::steady_clock::now();
      if (!result.ok()) return -1.0;
      best = std::min(best,
                      std::chrono::duration<double>(stop - start).count());
    }
    return best;
  };

  std::string csv =
      "cell,gated,result_rows,row_s_per_query,vec_s_per_query,speedup\n";
  std::string json = StrFormat("{\"gate\": %.2f, \"cells\": [", min_speedup);
  PrintBanner("micro_engine gate: vectorized PDM statement speedup");
  std::printf("%-18s %6s %12s %12s %12s %9s\n", "cell", "gated",
              "result_rows", "row s/query", "vec s/query", "speedup");
  bool ok = true;
  bool first = true;
  for (const Cell& cell : cells) {
    Database& target =
        cell.on_experiment ? SharedExperiment()->server().database() : db;
    target.options().exec.vectorized_execution = false;
    Result<ResultSet> row_rs = target.Query(cell.sql);
    target.options().exec.vectorized_execution = true;
    Result<ResultSet> vec_rs = target.Query(cell.sql);
    if (!row_rs.ok() || !vec_rs.ok() ||
        row_rs->ToString(1 << 24) != vec_rs->ToString(1 << 24)) {
      std::fprintf(stderr, "%s: engines disagree\n", cell.name);
      return 1;
    }
    const double row_s = best_seconds(&target, cell.sql, false);
    const double vec_s = best_seconds(&target, cell.sql, true);
    target.options().exec.vectorized_execution = true;
    if (row_s < 0 || vec_s <= 0) {
      std::fprintf(stderr, "%s: query failed\n", cell.name);
      return 1;
    }
    const double speedup = row_s / vec_s;
    const bool cell_ok = !cell.gated || speedup >= min_speedup;
    ok = ok && cell_ok;
    std::printf("%-18s %6s %12zu %12.6f %12.6f %8.2fx%s\n", cell.name,
                cell.gated ? "yes" : "no", vec_rs->num_rows(), row_s, vec_s,
                speedup, cell_ok ? "" : "  BELOW GATE");
    csv += StrFormat("%s,%s,%zu,%.9f,%.9f,%.3f\n", cell.name,
                     cell.gated ? "yes" : "no", vec_rs->num_rows(), row_s,
                     vec_s, speedup);
    json += StrFormat(
        "%s{\"cell\": \"%s\", \"gated\": %s, \"result_rows\": %zu, "
        "\"row_s\": %.9f, \"vec_s\": %.9f, \"speedup\": %.3f}",
        first ? "" : ", ", cell.name, cell.gated ? "true" : "false",
        vec_rs->num_rows(), row_s, vec_s, speedup);
    first = false;
  }
  json += "]}\n";
  if (!csv_path.empty()) {
    std::FILE* f = std::fopen(csv_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
      return 1;
    }
    std::fputs(csv.c_str(), f);
    std::fclose(f);
    std::printf("csv written to %s\n", csv_path.c_str());
  }
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("json written to %s\n", json_path.c_str());
  }
  if (!ok) {
    std::fprintf(stderr,
                 "\nvectorized speedup of a gated cell below the %.1fx gate\n",
                 min_speedup);
    return 1;
  }
  std::printf("\nall gated cells at or above the %.1fx gate\n", min_speedup);
  return 0;
}

}  // namespace pdm::bench

int main(int argc, char** argv) {
  std::vector<char*> args = {argv[0]};
  std::string filter;
  std::string csv;
  std::string json;
  double gate = 0;
  double join_gate = 0;
  bool bad_usage = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto take = [&](const char* flag, std::string* out) {
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) {
        *out = arg.substr(prefix.size());
        return true;
      }
      if (arg == flag) {
        if (i + 1 >= argc) {
          bad_usage = true;
          return true;
        }
        *out = argv[++i];
        return true;
      }
      return false;
    };
    std::string gate_str;
    std::string join_gate_str;
    if (take("--filter", &filter) || take("--csv", &csv) ||
        take("--json", &json)) {
      continue;
    }
    if (take("--gate-vec-speedup", &gate_str)) {
      if (!gate_str.empty()) gate = std::atof(gate_str.c_str());
      if (gate <= 0) bad_usage = true;
      continue;
    }
    if (take("--gate-vec-join-speedup", &join_gate_str)) {
      if (!join_gate_str.empty()) join_gate = std::atof(join_gate_str.c_str());
      if (join_gate <= 0) bad_usage = true;
      continue;
    }
    args.push_back(argv[i]);  // google-benchmark flags pass through
  }
  if (bad_usage) {
    std::fprintf(stderr,
                 "usage: %s [--filter REGEX] [--csv PATH] [--json PATH] "
                 "[--gate-vec-speedup MIN] [--gate-vec-join-speedup MIN] "
                 "[benchmark flags]\n",
                 argv[0]);
    return 2;
  }
  if (gate > 0) return pdm::bench::RunLinkExpansionGate(gate, csv);
  if (join_gate > 0) {
    return pdm::bench::RunVecJoinGate(join_gate, csv, json);
  }

  std::string filter_flag;
  std::string out_flag;
  std::string fmt_flag;
  if (!filter.empty()) {
    filter_flag = "--benchmark_filter=" + filter;
    args.push_back(filter_flag.data());
  }
  if (!csv.empty()) {
    out_flag = "--benchmark_out=" + csv;
    fmt_flag = "--benchmark_out_format=csv";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
