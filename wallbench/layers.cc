// Per-layer attribution of the wall-clock PDM action benchmark. Layers are
// named after the src/ modules. Spans that already exist (bench:* around
// each action, server:statement, engine:parse, engine:parse+bind,
// engine:exec, queue:wait) give the layers the program times itself; the
// stages without a span (render, inject, fingerprint, plan lookup,
// sizing, late filter) are replayed through the same public calls on the
// warm server after the traced window.

#include "layers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string_view>
#include <unordered_map>

#include "obs/metrics.h"
#include "sql/fingerprint.h"

namespace pdm::wallbench {

namespace {

constexpr double kUs = 1e6;

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

bool IsEngineSpan(const obs::SpanRecord& span) {
  return StartsWith(span.name, "engine:");
}

/// Sums of the traced window's spans.
struct SpanTotals {
  size_t actions = 0;
  double action_wall_s = 0;
  /// Action wall not covered by a server:statement or queue:wait span of
  /// the action, nor by a server:statement the action's thread ran for
  /// another client while it led an admission wave.
  double client_self_s = 0;
  size_t statements = 0;      // server:statement spans
  double server_self_s = 0;   // server:statement minus engine:* children
  double exec_s = 0;          // engine:exec
  double parse_s = 0;         // engine:parse and engine:parse+bind
  double queue_wait_s = 0;    // queue:wait
};

using Interval = std::pair<double, double>;

double CoveredLength(std::vector<Interval> intervals, double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0;
  double end = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, end);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      end = b;
    }
  }
  return covered;
}

SpanTotals SumSpans(const std::vector<obs::SpanRecord>& spans) {
  SpanTotals totals;
  std::unordered_map<uint64_t, double> engine_child_us;
  for (const obs::SpanRecord& span : spans) {
    if (IsEngineSpan(span) && span.parent_id != 0) {
      engine_child_us[span.parent_id] += span.wall_dur_us;
    }
  }
  std::unordered_map<uint64_t, std::vector<Interval>> blocking_by_trace;
  std::unordered_map<uint64_t, std::vector<Interval>> statements_by_thread;
  for (const obs::SpanRecord& span : spans) {
    const Interval interval{span.wall_start_us,
                            span.wall_start_us + span.wall_dur_us};
    if (span.name == "server:statement") {
      ++totals.statements;
      totals.server_self_s +=
          (span.wall_dur_us - engine_child_us[span.span_id]) / kUs;
      blocking_by_trace[span.trace_id].push_back(interval);
      statements_by_thread[span.thread].push_back(interval);
    } else if (span.name == "queue:wait") {
      totals.queue_wait_s += span.wall_dur_us / kUs;
      blocking_by_trace[span.trace_id].push_back(interval);
    } else if (span.name == "engine:exec") {
      totals.exec_s += span.wall_dur_us / kUs;
    } else if (StartsWith(span.name, "engine:parse")) {
      totals.parse_s += span.wall_dur_us / kUs;
    }
  }
  for (auto& [thread, intervals] : statements_by_thread) {
    std::sort(intervals.begin(), intervals.end());
  }
  for (const obs::SpanRecord& span : spans) {
    if (span.parent_id != 0 || !StartsWith(span.name, "bench:")) continue;
    const double lo = span.wall_start_us;
    const double hi = lo + span.wall_dur_us;
    std::vector<Interval> covered = blocking_by_trace[span.trace_id];
    const std::vector<Interval>& own = statements_by_thread[span.thread];
    for (auto it = std::lower_bound(own.begin(), own.end(), Interval{lo, lo});
         it != own.end() && it->first < hi; ++it) {
      covered.push_back(*it);
    }
    ++totals.actions;
    totals.action_wall_s += span.wall_dur_us / kUs;
    totals.client_self_s +=
        (span.wall_dur_us - CoveredLength(std::move(covered), lo, hi)) / kUs;
  }
  return totals;
}

/// Server-side stages replayed on the warm server.
struct ServerStages {
  double fingerprint_s = 0;
  size_t fingerprints = 0;
  double lookup_s = 0;  // ExecuteFingerprinted minus its engine:exec
  size_t lookups = 0;
  double sizing_s = 0;
  size_t sized = 0;
  double parse_bind_s = 0;
  size_t parse_binds = 0;
};

/// Up to `limit` read statements of the log, evenly strided.
std::vector<std::string> SampleReads(
    const std::vector<DbServer::StatementLogEntry>& log, size_t limit) {
  std::vector<const std::string*> reads;
  for (const DbServer::StatementLogEntry& entry : log) {
    Result<sql::StatementFingerprint> fp = sql::FingerprintSql(entry.sql);
    if (fp.ok() && fp->cacheable) reads.push_back(&entry.sql);
  }
  std::vector<std::string> sample;
  const size_t n = std::min(limit, reads.size());
  for (size_t i = 0; i < n; ++i) {
    sample.push_back(*reads[i * reads.size() / n]);
  }
  return sample;
}

Result<ServerStages> ReplayServerStages(DbServer& server,
                                        const std::vector<std::string>& reads) {
  ServerStages stages;
  if (reads.empty()) return stages;
  Database& db = server.database();
  obs::Tracer& tracer = obs::Tracer::Global();

  // Lexing/fingerprinting: whole passes over the sample.
  const Clock::time_point fp_start = Clock::now();
  while (stages.fingerprints == 0 ||
         SecondsBetween(fp_start, Clock::now()) < 0.1) {
    const Clock::time_point t0 = Clock::now();
    for (const std::string& sql : reads) {
      PDM_RETURN_NOT_OK(sql::FingerprintSql(sql).status());
    }
    stages.fingerprint_s += SecondsBetween(t0, Clock::now());
    stages.fingerprints += reads.size();
  }

  // Plan lookup: ExecuteFingerprinted on the warm plan cache minus the
  // engine:exec span it opens; response sizing on the same results.
  tracer.Clear();
  tracer.Enable(true);
  const Clock::time_point lookup_start = Clock::now();
  for (const std::string& sql : reads) {
    PDM_ASSIGN_OR_RETURN(sql::StatementFingerprint fp,
                         sql::FingerprintSql(sql));
    ResultSet out;
    ExecStats stats;
    Status status;
    {
      obs::ScopedSpan span("replay:execute", obs::ModelTerm::kNone);
      status = db.ExecuteFingerprinted(std::move(fp), &out, &stats);
    }
    PDM_RETURN_NOT_OK(status);
    const Clock::time_point t0 = Clock::now();
    const size_t bytes = server.ResponseBytes(out);
    stages.sizing_s += SecondsBetween(t0, Clock::now());
    stages.sized += bytes > 0 ? 1 : 0;
    if (SecondsBetween(lookup_start, Clock::now()) > 1.0) break;
  }
  std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  std::unordered_map<uint64_t, const obs::SpanRecord*> replays;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "replay:execute") replays[span.span_id] = &span;
  }
  std::unordered_map<uint64_t, double> exec_us;
  std::unordered_map<uint64_t, bool> missed;
  for (const obs::SpanRecord& span : spans) {
    if (span.name == "engine:exec") exec_us[span.parent_id] += span.wall_dur_us;
    if (StartsWith(span.name, "engine:parse")) missed[span.parent_id] = true;
  }
  for (const auto& [id, span] : replays) {
    if (missed[id]) continue;  // a bypass: not a plan-cache hit
    stages.lookup_s += (span->wall_dur_us - exec_us[id]) / kUs;
    ++stages.lookups;
  }

  // Parse + bind on a miss: flush the cache before each distinct
  // statement shape and read its engine:parse+bind span.
  std::map<std::string, const std::string*> shapes;
  for (const std::string& sql : reads) {
    PDM_ASSIGN_OR_RETURN(sql::StatementFingerprint fp,
                         sql::FingerprintSql(sql));
    shapes.emplace(fp.key, &sql);
  }
  tracer.Clear();
  const Clock::time_point miss_start = Clock::now();
  for (size_t rep = 0;
       rep == 0 || SecondsBetween(miss_start, Clock::now()) < 0.3; ++rep) {
    for (const auto& [key, sql] : shapes) {
      db.plan_cache().Flush();
      ResultSet out;
      ExecStats stats;
      PDM_RETURN_NOT_OK(db.Execute(*sql, &out, &stats));
    }
  }
  tracer.Enable(false);
  for (const obs::SpanRecord& span : tracer.Snapshot()) {
    if (span.name == "engine:parse+bind") {
      stages.parse_bind_s += span.wall_dur_us / kUs;
      ++stages.parse_binds;
    }
  }
  tracer.Clear();
  // Leave every replayed shape cached again.
  for (const auto& [key, sql] : shapes) {
    ResultSet out;
    ExecStats stats;
    PDM_RETURN_NOT_OK(db.Execute(*sql, &out, &stats));
  }
  return stages;
}

/// Prints what model::ServerSeconds charges per statement next to the
/// measured wall of the same stage (informational; no gate).
void PrintModelVsWall(const DbServer& server,
                      const std::vector<DbServer::StatementLogEntry>& log,
                      const SpanTotals& spans, const ServerStages& replay,
                      const WindowCounters& traced) {
  const model::ServerCostParams& cost = server.config().server_cost;
  double model_total = 0;
  double model_parse = 0;
  size_t executed = 0;
  for (const DbServer::StatementLogEntry& entry : log) {
    if (entry.coalesced) continue;
    ++executed;
    model_total += model::ServerSeconds(cost, entry.Work());
    if (!entry.plan_cache_hit) model_parse += cost.parse_plan_s;
  }
  const double n = static_cast<double>(std::max<size_t>(executed, 1));
  const double model_overhead = executed > 0 ? cost.statement_overhead_s : 0;
  const double model_exec = model_total / n - model_overhead - model_parse / n;
  const double lookups =
      static_cast<double>(traced.plan_cache.hits + traced.plan_cache.misses);
  const double hit_share = Ratio(traced.plan_cache.hits, lookups);
  const double miss_share = Ratio(traced.plan_cache.misses, lookups);
  const double stmts =
      static_cast<double>(std::max<size_t>(spans.statements, 1));

  const double fp = Ratio(replay.fingerprint_s, replay.fingerprints);
  const double parse = Ratio(replay.parse_bind_s, replay.parse_binds) *
                       miss_share;
  const double lookup = Ratio(replay.lookup_s, replay.lookups) * hit_share;
  const double exec = spans.exec_s / stmts;
  const double sizing = Ratio(replay.sizing_s, replay.sized);
  const double self = spans.server_self_s / stmts;
  struct Row {
    const char* stage;
    double wall_s;
    double model_s;
    const char* note;
  };
  const Row rows[] = {
      {"lex (FingerprintSql)", fp, 0, "model: lexing is part of parse_plan"},
      {"parse+bind (misses)", parse, model_parse / n, "model: parse_plan_s"},
      {"plan lookup (hits)", lookup, 0, "model: free on a hit"},
      {"exec", exec, model_exec, "model: per-row terms"},
      {"response sizing", sizing, 0, "model: in the overhead"},
      {"server self", self, model_overhead, "model: statement_overhead_s"},
  };
  std::printf("\nmodel vs wall, per executed statement (%zu statements, "
              "plan-cache hit share %.3f):\n",
              executed, hit_share);
  std::printf("  %-22s %12s %12s  %s\n", "stage", "wall-us", "model-us",
              "note");
  double wall_sum = 0;
  double model_sum = 0;
  for (const Row& row : rows) {
    std::printf("  %-22s %12.2f %12.2f  %s\n", row.stage, row.wall_s * kUs,
                row.model_s * kUs, row.note);
    wall_sum += row.wall_s;
    model_sum += row.model_s;
  }
  std::printf("  %-22s %12.2f %12.2f  model: ServerSeconds\n", "total",
              wall_sum * kUs, model_sum * kUs);
}

}  // namespace

WindowCounters ReadCounters(DbServer& server) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  WindowCounters counters;
  counters.server_statements = registry.counter("server.statements").value();
  counters.fingerprint_calls = sql::FingerprintCallCount();
  counters.write_conflicts = registry.counter("mvcc.write_conflicts").value();
  counters.gc_runs = registry.counter("mvcc.gc_runs").value();
  counters.versions_pruned = registry.counter("mvcc.versions_pruned").value();
  counters.queue_wait_p50_s =
      registry.log_histogram("queue.wait_seconds").Quantile(0.5);
  counters.plan_cache = server.plan_cache_stats();
  counters.waves = server.admission_queue().wave_log();
  return counters;
}

Status RunTracedWindow(Workload& workload, double seconds,
                       TracedWindow* out) {
  DbServer& server = workload.experiment().server();
  obs::Tracer& tracer = obs::Tracer::Global();
  server.ResetObservability();
  server.mutable_config().statement_log_capacity = 0;
  server.EnableStatementLog(true);
  // Sized far above what a window records, so no span is dropped; a
  // dropped span makes the run invalid.
  tracer.set_capacity(size_t{1} << 24);
  tracer.Clear();
  tracer.Enable(true);
  Status status = workload.Run(seconds, &out->window);
  tracer.Enable(false);
  out->spans = tracer.Snapshot();
  out->dropped_spans = tracer.dropped_spans();
  tracer.Clear();
  server.EnableStatementLog(false);
  out->log = server.statement_log();
  server.ClearStatementLog();
  out->counters = ReadCounters(server);
  return status;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

std::vector<double> WallTimes(const Window& window, Op op) {
  std::vector<double> walls;
  for (const Sample& sample : window.samples) {
    if (sample.op == op) walls.push_back(sample.wall_s);
  }
  return walls;
}

double DriftRatio(const Window& window, Op op) {
  const std::vector<double> walls = WallTimes(window, op);
  const size_t quarter = walls.size() / 4;
  if (quarter < 2) return 0;
  const std::vector<double> first(walls.begin(), walls.begin() + quarter);
  const std::vector<double> last(walls.end() - quarter, walls.end());
  return Ratio(Quantile(last, 0.5), Quantile(first, 0.5)) - 1;
}

namespace {

/// Index of the slice of `window` that `sample` completed in.
size_t SliceOf(const Window& window, const Sample& sample, size_t slices) {
  if (!(window.wall_s > 0)) return 0;
  const double pos =
      sample.done_s / window.wall_s * static_cast<double>(slices);
  return std::min(static_cast<size_t>(std::max(pos, 0.0)), slices - 1);
}

}  // namespace

std::vector<double> SliceQuantiles(const Window& window, Op op, double q,
                                   size_t slices) {
  // walls[slice][variant]: wall times of the `op` samples.
  std::vector<std::map<size_t, std::vector<double>>> walls(slices);
  for (const Sample& sample : window.samples) {
    if (sample.op == op) {
      walls[SliceOf(window, sample, slices)][sample.variant].push_back(
          sample.wall_s);
    }
  }
  std::vector<double> per_slice;
  for (const std::map<size_t, std::vector<double>>& slice : walls) {
    if (slice.empty()) continue;
    double sum = 0;
    for (const auto& [variant, variant_walls] : slice) {
      sum += Quantile(variant_walls, q);
    }
    per_slice.push_back(sum / static_cast<double>(slice.size()));
  }
  return per_slice;
}

std::vector<double> SliceRates(const Window& window, size_t slices) {
  // Completions between the first and the last one of a slice, over the
  // time between them: unlike a count per slice it is not quantised to
  // whole actions.
  std::vector<std::vector<double>> done(slices);
  for (const Sample& sample : window.samples) {
    done[SliceOf(window, sample, slices)].push_back(sample.done_s);
  }
  std::vector<double> rates;
  for (const std::vector<double>& slice : done) {
    if (slice.size() < 2) continue;
    const auto [first, last] = std::minmax_element(slice.begin(), slice.end());
    if (*last > *first) {
      rates.push_back(static_cast<double>(slice.size() - 1) / (*last - *first));
    }
  }
  return rates;
}

Result<std::vector<Metric>> LayerMetrics(Workload& workload,
                                         const Window& untraced,
                                         const WindowCounters& counters,
                                         const TracedWindow& traced,
                                         const SetupTimes& setup) {
  DbServer& server = workload.experiment().server();
  const SpanTotals spans = SumSpans(traced.spans);

  // Client stages: replay one action of each kind the traced window ran,
  // weighted by how often it ran.
  size_t op_count[kNumOps] = {};
  for (const Sample& sample : traced.window.samples) {
    ++op_count[static_cast<size_t>(sample.op)];
  }
  double render_s = 0, inject_s = 0, filter_s = 0;
  double rendered = 0, filtered_rows = 0;
  for (size_t i = 0; i < kNumOps; ++i) {
    if (op_count[i] == 0) continue;
    PDM_ASSIGN_OR_RETURN(ClientStages stages,
                         ReplayMean(workload, static_cast<Op>(i), 0.05));
    const double n = static_cast<double>(op_count[i]);
    render_s += n * stages.render_s;
    inject_s += n * stages.inject_s;
    filter_s += n * stages.filter_s;
    rendered += n * static_cast<double>(stages.statements);
    filtered_rows += n * static_cast<double>(stages.filtered_rows);
  }

  PDM_ASSIGN_OR_RETURN(
      ServerStages replay,
      ReplayServerStages(server, SampleReads(traced.log, /*limit=*/256)));

  // Engine work of the traced window's statements.
  double examined = 0, result_rows = 0, scanned = 0, vec_scanned = 0;
  double cte_rows = 0, sql_bytes = 0;
  for (const DbServer::StatementLogEntry& entry : traced.log) {
    sql_bytes += static_cast<double>(entry.sql.size());
    if (entry.coalesced) continue;
    examined += static_cast<double>(
        entry.rows_scanned + entry.cte_rows_scanned + entry.join_probe_rows +
        entry.vec_join_probe_rows + entry.agg_input_rows +
        entry.vec_agg_input_rows);
    result_rows += static_cast<double>(entry.result_rows);
    scanned += static_cast<double>(entry.rows_scanned);
    vec_scanned += static_cast<double>(entry.vec_rows_scanned);
    cte_rows += static_cast<double>(entry.cte_rows_scanned);
  }
  const double logged = static_cast<double>(traced.log.size());

  // Untraced window: action percentiles, traffic and counters.
  const std::vector<double> mle = WallTimes(untraced, Op::kMle);
  double round_trips = 0, request_packets = 0, response_bytes = 0;
  double shipped = 0, hidden = 0, sim_mle = 0;
  size_t failed = 0;
  for (const Window* window : {&untraced, &traced.window}) {
    for (const Sample& sample : window->samples) failed += sample.ok ? 0 : 1;
  }
  for (const Sample& sample : untraced.samples) {
    shipped += static_cast<double>(sample.wan.statements);
    round_trips += static_cast<double>(sample.wan.round_trips);
    request_packets += static_cast<double>(sample.wan.request_packets);
    response_bytes += sample.wan.response_payload_bytes;
    if (sample.op == Op::kMle) {
      hidden += sample.wan.overlap_hidden_seconds;
      sim_mle += sample.wan.total_seconds();
    }
  }
  const double actions = static_cast<double>(untraced.samples.size());
  const double mles = static_cast<double>(mle.size());
  const double checkouts = static_cast<double>(
      WallTimes(untraced, Op::kCheckout).size());
  double wave_statements = 0, wave_unique = 0;
  for (const AdmissionQueue::WaveLogEntry& wave : counters.waves) {
    wave_statements += static_cast<double>(wave.statements);
    wave_unique += static_cast<double>(wave.unique_statements);
  }
  const double lookups = static_cast<double>(counters.plan_cache.hits +
                                             counters.plan_cache.misses);
  const double traced_hits =
      static_cast<double>(traced.counters.plan_cache.hits);

  const double fingerprint_s = Ratio(replay.fingerprint_s, replay.fingerprints);
  const double lookup_s = Ratio(replay.lookup_s, replay.lookups);
  const double sizing_s = Ratio(replay.sizing_s, replay.sized);
  const double attributed =
      spans.exec_s + spans.parse_s + spans.queue_wait_s + render_s +
      inject_s + filter_s + logged * (fingerprint_s + sizing_s) +
      traced_hits * lookup_s;
  const double unattributed = std::clamp(
      Ratio(spans.action_wall_s - attributed, spans.action_wall_s), 0.0, 1.0);
  const double traced_mle_p50 =
      Quantile(WallTimes(traced.window, Op::kMle), 0.5);
  const double attempted = static_cast<double>(untraced.samples.size() +
                                               traced.window.samples.size());

  std::vector<Metric> metrics = {
      {"mle_p90_ms", Quantile(mle, 0.9) * 1e3, "ms"},
      {"query_p50_ms", Quantile(WallTimes(untraced, Op::kQuery), 0.5) * 1e3,
       "ms"},
      {"sle_p50_ms", Quantile(WallTimes(untraced, Op::kSle), 0.5) * 1e3, "ms"},
      {"checkout_p50_ms",
       Quantile(WallTimes(untraced, Op::kCheckout), 0.5) * 1e3, "ms"},
      {"checkout_p90_ms",
       Quantile(WallTimes(untraced, Op::kCheckout), 0.9) * 1e3, "ms"},
      {"error_rate", Ratio(static_cast<double>(failed), attempted), "ratio"},
      {"sim_mle_s", Ratio(sim_mle, mles), "s"},
      {"client.self_us_per_action",
       Ratio(spans.client_self_s, spans.actions) * kUs, "us"},
      {"client.render_us_per_stmt", Ratio(render_s, rendered) * kUs, "us"},
      {"client.late_filter_ns_per_row", Ratio(filter_s, filtered_rows) * 1e9,
       "ns"},
      {"rules.inject_us_per_stmt", Ratio(inject_s, rendered) * kUs, "us"},
      {"sql.fingerprint_us_per_stmt", fingerprint_s * kUs, "us"},
      {"sql.bytes_per_stmt", Ratio(sql_bytes, logged), "count"},
      {"sql.fingerprint_calls_per_stmt",
       Ratio(static_cast<double>(counters.fingerprint_calls), shipped),
       "count"},
      {"engine.plan_cache_hit_ratio",
       Ratio(static_cast<double>(counters.plan_cache.hits), lookups), "ratio"},
      {"engine.plan_cache_lookups", lookups, "count"},
      {"engine.plan_cache_bypass_ratio",
       Ratio(static_cast<double>(counters.plan_cache.bypasses), lookups),
       "ratio"},
      {"engine.parse_bind_us_per_miss",
       Ratio(replay.parse_bind_s, replay.parse_binds) * kUs, "us"},
      {"engine.lookup_us_per_hit", lookup_s * kUs, "us"},
      {"engine.exec_us_per_stmt", Ratio(spans.exec_s, spans.statements) * kUs,
       "us"},
      {"engine.write_conflicts_per_checkout",
       Ratio(static_cast<double>(counters.write_conflicts), checkouts),
       "count"},
      {"engine.gc_runs", static_cast<double>(counters.gc_runs), "count"},
      {"engine.versions_pruned_per_gc",
       Ratio(static_cast<double>(counters.versions_pruned),
             static_cast<double>(counters.gc_runs)),
       "count"},
      {"exec.rows_examined_per_result_row", Ratio(examined, result_rows),
       "ratio"},
      {"exec.vec_scan_share", Ratio(vec_scanned, scanned), "ratio"},
      {"exec.cte_rows_per_mle",
       Ratio(cte_rows, static_cast<double>(
                           WallTimes(traced.window, Op::kMle).size())),
       "count"},
      {"server.self_us_per_stmt",
       Ratio(spans.server_self_s, spans.statements) * kUs, "us"},
      {"server.sizing_us_per_stmt", sizing_s * kUs, "us"},
      {"server.statements_per_s",
       Ratio(static_cast<double>(counters.server_statements), untraced.wall_s),
       "1/s"},
      {"server.queue_wait_us_p50", counters.queue_wait_p50_s * kUs, "us"},
      {"server.dedup_factor", Ratio(wave_statements, wave_unique), "ratio"},
      {"server.statements_per_wave",
       Ratio(wave_statements, static_cast<double>(counters.waves.size())),
       "count"},
      {"net.round_trips_per_action", Ratio(round_trips, actions), "count"},
      {"net.request_packets_per_action", Ratio(request_packets, actions),
       "count"},
      {"net.response_kb_per_action", Ratio(response_bytes / 1024.0, actions),
       "kB"},
      {"net.overlap_hidden_s_per_mle", Ratio(hidden, mles), "s"},
      {"pdm.generate_s", setup.generate_s, "s"},
      {"pdm.warmup_s", setup.warmup_s, "s"},
      {"obs.trace_overhead_ratio",
       Ratio(traced_mle_p50, Quantile(mle, 0.5)) - 1, "ratio"},
      {"obs.unattributed_share", unattributed, "ratio"},
      {"obs.dropped_spans", static_cast<double>(traced.dropped_spans),
       "count"},
      {"obs.window_drift_ratio", DriftRatio(untraced, Op::kMle), "ratio"},
  };

  std::printf("\nper-layer metrics (%zu spans in the traced window, %zu "
              "statements logged, %zu read statements replayed):\n",
              traced.spans.size(), traced.log.size(), replay.lookups);
  for (const Metric& metric : metrics) {
    std::printf("  %-36s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  PrintModelVsWall(server, traced.log, spans, replay, traced.counters);
  return metrics;
}

}  // namespace pdm::wallbench
