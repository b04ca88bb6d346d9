// Tests for the quantile-accurate telemetry layer (DESIGN.md 5k): the
// HDR-style LogHistogram's documented error bound against exact
// nearest-rank quantiles, the double-accumulated histogram sum (the
// int64-nanounit overflow regression), labeled metric families and the
// cardinality guard, the slow-query log's ring bound and top-K
// exactness, DbServer's end-to-end slow-query capture, the snapshot
// JSON round trip, and an 8-thread TSan canary on shared labeled
// histograms.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "client/experiment.h"
#include "common/string_util.h"
#include "exec/exec_context.h"
#include "obs/log_histogram.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "server/admission_queue.h"
#include "server/db_server.h"
#include "server/slow_query_log.h"
#include "sql/fingerprint.h"

namespace pdm {
namespace {

using client::Experiment;
using client::ExperimentConfig;
using model::ActionKind;
using model::StrategyKind;

/// Exact nearest-rank quantile of a sorted sample: the value of element
/// ceil(q * n) (1-based) — the definition LogHistogram::Quantile
/// documents, evaluated without bucketing.
double ExactQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

/// Asserts Quantile(q) stays within the documented relative error of
/// the exact nearest-rank answer for every probed quantile.
void CheckQuantiles(const obs::LogHistogram& hist,
                    std::vector<double> values) {
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.10, 0.50, 0.90, 0.99, 0.999, 1.0}) {
    const double exact = ExactQuantile(values, q);
    const double approx = hist.Quantile(q);
    // The bound is relative for values >= 1 ns; allow half a nanosecond
    // of absolute slack for the sub-nanosecond linear region.
    const double tolerance =
        obs::LogHistogram::kMaxRelativeError * exact + 0.5e-9;
    EXPECT_NEAR(approx, exact, tolerance) << "q=" << q;
  }
}

TEST(LogHistogramTest, QuantileAccuracyUniform) {
  std::mt19937 rng(20260808);
  std::uniform_real_distribution<double> dist(1e-6, 1.0);
  obs::LogHistogram hist;
  std::vector<double> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    double v = dist(rng);
    values.push_back(v);
    hist.Observe(v);
  }
  EXPECT_EQ(hist.total_count(), 20000u);
  CheckQuantiles(hist, values);
}

TEST(LogHistogramTest, QuantileAccuracyExponential) {
  // Latency-shaped: exponential with a 10 ms mean spans ~5 decades.
  std::mt19937 rng(7);
  std::exponential_distribution<double> dist(100.0);
  obs::LogHistogram hist;
  std::vector<double> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    double v = dist(rng);
    values.push_back(v);
    hist.Observe(v);
  }
  CheckQuantiles(hist, values);
}

TEST(LogHistogramTest, QuantileAccuracyAdversarialBucketEdges) {
  // Powers of two in nanoseconds sit exactly on octave boundaries — the
  // worst case for a log-linear binning scheme's rounding.
  obs::LogHistogram hist;
  std::vector<double> values;
  for (int k = 0; k <= 40; ++k) {
    const double v = static_cast<double>(uint64_t{1} << k) * 1e-9;
    for (int rep = 0; rep < 25; ++rep) {
      values.push_back(v);
      hist.Observe(v);
    }
  }
  CheckQuantiles(hist, values);
}

TEST(LogHistogramTest, ExtremesClampWithoutLosingCounts) {
  obs::LogHistogram hist;
  hist.Observe(-1.0);    // clamps to 0
  hist.Observe(0.0);
  hist.Observe(1e9);     // ~31 years: clamps into the final bucket
  EXPECT_EQ(hist.total_count(), 3u);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  // min/max clamp to the trackable ceiling (~73 min) like the buckets;
  // the sum keeps the true magnitude.
  EXPECT_GT(hist.max(), 4000.0);
  EXPECT_LT(hist.max(), 5000.0);
  EXPECT_DOUBLE_EQ(hist.sum(), 1e9);
  EXPECT_GT(hist.Quantile(1.0), 0.0);
}

TEST(LogHistogramTest, MergeAddsCountsAndMinMax) {
  obs::LogHistogram a;
  obs::LogHistogram b;
  a.Observe(0.001);
  b.Observe(0.1);
  b.Observe(10.0);
  a.Merge(b);
  EXPECT_EQ(a.total_count(), 3u);
  EXPECT_DOUBLE_EQ(a.min(), 0.001);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);
  EXPECT_NEAR(a.sum(), 10.101, 1e-9);
}

// Regression: histogram sums used to accumulate in int64 nanounits,
// which overflowed past ~9.2e9 units and turned byte totals negative.
// The double-bits CAS accumulator must reproduce large sums exactly
// (single-threaded adds are deterministic), even past the bucket range.
TEST(HistogramTest, LargeValueSumDoesNotOverflow) {
  obs::LogHistogram hist;
  hist.Observe(2e10);
  hist.Observe(2e10);
  hist.Observe(1e15);
  EXPECT_DOUBLE_EQ(hist.sum(), 2e10 + 2e10 + 1e15);
  EXPECT_EQ(hist.total_count(), 3u);
}

TEST(MetricsRegistryTest, LabelCardinalityGuardBoundsFamilies) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  // A family name unique to this test: the registry is process-global
  // and admitted label sets are never evicted.
  const std::string family = "test.cardinality_guard_counters";
  for (int i = 0; i < 200; ++i) {
    reg.counter(family, {{"id", StrFormat("%d", i)}}).Increment();
  }
  size_t admitted = 0;
  uint64_t overflow_value = 0;
  bool saw_overflow = false;
  for (const obs::LabeledCounterSnapshot& c : reg.LabeledCounterSnapshots()) {
    if (c.name != family) continue;
    if (c.labels == obs::LabelSet{{"overflow", "true"}}) {
      saw_overflow = true;
      overflow_value = c.value;
    } else {
      ++admitted;
      EXPECT_EQ(c.value, 1u) << "admitted instrument double-counted";
    }
  }
  EXPECT_EQ(admitted, obs::MetricsRegistry::kMaxLabelSetsPerFamily);
  ASSERT_TRUE(saw_overflow);
  // Every rejected lookup lands on the shared overflow instrument.
  EXPECT_EQ(overflow_value,
            200u - obs::MetricsRegistry::kMaxLabelSetsPerFamily);
  uint64_t dropped = 0;
  for (const obs::CounterSnapshot& c : reg.CounterSnapshots()) {
    if (c.name == "obs.label_sets_dropped") dropped = c.value;
  }
  EXPECT_GE(dropped, 200u - obs::MetricsRegistry::kMaxLabelSetsPerFamily);
}

TEST(MetricsRegistryTest, LogHistogramFamilyGuardSharesOverflow) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const std::string family = "test.cardinality_guard_hist";
  for (int i = 0; i < 100; ++i) {
    reg.log_histogram(family, {{"id", StrFormat("%d", i)}}).Observe(0.001);
  }
  size_t admitted = 0;
  uint64_t overflow_count = 0;
  for (const obs::LogHistogramSnapshot& h : reg.LogHistogramSnapshots()) {
    if (h.name != family) continue;
    if (h.labels == obs::LabelSet{{"overflow", "true"}}) {
      overflow_count = h.total_count;
    } else {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, obs::MetricsRegistry::kMaxLabelSetsPerFamily);
  EXPECT_EQ(overflow_count,
            100u - obs::MetricsRegistry::kMaxLabelSetsPerFamily);
}

TEST(MetricsRegistryTest, LabelOrderIsCanonicalized) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& a =
      reg.counter("test.label_order", {{"x", "1"}, {"y", "2"}});
  obs::Counter& b =
      reg.counter("test.label_order", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(MetricsRegistryTest, GaugeTracksUpAndDown) {
  obs::Gauge& g = obs::MetricsRegistry::Global().gauge("test.gauge");
  g.Reset();
  g.Increment();
  g.Add(4);
  g.Decrement();
  EXPECT_EQ(g.value(), 4);
  g.Sub(10);
  EXPECT_EQ(g.value(), -6);
  g.Set(42);
  EXPECT_EQ(g.value(), 42);
}

SlowQueryRecord MakeRecord(double sim) {
  SlowQueryRecord r;
  r.sql = StrFormat("SELECT %f", sim);
  r.sim_seconds = sim;
  return r;
}

TEST(SlowQueryLogTest, TopKIsExactAndSorted) {
  SlowQueryLog log;
  constexpr size_t kTopK = SlowQueryLog::kTopK;
  constexpr size_t kNoted = kTopK + 8;
  // Costs 1..kNoted ms in a strided order (7 is coprime with kNoted),
  // so the heap churns: small and large costs keep arriving after it
  // is full.
  static_assert(std::gcd(size_t{7}, kNoted) == 1);
  for (size_t i = 0; i < kNoted; ++i) {
    log.Note(MakeRecord(0.001 * static_cast<double>((i * 7) % kNoted + 1)));
  }
  std::vector<SlowQueryRecord> top = log.TopK();
  ASSERT_EQ(top.size(), kTopK);
  for (size_t i = 0; i < kTopK; ++i) {
    EXPECT_DOUBLE_EQ(top[i].sim_seconds,
                     0.001 * static_cast<double>(kNoted - i))
        << i;
  }
  // The fast path rejects anything at or below the kept minimum once
  // the heap is full...
  const double kept_min = top.back().sim_seconds;
  EXPECT_FALSE(log.MightRecord(kept_min - 0.0005));
  EXPECT_FALSE(log.MightRecord(kept_min));
  // ...and admits anything more expensive.
  EXPECT_TRUE(log.MightRecord(kept_min + 0.0001));
  log.Clear();
  EXPECT_TRUE(log.TopK().empty());
  EXPECT_TRUE(log.MightRecord(1e-9));  // heap empty again
}

TEST(SlowQueryClassifyTest, ClassificationFollowsPrecedence) {
  // The dml and expand flags come from the statement's fingerprint.
  auto classify = [](std::string_view sql, const ExecStats& stats) {
    Result<sql::StatementFingerprint> fp = sql::FingerprintSql(sql);
    EXPECT_TRUE(fp.ok()) << sql;
    return fp.ok() ? ClassifyStatementClass(fp->dml, fp->expand, stats)
                   : std::string_view("lex error");
  };
  ExecStats stats;
  // DML wins over everything the scans touched.
  stats.cte_rows_scanned = 5;
  stats.index_scans = 1;
  EXPECT_EQ(classify("UPDATE link SET checkedout = 1", stats), "dml");
  stats = ExecStats{};
  EXPECT_EQ(classify("WITH RECURSIVE r AS (SELECT 1) SELECT * FROM r", stats),
            "expand");
  EXPECT_EQ(classify("SELECT * FROM link WHERE link.left = 'x'", stats),
            "expand");
  // The cue is read from tokens: a literal or a comment that spells it
  // is not an expand, and neither is a column reached through an alias.
  EXPECT_EQ(classify("SELECT name FROM t WHERE name = 'link.left'", stats),
            "scan");
  EXPECT_EQ(classify("/* with recursive */ SELECT 1", stats), "scan");
  EXPECT_EQ(classify("SELECT * FROM link l WHERE l.left = 1", stats), "scan");
  stats.cte_rows_scanned = 5;
  EXPECT_EQ(classify("SELECT 1", stats), "expand");
  stats = ExecStats{};
  stats.agg_input_rows = 10;
  EXPECT_EQ(classify("SELECT count(*) FROM t", stats), "agg");
  stats = ExecStats{};
  stats.join_probe_rows = 10;
  EXPECT_EQ(classify("SELECT ...", stats), "join");
  stats = ExecStats{};
  stats.index_scans = 1;
  EXPECT_EQ(classify("SELECT ...", stats), "point");
  stats = ExecStats{};
  EXPECT_EQ(classify("SELECT * FROM t", stats), "scan");

  EXPECT_EQ(EngineLabel(stats), "row");
  stats.vec_rows_scanned = 1;
  EXPECT_EQ(EngineLabel(stats), "vec");
}

TEST(DbServerTest, CapturesSlowQueriesWithBreakdown) {
  obs::MetricsRegistry::Global().ResetAll();
  ExperimentConfig config;
  config.generator.depth = 2;
  config.generator.branching = 3;
  config.generator.sigma = 1.0;
  Result<std::unique_ptr<Experiment>> experiment =
      Experiment::Create(config);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  Experiment& e = **experiment;
  ASSERT_TRUE(e.RunAction(StrategyKind::kNavigationalLate,
                          ActionKind::kMultiLevelExpand)
                  .ok());

  std::vector<SlowQueryRecord> top = e.server().slow_query_log().TopK();
  ASSERT_FALSE(top.empty());
  const SlowQueryRecord& worst = top.front();
  EXPECT_FALSE(worst.sql.empty());
  EXPECT_FALSE(worst.fingerprint.empty());
  EXPECT_EQ(worst.site, "local");
  EXPECT_TRUE(worst.stmt_class == "expand" || worst.stmt_class == "scan" ||
              worst.stmt_class == "point")
      << worst.stmt_class;
  EXPECT_GT(worst.sim_seconds, 0.0);
  EXPECT_GE(worst.wall_seconds, 0.0);
  // The per-term breakdown made it into the record and its summary.
  EXPECT_NE(worst.plan_summary.find("scan="), std::string::npos);

  std::string json =
      SlowQueryRecordsToJson(e.server().slow_query_log().TopK());
  EXPECT_NE(json.find("\"sim_server_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"stmt_class\""), std::string::npos);

  // The labeled statement histogram saw the same traffic.
  bool saw_stmt_family = false;
  for (const obs::LogHistogramSnapshot& h :
       obs::MetricsRegistry::Global().LogHistogramSnapshots()) {
    if (h.name == "server.statement_sim_seconds" && h.total_count > 0) {
      saw_stmt_family = true;
      obs::LabelSet expected_site{{"site", "local"}};
      bool has_site = false;
      for (const auto& [key, value] : h.labels) {
        if (key == "site") has_site = value == "local";
      }
      EXPECT_TRUE(has_site) << h.name;
    }
  }
  EXPECT_TRUE(saw_stmt_family);

  // ResetObservability starts a fresh window.
  e.server().ResetObservability();
  EXPECT_TRUE(e.server().slow_query_log().TopK().empty());
}

// Regression: the standalone path fed the slow-query log before sizing
// the response, so its records reported response_bytes = 0 while the
// batch path (and the client) saw the real size.
TEST(DbServerTest, SlowQueryRecordsCarryResponseBytesOnEveryPath) {
  const std::string sql = "SELECT a FROM t";
  std::vector<size_t> recorded;
  for (bool batch : {false, true}) {
    DbServer server;
    ASSERT_TRUE(server.database()
                    .ExecuteScript("CREATE TABLE t (a INTEGER);"
                                   "INSERT INTO t VALUES (1), (2), (3)")
                    .ok());
    ResultSet out;
    if (batch) {
      std::vector<std::string> statements = {sql};
      std::vector<DbServer::BatchStatementResult> results =
          server.ExecuteBatch(statements);
      ASSERT_TRUE(results[0].status.ok());
      out = std::move(results[0].result);
    } else {
      ASSERT_TRUE(server.Execute(sql, &out).ok());
    }
    std::vector<SlowQueryRecord> top = server.slow_query_log().TopK();
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].sql, sql);
    EXPECT_EQ(top[0].response_bytes, server.ResponseBytes(out));
    recorded.push_back(top[0].response_bytes);
  }
  EXPECT_GT(recorded[0], 0u);
  EXPECT_EQ(recorded[0], recorded[1]);
}

TEST(SnapshotTest, JsonRoundTripPreservesEveryInstrument) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.ResetAll();
  reg.counter("test.rt_counter").Add(7);
  reg.counter("test.rt_labeled", {{"site", "hq"}}).Add(3);
  reg.gauge("test.rt_gauge").Set(-5);
  reg.log_histogram("test.rt_log").Observe(0.25);
  reg.log_histogram("test.rt_log_labeled", {{"site", "hq"}, {"e", "vec"}})
      .Observe(0.125);

  obs::MetricsSnapshot snapshot =
      obs::CaptureMetricsSnapshot("round-trip-test");
  std::string json = obs::SnapshotToJson(snapshot);
  Result<obs::MetricsSnapshot> parsed = obs::ParseSnapshotJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  EXPECT_EQ(parsed->version, obs::MetricsSnapshot::kVersion);
  EXPECT_EQ(parsed->label, "round-trip-test");
  ASSERT_EQ(parsed->counters.size(), snapshot.counters.size());
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    EXPECT_EQ(parsed->counters[i].name, snapshot.counters[i].name);
    EXPECT_EQ(parsed->counters[i].value, snapshot.counters[i].value);
  }
  ASSERT_EQ(parsed->gauges.size(), snapshot.gauges.size());
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    EXPECT_EQ(parsed->gauges[i].value, snapshot.gauges[i].value);
  }
  ASSERT_EQ(parsed->labeled_counters.size(),
            snapshot.labeled_counters.size());
  ASSERT_EQ(parsed->log_histograms.size(), snapshot.log_histograms.size());
  for (size_t i = 0; i < snapshot.log_histograms.size(); ++i) {
    const obs::LogHistogramSnapshot& a = snapshot.log_histograms[i];
    const obs::LogHistogramSnapshot& b = parsed->log_histograms[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.total_count, b.total_count);
    EXPECT_DOUBLE_EQ(a.p50, b.p50);
    EXPECT_DOUBLE_EQ(a.p999, b.p999);
  }

  // Malformed input and future versions are rejected, not misparsed.
  EXPECT_FALSE(obs::ParseSnapshotJson("{not json").ok());
  EXPECT_FALSE(obs::ParseSnapshotJson("{\"version\": 999}").ok());
}

// TSan canary: 8 writers share four labeled histograms (the realistic
// site x engine shape) while 2 readers take quantile snapshots. Run
// under PDM_THREAD_SANITIZE to verify the relaxed-atomic contract.
TEST(TelemetryConcurrencyTest, LabeledHistogramsConcurrentObserve) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  std::vector<obs::LogHistogram*> hists;
  for (const char* site : {"a", "b"}) {
    for (const char* engine : {"row", "vec"}) {
      hists.push_back(&reg.log_histogram(
          "test.concurrent_stmt", {{"site", site}, {"engine", engine}}));
      hists.back()->Reset();
    }
  }
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 4000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&hists, w] {
      std::mt19937 rng(1000 + w);
      std::exponential_distribution<double> dist(1000.0);
      for (int i = 0; i < kPerWriter; ++i) {
        hists[static_cast<size_t>(i + w) % hists.size()]->Observe(dist(rng));
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&hists, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (obs::LogHistogram* h : hists) {
          double p99 = h->Quantile(0.99);
          EXPECT_GE(p99, 0.0);
          (void)h->sum();
          (void)h->total_count();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  uint64_t total = 0;
  for (obs::LogHistogram* h : hists) total += h->total_count();
  EXPECT_EQ(total, static_cast<uint64_t>(kWriters) * kPerWriter);
}

// Reset-everything regression (audit of DbServer::ResetObservability):
// populate EVERY observability surface the server claims to reset —
// all four registry instrument kinds (plain/labeled counters, gauges,
// log histograms), the statement log, the slow-query ring AND
// top-K, the plan-cache counters, the admission queue's wave log and
// the tracer's finished spans — then assert one ResetObservability call
// leaves each of them empty. A surface that slips through here
// double-counts in the next measurement window.
TEST(DbServerTest, ResetObservabilityResetsEverySurface) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  ExperimentConfig config;
  config.generator.depth = 2;
  config.generator.branching = 3;
  Result<std::unique_ptr<Experiment>> experiment = Experiment::Create(config);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  Experiment& e = **experiment;
  e.server().EnableStatementLog(true);

  // Registry: one instrument of every kind, beyond what the action
  // populates organically.
  reg.counter("reset_test.counter").Add(3);
  reg.counter("reset_test.labeled", {{"site", "hq"}}).Add(5);
  reg.gauge("reset_test.gauge").Set(7);
  reg.log_histogram("reset_test.log", {{"site", "hq"}}).Observe(0.5);

  // Wave traffic (queue wave log), statement log, slow-query log,
  // plan-cache counters and tracer spans.
  obs::Tracer::Global().Enable(true);
  e.connection().AttachToAdmissionQueue(1);
  ASSERT_TRUE(
      e.RunAction(StrategyKind::kBatchedEarly, ActionKind::kMultiLevelExpand)
          .ok());
  ASSERT_TRUE(
      e.RunAction(StrategyKind::kBatchedEarly, ActionKind::kMultiLevelExpand)
          .ok());
  obs::Tracer::Global().Enable(false);
  e.connection().DetachFromAdmissionQueue();

  ASSERT_GT(e.server().statement_log_size(), 0u);
  ASSERT_FALSE(e.server().slow_query_log().TopK().empty());
  ASSERT_FALSE(e.server().admission_queue().wave_log().empty());
  ASSERT_GT(e.server().plan_cache_stats().hits, 0u);
  ASSERT_FALSE(obs::Tracer::Global().Snapshot().empty());

  e.server().ResetObservability();

  EXPECT_EQ(e.server().statement_log_size(), 0u);
  EXPECT_EQ(e.server().statement_log_dropped(), 0u);
  EXPECT_TRUE(e.server().slow_query_log().TopK().empty());
  EXPECT_TRUE(e.server().admission_queue().wave_log().empty());
  EXPECT_EQ(e.server().plan_cache_stats().hits, 0u);
  EXPECT_EQ(e.server().plan_cache_stats().misses, 0u);
  EXPECT_TRUE(obs::Tracer::Global().Snapshot().empty());

  // Every registry instrument — including the labeled families and
  // gauges the original ResetAll audit was about — reads zero. The
  // instruments themselves survive (registry instruments are never
  // evicted); only their values reset.
  obs::MetricsSnapshot snapshot = obs::CaptureMetricsSnapshot("post-reset");
  for (const obs::CounterSnapshot& c : snapshot.counters) {
    EXPECT_EQ(c.value, 0u) << c.name;
  }
  for (const obs::GaugeSnapshot& g : snapshot.gauges) {
    EXPECT_EQ(g.value, 0) << g.name;
  }
  for (const obs::LabeledCounterSnapshot& c : snapshot.labeled_counters) {
    EXPECT_EQ(c.value, 0u) << c.name;
  }
  for (const obs::LogHistogramSnapshot& h : snapshot.log_histograms) {
    EXPECT_EQ(h.total_count, 0u) << h.name;
    EXPECT_DOUBLE_EQ(h.sum, 0.0) << h.name;
  }
  bool saw_marker = false;
  for (const obs::CounterSnapshot& c : snapshot.counters) {
    if (c.name == "reset_test.counter") saw_marker = true;
  }
  EXPECT_TRUE(saw_marker);
}

}  // namespace
}  // namespace pdm
