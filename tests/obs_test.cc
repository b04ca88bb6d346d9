// Tests for the observability layer (DESIGN.md 5f): span nesting and
// model-term attribution, exact agreement between traced per-component
// sums and the WAN link's accounting, the metrics registry (counters,
// histograms, the fingerprint-counter shim), Chrome trace export, the
// bounded statement-log ring, the everything-resets contract of
// DbServer::ResetObservability, and an 8-client traced admission-queue
// canary for TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "client/experiment.h"
#include "common/string_util.h"
#include "net/wan_model.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/admission_queue.h"
#include "server/db_server.h"
#include "sql/fingerprint.h"

namespace pdm {
namespace {

using client::Experiment;
using client::ExperimentConfig;
using model::ActionKind;
using model::StrategyKind;

/// Every test starts from a clean process-wide tracer + registry and
/// leaves the tracer disabled, so tests stay order-independent.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::Global().Enable(true);
    obs::Tracer::Global().Clear();
    obs::Tracer::Global().set_capacity(1 << 16);
    obs::MetricsRegistry::Global().ResetAll();
  }
  void TearDown() override {
    obs::Tracer::Global().Enable(false);
    obs::Tracer::Global().Clear();
  }

  static Result<std::unique_ptr<Experiment>> MakeExperiment() {
    ExperimentConfig config;
    config.generator.depth = 2;
    config.generator.branching = 3;
    config.generator.sigma = 1.0;
    return Experiment::Create(config);
  }
};

double SumSim(const std::vector<obs::SpanRecord>& spans, obs::ModelTerm term) {
  double sum = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.term == term) sum += s.sim_dur_s;
  }
  return sum;
}

size_t CountTerm(const std::vector<obs::SpanRecord>& spans,
                 obs::ModelTerm term) {
  size_t n = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.term == term) ++n;
  }
  return n;
}

TEST_F(ObsTest, ActionTraceReconcilesWithWanStatsExactly) {
  Result<std::unique_ptr<Experiment>> experiment = MakeExperiment();
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  Result<client::ActionResult> result =
      (*experiment)
          ->RunAction(StrategyKind::kNavigationalLate,
                      ActionKind::kMultiLevelExpand);
  ASSERT_TRUE(result.ok()) << result.status();

  std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Snapshot();
  ASSERT_FALSE(spans.empty());

  // Exactly one root: the action span, parent 0, carrying the trace id
  // every other span of the run attaches to.
  std::vector<const obs::SpanRecord*> roots;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent_id == 0) roots.push_back(&s);
  }
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0]->name, "action:navigational/mle");
  EXPECT_EQ(roots[0]->term, obs::ModelTerm::kNone);
  for (const obs::SpanRecord& s : spans) {
    EXPECT_EQ(s.trace_id, roots[0]->trace_id) << s.name;
  }

  // The traced t_lat / t_transfer sums ARE the WAN link's accounting:
  // same values added in the same order, so equality is exact.
  const net::WanStats& wan = result->wan;
  EXPECT_DOUBLE_EQ(SumSim(spans, obs::ModelTerm::kLat), wan.latency_seconds);
  EXPECT_DOUBLE_EQ(SumSim(spans, obs::ModelTerm::kTransfer),
                   wan.transfer_seconds);
  // One latency + one transfer span per exchange; one server span per
  // statement that reached DbServer (local rule probes bypass it).
  EXPECT_EQ(CountTerm(spans, obs::ModelTerm::kLat), wan.round_trips);
  EXPECT_EQ(CountTerm(spans, obs::ModelTerm::kTransfer), wan.round_trips);
  EXPECT_EQ(CountTerm(spans, obs::ModelTerm::kServer), wan.statements);

  // Engine-level spans live under the same trace on the wall timeline.
  EXPECT_GT(CountTerm(spans, obs::ModelTerm::kExec), 0u);
  EXPECT_EQ(obs::Tracer::Global().open_spans(), 0u);
}

TEST_F(ObsTest, SimulatedTimelineIsContiguousPerTrace) {
  Result<std::unique_ptr<Experiment>> experiment = MakeExperiment();
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  ASSERT_TRUE((*experiment)
                  ->RunAction(StrategyKind::kRecursive,
                              ActionKind::kMultiLevelExpand)
                  .ok());

  std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Snapshot();
  // The per-trace simulated clock allocates back-to-back intervals, so
  // the furthest simulated end equals the sum of all simulated
  // durations: no gaps, no overlaps.
  double sum = 0;
  double end = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.sim_start_s < 0) continue;
    EXPECT_GT(s.sim_dur_s, 0.0);
    sum += s.sim_dur_s;
    end = std::max(end, s.sim_start_s + s.sim_dur_s);
  }
  ASSERT_GT(sum, 0.0);
  EXPECT_DOUBLE_EQ(end, sum);
}

TEST_F(ObsTest, CounterAndHistogramBasics) {
  obs::Counter counter;
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);

  obs::LogHistogram hist;
  hist.Observe(0.001);
  hist.Observe(0.5);
  EXPECT_EQ(hist.total_count(), 2u);
  EXPECT_NEAR(hist.sum(), 0.501, 1e-12);
  hist.Reset();
  EXPECT_EQ(hist.total_count(), 0u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.0);
}

TEST_F(ObsTest, RegistryFirstRegistrationWinsAndRefsAreStable) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::LogHistogram& first = registry.log_histogram("obs_test.h");
  EXPECT_EQ(&first, &registry.log_histogram("obs_test.h"));

  obs::Counter& c1 = registry.counter("obs_test.c");
  c1.Add(7);
  EXPECT_EQ(&c1, &registry.counter("obs_test.c"));
  std::vector<obs::CounterSnapshot> counters = registry.CounterSnapshots();
  auto it = std::find_if(
      counters.begin(), counters.end(),
      [](const obs::CounterSnapshot& s) { return s.name == "obs_test.c"; });
  ASSERT_NE(it, counters.end());
  EXPECT_EQ(it->value, 7u);
}

TEST_F(ObsTest, FingerprintCallCountShimReadsRegistryCounter) {
  uint64_t before = sql::FingerprintCallCount();
  ASSERT_TRUE(sql::FingerprintSql("SELECT 1").ok());
  EXPECT_EQ(sql::FingerprintCallCount(), before + 1);
  // The shim and the registry counter are the same instrument.
  std::vector<obs::CounterSnapshot> counters =
      obs::MetricsRegistry::Global().CounterSnapshots();
  auto it = std::find_if(counters.begin(), counters.end(),
                         [](const obs::CounterSnapshot& s) {
                           return s.name == "sql.fingerprint_calls";
                         });
  ASSERT_NE(it, counters.end());
  EXPECT_EQ(it->value, sql::FingerprintCallCount());
  obs::MetricsRegistry::Global().ResetAll();
  EXPECT_EQ(sql::FingerprintCallCount(), 0u);
}

TEST_F(ObsTest, TracerRingDropsOldestPastCapacity) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.set_capacity(8);
  for (int i = 0; i < 20; ++i) {
    obs::ScopedSpan span(StrFormat("ring%d", i), obs::ModelTerm::kNone);
  }
  std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 8u);
  EXPECT_EQ(tracer.dropped_spans(), 12u);
  EXPECT_EQ(spans.front().name, "ring12");
  EXPECT_EQ(spans.back().name, "ring19");
}

TEST_F(ObsTest, ChromeTraceJsonCarriesBothTimelines) {
  {
    obs::ScopedSpan root("action:test", obs::ModelTerm::kNone);
    obs::Tracer::Global().RecordSim(root.context(), "wan:latency",
                                    obs::ModelTerm::kLat, 0.25, "stmts=1");
  }
  std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  std::string json = obs::ToChromeTraceJson(spans);
  // Structural checks: the two process tracks, complete events, and the
  // simulated event at the sim clock's origin with 0.25 s duration
  // (Chrome timestamps are microseconds).
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"simulated time"), std::string::npos);
  EXPECT_NE(json.find("\"wall clock"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"wan:latency\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":250000"), std::string::npos);
  // Balanced braces/brackets — a cheap well-formedness screen.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));

  std::string path = ::testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(obs::WriteChromeTraceFile(path, spans).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_EQ(static_cast<size_t>(std::ftell(f)), json.size());
  std::fclose(f);
  std::remove(path.c_str());
}

TEST_F(ObsTest, StatementLogIsABoundedRing) {
  DbServer server;
  server.mutable_config().statement_log_capacity = 4;
  server.EnableStatementLog(true);
  ASSERT_TRUE(
      server.Execute("CREATE TABLE t (id INTEGER)", nullptr).ok());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(server
                    .Execute(StrFormat("SELECT id FROM t WHERE id = %d", i),
                             nullptr)
                    .ok());
  }
  // 10 statements through a capacity-4 ring: the latest 4 survive.
  EXPECT_EQ(server.statement_log_size(), 4u);
  EXPECT_EQ(server.statement_log_dropped(), 6u);
  std::vector<DbServer::StatementLogEntry> log = server.statement_log();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log.front().sql, "SELECT id FROM t WHERE id = 5");
  EXPECT_EQ(log.back().sql, "SELECT id FROM t WHERE id = 8");

  server.ClearStatementLog();
  EXPECT_EQ(server.statement_log_size(), 0u);
  EXPECT_EQ(server.statement_log_dropped(), 0u);

  // Capacity 0 = unbounded: nothing is ever dropped.
  server.mutable_config().statement_log_capacity = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(server.Execute("SELECT id FROM t", nullptr).ok());
  }
  EXPECT_EQ(server.statement_log_size(), 10u);
  EXPECT_EQ(server.statement_log_dropped(), 0u);
}

// The satellite contract: ResetObservability() resets EVERY observable
// surface — statement log (incl. drop counter), wave log, plan-cache
// stats, the tracer, and every instrument in the metrics registry. The
// registry assertions iterate all snapshots, so an instrument added
// later that ResetAll misses fails this test by construction.
TEST_F(ObsTest, ResetObservabilityResetsEverySurface) {
  Result<std::unique_ptr<Experiment>> experiment = MakeExperiment();
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  Experiment& e = **experiment;
  e.server().EnableStatementLog(true);

  // Populate all surfaces: serial + batched traffic, a wave through the
  // admission queue, plan-cache activity, spans, counters, histograms.
  ASSERT_TRUE(e.RunAction(StrategyKind::kNavigationalLate,
                          ActionKind::kMultiLevelExpand)
                  .ok());
  ASSERT_TRUE(e.RunAction(StrategyKind::kBatchedEarly,
                          ActionKind::kMultiLevelExpand)
                  .ok());
  std::vector<std::string> statements = {"SELECT obid FROM assy"};
  e.server().Submit(1, statements);

  ASSERT_GT(e.server().statement_log_size(), 0u);
  ASSERT_FALSE(e.server().admission_queue().wave_log().empty());
  ASSERT_FALSE(obs::Tracer::Global().Snapshot().empty());
  PlanCacheStats cache = e.server().database().plan_cache().stats();
  ASSERT_GT(cache.hits + cache.misses, 0u);

  e.server().ResetObservability();

  EXPECT_EQ(e.server().statement_log_size(), 0u);
  EXPECT_EQ(e.server().statement_log_dropped(), 0u);
  EXPECT_TRUE(e.server().admission_queue().wave_log().empty());
  cache = e.server().database().plan_cache().stats();
  EXPECT_EQ(cache.hits, 0u);
  EXPECT_EQ(cache.misses, 0u);
  EXPECT_TRUE(obs::Tracer::Global().Snapshot().empty());
  EXPECT_EQ(obs::Tracer::Global().open_spans(), 0u);
  EXPECT_EQ(obs::Tracer::Global().dropped_spans(), 0u);
  for (const obs::CounterSnapshot& c :
       obs::MetricsRegistry::Global().CounterSnapshots()) {
    EXPECT_EQ(c.value, 0u) << c.name;
  }
  for (const obs::LabeledCounterSnapshot& c :
       obs::MetricsRegistry::Global().LabeledCounterSnapshots()) {
    EXPECT_EQ(c.value, 0u) << c.name;
  }
  for (const obs::LogHistogramSnapshot& h :
       obs::MetricsRegistry::Global().LogHistogramSnapshots()) {
    EXPECT_EQ(h.total_count, 0u) << h.name;
    EXPECT_DOUBLE_EQ(h.sum, 0.0) << h.name;
  }
  // Gauges track live state (queue depth, active workers), not a
  // measurement window: with the system idle they must read zero too.
  for (const obs::GaugeSnapshot& g :
       obs::MetricsRegistry::Global().GaugeSnapshots()) {
    EXPECT_EQ(g.value, 0) << g.name;
  }
  // The slow-query log is part of the server's measurement window.
  EXPECT_TRUE(e.server().slow_query_log().TopK().empty());
  // WAN stats are per-connection (client-side) state with their own
  // reset; clearing them completes the fresh measurement window.
  e.connection().ResetStats();
  EXPECT_EQ(e.connection().stats().round_trips, 0u);
  EXPECT_DOUBLE_EQ(e.connection().stats().total_seconds(), 0.0);
}

// Regression (this PR's satellite 2): wan_model.cc binds a static
// reference to the "wan.exchange_sim_seconds" histogram once per
// process. MetricsRegistry never evicts instruments and ResetAll zeroes
// them IN PLACE, so a record after a reset must land in the
// registry-visible instrument — not in a dangling pre-reset one, and
// not in a fresh duplicate the snapshots can't see.
TEST_F(ObsTest, WanExchangeHistogramSurvivesResetAll) {
  net::WanLink link{net::WanConfig{}};
  link.RecordRoundTrip(100, 512);  // binds and populates the histogram
  obs::MetricsRegistry::Global().ResetAll();
  link.RecordRoundTrip(100, 512);
  std::vector<obs::LogHistogramSnapshot> hists =
      obs::MetricsRegistry::Global().LogHistogramSnapshots();
  auto it = std::find_if(hists.begin(), hists.end(),
                         [](const obs::LogHistogramSnapshot& h) {
                           return h.name == "wan.exchange_sim_seconds" &&
                                  h.labels ==
                                      obs::LabelSet{{"site", "local"}};
                         });
  ASSERT_NE(it, hists.end());
  // Exactly the one post-reset exchange: the pre-reset count is gone and
  // the post-reset observation was not lost — ResetAll zeroes instruments
  // in place, so the WanLink's cached pointer stays valid.
  EXPECT_EQ(it->total_count, 1u);
}

// The pipelined action's trace must still reconcile with the WAN stats:
// t_lat spans carry only the non-hidden latency, so t_lat + t_transfer
// sums to the link's elapsed total, while t_overlap_hidden overlays
// attribute the saving per level (DESIGN.md 5g).
TEST_F(ObsTest, PipelinedActionTraceReconcilesWithWanStats) {
  Result<std::unique_ptr<Experiment>> experiment = MakeExperiment();
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  Result<client::ActionResult> result =
      (*experiment)
          ->RunAction(StrategyKind::kPipelinedLate,
                      ActionKind::kMultiLevelExpand);
  ASSERT_TRUE(result.ok()) << result.status();
  const net::WanStats& wan = result->wan;
  ASSERT_GT(wan.overlap_hidden_seconds, 0.0);

  std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Snapshot();
  EXPECT_NEAR(SumSim(spans, obs::ModelTerm::kLat) +
                  SumSim(spans, obs::ModelTerm::kTransfer),
              wan.total_seconds(), 1e-9);
  EXPECT_DOUBLE_EQ(SumSim(spans, obs::ModelTerm::kOverlapHidden),
                   wan.overlap_hidden_seconds);
  // One latency/transfer span pair per exchange; one hidden overlay per
  // overlapped exchange — every level but the root's (depth = 2).
  EXPECT_EQ(CountTerm(spans, obs::ModelTerm::kLat), wan.round_trips);
  EXPECT_EQ(CountTerm(spans, obs::ModelTerm::kTransfer), wan.round_trips);
  EXPECT_EQ(CountTerm(spans, obs::ModelTerm::kOverlapHidden),
            wan.round_trips - 1);
  EXPECT_EQ(obs::Tracer::Global().open_spans(), 0u);
}

// TSan acceptance canary: eight concurrent clients through the shared
// admission queue with tracing AND the statement log enabled. Every
// span lands on the submitting client's trace (8 roots), queue waits
// are attributed, and nothing races.
TEST_F(ObsTest, EightClientTracedAdmissionRunIsConsistent) {
  Result<std::unique_ptr<Experiment>> experiment = MakeExperiment();
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  Experiment& e = **experiment;
  e.server().EnableStatementLog(true);
  e.server().mutable_config().batch_threads = 4;

  client::ConcurrentDmlOptions options;
  options.readers = 8;
  options.writers = 0;
  options.reader_strategy = StrategyKind::kBatchedEarly;
  options.reader_action = ActionKind::kMultiLevelExpand;
  Result<client::ConcurrentDmlResult> result =
      client::RunConcurrentDmlAction(e, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->reader_results.size(), 8u);
  for (const client::ActionResult& action : result->reader_results) {
    EXPECT_EQ(action.tree.num_nodes(),
              result->reader_results[0].tree.num_nodes());
  }

  std::vector<obs::SpanRecord> spans = obs::Tracer::Global().Snapshot();
  size_t roots = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.parent_id == 0) ++roots;
  }
  EXPECT_EQ(roots, 8u);
  EXPECT_GT(CountTerm(spans, obs::ModelTerm::kQueueWait), 0u);
  EXPECT_GT(CountTerm(spans, obs::ModelTerm::kServer), 0u);
  EXPECT_EQ(obs::Tracer::Global().open_spans(), 0u);
  // Wave statements were logged under the mutex-guarded ring while the
  // run was in flight; every entry is attributable to one of the eight
  // clients (ids 0..7) and to a wave.
  size_t wave_entries = 0;
  for (const DbServer::StatementLogEntry& entry : e.server().statement_log()) {
    if (entry.wave_id == 0) continue;
    ++wave_entries;
    EXPECT_LT(entry.client_id, 8u);
  }
  EXPECT_GT(wave_entries, 0u);
}

}  // namespace
}  // namespace pdm
