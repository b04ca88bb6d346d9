// Tests for the multi-site replica topology (DESIGN.md 5l): RNG stream
// splitting (the SplitMix64 gamma-overlap hazard), arrival-schedule
// determinism across thread counts and real thread interleavings, the
// replication staleness bound and its closed-form reconciliation,
// read-your-writes at the primary, byte-identical replica state after
// quiesce, the commit log's trim floor, and a TSan canary racing the log applier against replica
// readers and version GC.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/multisite.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "database_test_peer.h"
#include "engine/database.h"
#include "model/cost_model.h"
#include "net/replication.h"
#include "obs/metrics.h"
#include "pdm/generator.h"
#include "pdm/pdm_schema.h"
#include "server/replica.h"

namespace pdm {
namespace {

using client::ArrivalEvent;
using client::GenerateArrivalSchedule;
using client::MultiSiteDeployment;
using client::MultiSiteOptions;
using client::MultiSiteResult;
using client::SiteSpec;

// --- RNG stream splitting ----------------------------------------------

TEST(RngStreamSplit, NaiveGammaOffsetSeedsOverlap) {
  // The hazard ForStream exists to avoid: SplitMix64 advances its state
  // by the golden gamma per draw, so seeding stream k at seed + k*gamma
  // makes stream 1 literally the tail of stream 0.
  constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  Rng a(42);
  Rng b(42 + kGamma);
  (void)a.Next();  // drop one draw: a's sequence is now b's sequence
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngStreamSplit, ForStreamStreamsDoNotOverlapUnderShifts) {
  // ForStream keys the seed through an avalanche mix, so adjacent
  // streams are not shifted copies of each other. Probe a window of
  // relative shifts on a pair of adjacent streams.
  constexpr size_t kDraws = 64;
  std::vector<uint64_t> s0;
  std::vector<uint64_t> s1;
  Rng r0 = Rng::ForStream(42, 0);
  Rng r1 = Rng::ForStream(42, 1);
  for (size_t i = 0; i < kDraws; ++i) {
    s0.push_back(r0.Next());
    s1.push_back(r1.Next());
  }
  for (size_t shift = 0; shift < 16; ++shift) {
    bool identical_forward = true;
    bool identical_backward = true;
    for (size_t i = 0; i + shift < kDraws; ++i) {
      if (s0[i + shift] != s1[i]) identical_forward = false;
      if (s1[i + shift] != s0[i]) identical_backward = false;
    }
    EXPECT_FALSE(identical_forward) << "shift=" << shift;
    EXPECT_FALSE(identical_backward) << "shift=" << shift;
  }
}

TEST(RngStreamSplit, ReproducibleAndKeyedOnLogicalIdOnly) {
  // Same (seed, stream) -> same draws, different stream or seed ->
  // different draws. Nothing else (thread ids, call order) enters.
  Rng a = Rng::ForStream(7, 3);
  Rng b = Rng::ForStream(7, 3);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(Rng::ForStream(7, 4).Next(), Rng::ForStream(7, 3).Next());
  EXPECT_NE(Rng::ForStream(8, 3).Next(), Rng::ForStream(7, 3).Next());
}

// --- Arrival-schedule determinism --------------------------------------

SiteSpec SmallSite(const std::string& name) {
  SiteSpec site;
  site.name = name;
  site.wan.latency_s = 0.1;
  site.wan.dtr_kbit = 256;
  site.lan.latency_s = 0.001;
  site.lan.dtr_kbit = 10 * 1024;
  site.clients = 200;
  site.arrival_rate_hz = 20;
  site.arrivals = 60;
  site.write_fraction = 0.1;
  return site;
}

bool SchedulesIdentical(const std::vector<ArrivalEvent>& a,
                        const std::vector<ArrivalEvent>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].arrival_s != b[i].arrival_s) return false;
    if (a[i].client_id != b[i].client_id) return false;
    if (a[i].is_write != b[i].is_write) return false;
  }
  return true;
}

TEST(ArrivalSchedule, IdenticalAcrossThreadCountAndInterleaving) {
  // The schedule is a pure function of (seed, site index, spec): a
  // batch_threads change must not move a single arrival, and neither
  // may real thread interleaving — 8 threads generating the same
  // schedule concurrently all produce the reference byte for byte.
  const SiteSpec site = SmallSite("emea");
  const std::vector<ArrivalEvent> reference =
      GenerateArrivalSchedule(site, 0, 42);
  ASSERT_EQ(reference.size(), site.arrivals);

  constexpr int kThreads = 8;
  std::vector<std::vector<ArrivalEvent>> produced(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&site, &produced, t] {
      produced[static_cast<size_t>(t)] = GenerateArrivalSchedule(site, 0, 42);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::vector<ArrivalEvent>& schedule : produced) {
    EXPECT_TRUE(SchedulesIdentical(schedule, reference));
  }
}

TEST(ArrivalSchedule, SitesDrawIndependentStreams) {
  const SiteSpec site = SmallSite("x");
  const std::vector<ArrivalEvent> s0 = GenerateArrivalSchedule(site, 0, 42);
  const std::vector<ArrivalEvent> s1 = GenerateArrivalSchedule(site, 1, 42);
  EXPECT_FALSE(SchedulesIdentical(s0, s1));
  // Interarrival draws are exponential with the configured rate; the
  // mean over 60 draws should land in a generous window around 1/rate.
  double sum = 0;
  double prev = 0;
  for (const ArrivalEvent& event : s0) {
    sum += event.arrival_s - prev;
    prev = event.arrival_s;
    EXPECT_LT(event.client_id, site.clients);
  }
  const double mean = sum / static_cast<double>(s0.size());
  EXPECT_GT(mean, 0.5 / site.arrival_rate_hz);
  EXPECT_LT(mean, 2.0 / site.arrival_rate_hz);
}

// --- Replication -------------------------------------------------------

MultiSiteOptions SmallDeployment(size_t sites, size_t batch_threads = 1) {
  MultiSiteOptions options;
  options.generator.depth = 2;
  options.generator.branching = 4;
  options.generator.sigma = 0.6;
  options.seed = 42;
  options.batch_threads = batch_threads;
  for (size_t s = 0; s < sites; ++s) {
    SiteSpec site = SmallSite(StrFormat("site%zu", s));
    site.arrivals = 40;
    options.sites.push_back(site);
  }
  return options;
}

TEST(MultiSite, StalenessBoundedAndClosedFormReconciles) {
  Result<std::unique_ptr<MultiSiteDeployment>> deployment =
      MultiSiteDeployment::Create(SmallDeployment(2));
  ASSERT_TRUE(deployment.ok()) << deployment.status();
  Result<MultiSiteResult> run = (*deployment)->RunOpenLoop();
  ASSERT_TRUE(run.ok()) << run.status();

  for (const client::SiteReport& site : run->sites) {
    ASSERT_GT(site.writes, 0u) << site.name;
    EXPECT_GT(site.shipments, 0u) << site.name;
    // Lower bound: no shipment can beat one WAN round trip. Upper
    // bound: the coalescing pump keeps at most one shipment queued
    // behind the in-flight one, so lag is bounded by a small multiple
    // of the worst single-shipment time — 10 simulated seconds is
    // generous at these link parameters.
    EXPECT_GE(site.mean_lag_s, 2 * 0.1) << site.name;
    EXPECT_LE(site.max_lag_s, 10.0) << site.name;
    // Non-queued shipments must land on the closed form within 1%.
    EXPECT_LE(site.staleness_model_err_pct, 1.0) << site.name;
    EXPECT_EQ(site.applied_commit_ts, run->primary_commit_ts) << site.name;
  }
  EXPECT_TRUE((*deployment)->VerifyReplicaConsistency().ok());
}

TEST(MultiSite, ClosedFormMatchesIdleChannelShipment) {
  // One shipment on an idle channel IS the closed form: assemble the
  // same numbers through ReplicationChannel and through
  // model::ReplicaStalenessSeconds and compare exactly.
  net::WanConfig wan;
  wan.latency_s = 0.2;
  wan.dtr_kbit = 128;
  wan.site = "closed-form";
  net::ReplicationChannel channel(wan);
  const size_t payload = 777;
  const double apply_s = 3.0e-4;
  net::ReplicationShipment shipment =
      channel.Ship(payload, /*n_statements=*/3, /*commit_s=*/5.0, apply_s);
  ASSERT_FALSE(shipment.queued);

  model::NetworkParams net;
  net.latency_s = wan.latency_s;
  net.dtr_kbit = wan.dtr_kbit;
  net.packet_bytes = static_cast<double>(wan.packet_bytes);
  const double predicted = model::ReplicaStalenessSeconds(
      net, static_cast<double>(payload), apply_s);
  EXPECT_NEAR(shipment.lag_seconds(), predicted, 1e-12);
}

TEST(MultiSite, ReadYourWritesAtPrimaryAndLaggedReplica) {
  Result<std::unique_ptr<MultiSiteDeployment>> created =
      MultiSiteDeployment::Create(SmallDeployment(1));
  ASSERT_TRUE(created.ok()) << created.status();
  MultiSiteDeployment& deployment = **created;

  const int64_t target = deployment.primary().product().root_obid + 1;
  const std::string update = StrFormat(
      "UPDATE %s SET checkedout = TRUE WHERE obid = %lld", pdmsys::kAssyTable,
      static_cast<long long>(target));
  const std::string probe =
      StrFormat("SELECT checkedout FROM %s WHERE obid = %lld",
                pdmsys::kAssyTable, static_cast<long long>(target));

  // Write through to the primary over the site's write connection.
  ResultSet out;
  ASSERT_TRUE(deployment.write_connection(0).Execute(update, &out).ok());
  ASSERT_EQ(out.affected_rows, 1u);

  // Read-your-writes at the primary: the next primary read sees it.
  Result<ResultSet> at_primary =
      deployment.primary().server().database().Query(probe);
  ASSERT_TRUE(at_primary.ok()) << at_primary.status();
  ASSERT_EQ(at_primary->num_rows(), 1u);
  EXPECT_TRUE(at_primary->At(0, 0).bool_value());

  // The replica has not pumped: a local read still sees the old value —
  // a consistent snapshot at a lagged timestamp, not a torn state.
  ReplicaServer& replica = deployment.replica(0);
  EXPECT_EQ(replica.StalenessCommits(), 1u);
  Result<ResultSet> stale = replica.database().Query(probe);
  ASSERT_TRUE(stale.ok()) << stale.status();
  EXPECT_FALSE(stale->At(0, 0).bool_value());

  // After the pump the write is visible locally too.
  Result<ReplicaServer::PumpResult> pumped = replica.PumpReplication();
  ASSERT_TRUE(pumped.ok()) << pumped.status();
  EXPECT_EQ(pumped->applied, 1u);
  EXPECT_EQ(replica.StalenessCommits(), 0u);
  Result<ResultSet> fresh = replica.database().Query(probe);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_TRUE(fresh->At(0, 0).bool_value());
}

TEST(MultiSite, ReplicaExpandByteIdenticalToQuiescedPrimary) {
  MultiSiteOptions options = SmallDeployment(3);
  Result<std::unique_ptr<MultiSiteDeployment>> created =
      MultiSiteDeployment::Create(options);
  ASSERT_TRUE(created.ok()) << created.status();
  MultiSiteDeployment& deployment = **created;
  Result<MultiSiteResult> run = deployment.RunOpenLoop();
  ASSERT_TRUE(run.ok()) << run.status();
  // VerifyReplicaConsistency asserts the expand trees AND the full
  // replicated table contents (checkedout flags included) match the
  // quiesced primary byte for byte at every site.
  Status verified = deployment.VerifyReplicaConsistency();
  EXPECT_TRUE(verified.ok()) << verified;
}

// The bounded commit log's trim path (DESIGN.md 5l): evictions advance
// the floor and count on engine.commit_log_trimmed; a replica whose
// applied timestamp reaches the floor still catches up, and one that
// fell below it gets the re-bootstrap error instead of silently skipping
// the trimmed records.
TEST(MultiSite, TrimmedCommitLogRequiresReplicaRebootstrap) {
  Result<std::unique_ptr<MultiSiteDeployment>> created =
      MultiSiteDeployment::Create(SmallDeployment(1));
  ASSERT_TRUE(created.ok()) << created.status();
  MultiSiteDeployment& deployment = **created;
  ReplicaServer& replica = deployment.replica(0);
  Database& primary = deployment.primary().server().database();
  DatabaseTestPeer::SetCommitLogCapacity(&primary, 2);
  obs::Counter& trimmed =
      obs::MetricsRegistry::Global().counter("engine.commit_log_trimmed");
  const uint64_t trimmed_before = trimmed.value();

  const int64_t target = deployment.primary().product().root_obid + 1;
  std::vector<uint64_t> commits;
  auto write = [&](bool checked_out) {
    ResultSet out;
    ASSERT_TRUE(primary
                    .Execute(StrFormat(
                                 "UPDATE %s SET checkedout = %s WHERE "
                                 "obid = %lld",
                                 pdmsys::kAssyTable,
                                 checked_out ? "TRUE" : "FALSE",
                                 static_cast<long long>(target)),
                             &out)
                    .ok());
    commits.push_back(primary.commit_clock());
  };

  write(true);
  ASSERT_TRUE(replica.PumpReplication().ok());
  EXPECT_EQ(replica.applied_commit_ts(), commits[0]);
  EXPECT_EQ(trimmed.value(), trimmed_before);

  // A third record trims the first: the floor moves to it, which is
  // exactly where the replica stands, so nothing it needs is gone.
  write(false);
  write(true);
  EXPECT_EQ(primary.commit_log_size(), 2u);
  EXPECT_EQ(primary.commit_log_floor(), commits[0]);
  EXPECT_EQ(trimmed.value(), trimmed_before + 1);
  Result<ReplicaServer::PumpResult> caught_up = replica.PumpReplication();
  ASSERT_TRUE(caught_up.ok()) << caught_up.status();
  EXPECT_EQ(caught_up->applied, 2u);
  EXPECT_EQ(replica.applied_commit_ts(), commits[2]);

  // Three more records trim through commits[3]; the replica, at
  // commits[2], would skip that record, so the pump refuses.
  write(false);
  write(true);
  write(false);
  EXPECT_EQ(primary.commit_log_floor(), commits[3]);
  EXPECT_EQ(trimmed.value(), trimmed_before + 4);
  Result<ReplicaServer::PumpResult> lagging = replica.PumpReplication();
  ASSERT_FALSE(lagging.ok());
  EXPECT_NE(lagging.status().ToString().find("re-bootstrap required"),
            std::string::npos)
      << lagging.status();
  EXPECT_EQ(replica.applied_commit_ts(), commits[2]);
  EXPECT_EQ(replica.StalenessCommits(), 3u);
}

// TSan canary: the log applier replays primary commits while replica
// readers run snapshot queries and version GC prunes — the DESIGN.md 5l
// claim that the applier may race readers and GC freely. Run under
// -fsanitize=thread to turn latent races into failures; race-free
// execution and a caught-up, consistent replica are the assertions here.
TEST(MultiSite, ApplierRacesReplicaReadersAndGc) {
  Result<std::unique_ptr<MultiSiteDeployment>> created =
      MultiSiteDeployment::Create(SmallDeployment(1));
  ASSERT_TRUE(created.ok()) << created.status();
  MultiSiteDeployment& deployment = **created;
  ReplicaServer& replica = deployment.replica(0);
  Database& primary = deployment.primary().server().database();

  const int64_t target = deployment.primary().product().root_obid + 1;
  constexpr int kWrites = 60;

  std::atomic<bool> writer_done{false};
  std::atomic<bool> stop_readers{false};

  std::thread writer([&] {
    for (int i = 0; i < kWrites; ++i) {
      ResultSet out;
      Status status = primary.Execute(
          StrFormat("UPDATE %s SET checkedout = %s WHERE obid = %lld",
                    pdmsys::kAssyTable, i % 2 == 0 ? "TRUE" : "FALSE",
                    static_cast<long long>(target)),
          &out);
      ASSERT_TRUE(status.ok()) << status;
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::thread applier([&] {
    while (!writer_done.load(std::memory_order_acquire) ||
           replica.StalenessCommits() > 0) {
      Result<ReplicaServer::PumpResult> pumped = replica.PumpReplication();
      ASSERT_TRUE(pumped.ok()) << pumped.status();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      const std::string probe =
          StrFormat("SELECT checkedout FROM %s WHERE obid = %lld",
                    pdmsys::kAssyTable, static_cast<long long>(target));
      while (!stop_readers.load(std::memory_order_acquire)) {
        Result<ResultSet> result = replica.database().Query(probe);
        ASSERT_TRUE(result.ok()) << result.status();
        ASSERT_EQ(result->num_rows(), 1u);
      }
    });
  }
  std::thread gc([&] {
    while (!stop_readers.load(std::memory_order_acquire)) {
      replica.database().GarbageCollectVersions();
      std::this_thread::yield();
    }
  });

  writer.join();
  applier.join();
  stop_readers.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  gc.join();

  EXPECT_EQ(replica.StalenessCommits(), 0u);
  EXPECT_EQ(replica.applied_commit_ts(), primary.commit_clock());
  // Final states agree: last write set checkedout = FALSE.
  Result<ResultSet> final_state = replica.database().Query(
      StrFormat("SELECT checkedout FROM %s WHERE obid = %lld",
                pdmsys::kAssyTable, static_cast<long long>(target)));
  ASSERT_TRUE(final_state.ok()) << final_state.status();
  EXPECT_FALSE(final_state->At(0, 0).bool_value());
}

}  // namespace
}  // namespace pdm
