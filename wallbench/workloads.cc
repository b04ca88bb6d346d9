// The three closed-loop workloads of the wall-clock PDM action benchmark.
// Every workload uses net scenario 0 (150 ms, 256 kbit) and the paper's
// generator calibration (sigma = 0.6); together they cover each paper
// tree once. README.md gives the rationale of each.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>

#include "client/checkout.h"
#include "client/rule_eval.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "harness.h"
#include "obs/trace.h"
#include "pdm/pdm_schema.h"
#include "rules/query_builder.h"
#include "rules/query_modificator.h"

namespace pdm::wallbench {

using client::ActionResult;
using model::StrategyKind;
using rules::RuleAction;

const char* OpName(Op op) {
  switch (op) {
    case Op::kQuery:
      return "query";
    case Op::kSle:
      return "sle";
    case Op::kMle:
      return "mle";
    case Op::kCheckout:
      return "checkout";
  }
  return "?";
}

void MoveToCpu(size_t index) {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  static const std::vector<int> cpus = [] {
    std::vector<int> ids;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) ids.push_back(cpu);
    }
    return ids;
  }();
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[index % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
  sched_setaffinity(0, sizeof(allowed), &allowed);
}

namespace {

// Indexes into model::PaperTreeScenarios().
constexpr size_t kTreeA3B9 = 0;
constexpr size_t kTreeA9B3 = 1;
constexpr size_t kTreeA7B5 = 2;

const char* SpanName(Op op) {
  switch (op) {
    case Op::kQuery:
      return "bench:query";
    case Op::kSle:
      return "bench:sle";
    case Op::kMle:
      return "bench:mle";
    case Op::kCheckout:
      return "bench:checkout";
  }
  return "bench:?";
}

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

/// Moves to CPU number `cpu` (see MoveToCpu), then runs `action` under
/// its bench span and reports its wall time. The span closes after the
/// clock stops, so its bookkeeping is not timed.
template <typename T, typename Action>
Result<T> TimedCall(Op op, size_t cpu, Action&& action, double* wall_s) {
  MoveToCpu(cpu);
  obs::ScopedSpan span(SpanName(op), obs::ModelTerm::kNone);
  const Clock::time_point begin = Clock::now();
  Result<T> result = action();
  *wall_s = SecondsBetween(begin, Clock::now());
  return result;
}

/// Times one action, checks its result with `matches` and appends its
/// sample to `samples`.
template <typename Action, typename Matches>
void RecordAction(Op op, size_t cpu, Clock::time_point window_start,
                  Action&& action, Matches&& matches,
                  std::vector<Sample>* samples) {
  Sample sample;
  sample.op = op;
  Result<ActionResult> result =
      TimedCall<ActionResult>(op, cpu, action, &sample.wall_s);
  sample.done_s = SecondsBetween(window_start, Clock::now());
  sample.ok = result.ok() && matches(*result);
  if (result.ok()) sample.wan = result->wan;
  samples->push_back(std::move(sample));
}

Clock::time_point DeadlineAfter(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

/// Canonical text of a product tree: one "obid parent type name" line
/// per node, sorted by obid (the root carries no name in every form).
std::string CanonicalTree(const pdmsys::ProductTree& tree) {
  std::vector<std::string> lines;
  lines.reserve(tree.num_nodes());
  for (const pdmsys::ProductNode& node : tree.nodes()) {
    const bool root = !node.parent.has_value();
    const int64_t parent = root ? -1 : tree.node(*node.parent).obid;
    lines.push_back(std::to_string(node.obid) + " " + std::to_string(parent) +
                    " " + node.type + " " + (root ? "" : node.name));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

/// Exact equality of the simulated statistics of two runs of one action.
bool SameWan(const net::WanStats& a, const net::WanStats& b) {
  return a.round_trips == b.round_trips && a.statements == b.statements &&
         a.request_packets == b.request_packets &&
         a.response_payload_bytes == b.response_payload_bytes &&
         a.latency_seconds == b.latency_seconds &&
         a.transfer_seconds == b.transfer_seconds &&
         a.overlap_hidden_seconds == b.overlap_hidden_seconds;
}

}  // namespace

// --- Workload (shared parts) ------------------------------------------------

Status Workload::CreateExperiment(size_t tree_index) {
  const model::TreeParams tree = model::PaperTreeScenarios()[tree_index];
  net_ = model::PaperNetworkScenarios()[0];
  client::ExperimentConfig config;
  config.generator.depth = tree.depth;
  config.generator.branching = tree.branching;
  config.generator.sigma = tree.sigma;
  config.generator.seed = 1;
  config.wan.latency_s = net_.latency_s;
  config.wan.dtr_kbit = net_.dtr_kbit;
  config.wan.packet_bytes = static_cast<size_t>(net_.packet_bytes);
  config.client.node_bytes = static_cast<size_t>(net_.node_bytes);
  PDM_ASSIGN_OR_RETURN(experiment_, client::Experiment::Create(config));
  return Status::OK();
}

Status Workload::ComputeMleReferences() {
  const int64_t root = experiment_->product().root_obid;
  ref_mle_wan_.clear();
  for (StrategyKind kind :
       {StrategyKind::kNavigationalEarly, StrategyKind::kBatchedEarly,
        StrategyKind::kPipelinedEarly, StrategyKind::kRecursive}) {
    std::unique_ptr<client::AccessStrategy> strategy =
        experiment_->MakeStrategy(kind);
    PDM_ASSIGN_OR_RETURN(ActionResult result,
                         strategy->MultiLevelExpand(root));
    const std::string tree = CanonicalTree(result.tree);
    if (ref_mle_wan_.empty()) {
      ref_tree_ = tree;
      reference_ = std::move(result.tree);
    } else if (tree != ref_tree_) {
      return Status::Internal(
          StrFormat("%s multi-level expand tree differs from the "
                    "navigational one",
                    std::string(strategy->name()).c_str()));
    }
    if (!Reconciles(result.wan)) {
      return Status::Internal(StrFormat(
          "%s multi-level expand: WAN seconds do not reconcile with "
          "PredictFromTraffic",
          std::string(strategy->name()).c_str()));
    }
    ref_mle_wan_.emplace_back(kind, result.wan);
  }
  if (reference_.num_nodes() != experiment_->product().visible_nodes + 1) {
    return Status::Internal(
        StrFormat("reference tree has %zu nodes, generator says %zu visible",
                  reference_.num_nodes(),
                  experiment_->product().visible_nodes));
  }
  return Status::OK();
}

const net::WanStats& Workload::MleReferenceWan(StrategyKind kind) const {
  for (const auto& [k, wan] : ref_mle_wan_) {
    if (k == kind) return wan;
  }
  return ref_mle_wan_.front().second;
}

bool Workload::Reconciles(const net::WanStats& wan) const {
  model::TrafficCounts counts;
  counts.round_trips = static_cast<double>(wan.round_trips);
  counts.request_packets = static_cast<double>(wan.request_packets);
  counts.response_payload_bytes = wan.response_payload_bytes;
  const model::ResponseTime predicted =
      model::PredictFromTraffic(net_, counts);
  return Near(predicted.latency_part, wan.latency_seconds) &&
         Near(predicted.transfer_part, wan.transfer_seconds);
}

bool Workload::MleMatches(StrategyKind kind,
                          const ActionResult& result) const {
  return CanonicalTree(result.tree) == ref_tree_ &&
         SameWan(result.wan, MleReferenceWan(kind)) && Reconciles(result.wan);
}

bool Workload::FlatMatches(const FlatReference& ref,
                           const ActionResult& result) const {
  return result.visible_nodes == ref.visible_nodes &&
         result.transmitted_rows == ref.transmitted_rows &&
         SameWan(result.wan, ref.wan) && Reconciles(result.wan);
}

Status Workload::Verify() {
  ResultSet flagged;
  ExecStats stats;
  PDM_RETURN_NOT_OK(experiment_->server().database().Execute(
      std::string("SELECT obid FROM ") + pdmsys::kAssyTable +
          " WHERE checkedout = TRUE UNION ALL SELECT obid FROM " +
          pdmsys::kCompTable + " WHERE checkedout = TRUE",
      &flagged, &stats));
  if (flagged.num_rows() != 0) {
    return Status::Internal(
        StrFormat("%zu objects left checked out", flagged.num_rows()));
  }
  return Status::OK();
}

namespace {

/// Times building a statement, injecting rules into it and rendering it
/// with ToSql, the three client stages every strategy runs per statement.
template <typename Build, typename Inject>
Result<std::string> RenderTimed(Build&& build, Inject&& inject,
                                ClientStages* stages) {
  const Clock::time_point t0 = Clock::now();
  auto stmt = build();
  const Clock::time_point t1 = Clock::now();
  Status injected = inject(stmt.get());
  const Clock::time_point t2 = Clock::now();
  std::string sql = stmt->ToSql();
  const Clock::time_point t3 = Clock::now();
  PDM_RETURN_NOT_OK(injected);
  stages->render_s += SecondsBetween(t0, t1) + SecondsBetween(t2, t3);
  stages->inject_s += SecondsBetween(t1, t2);
  ++stages->statements;
  return sql;
}

Status NoRules(sql::Statement*) { return Status::OK(); }

}  // namespace

rules::QueryModificator Workload::Modificator() const {
  // The strategies build one modificator per statement; so do the
  // replays, inside the timed injection.
  return rules::QueryModificator(&experiment_->rule_table(),
                                 experiment_->user());
}

Status Workload::ReplayExpand(int64_t node, RuleAction action,
                              ClientStages* stages) {
  return RenderTimed(
             [&] {
               return rules::BuildExpandQuery(
                   node, experiment_->config().client.hierarchy);
             },
             [&](sql::SelectStmt* stmt) {
               return Modificator()
                   .ApplyToNavigationalQuery(&stmt->query, action)
                   .status();
             },
             stages)
      .status();
}

Status Workload::ReplayRecursive(int64_t root, RuleAction action,
                                 ClientStages* stages) {
  return RenderTimed(
             [&] {
               return rules::BuildRecursiveTreeQuery(
                   root, /*max_depth=*/0,
                   experiment_->config().client.hierarchy);
             },
             [&](sql::SelectStmt* stmt) {
               return Modificator()
                   .ApplyToRecursiveQuery(stmt, action)
                   .status();
             },
             stages)
      .status();
}

Status Workload::ReplayFlat(bool early, ClientStages* stages) {
  PDM_ASSIGN_OR_RETURN(
      const std::string sql,
      RenderTimed([] { return rules::BuildFlatQuery(); },
                  [&](sql::SelectStmt* stmt) {
                    if (!early) return Status::OK();
                    return Modificator()
                        .ApplyToNavigationalQuery(&stmt->query,
                                                  RuleAction::kQuery)
                        .status();
                  },
                  stages));
  if (early) return Status::OK();

  // Late evaluation: the rows crossed the WAN unfiltered; the client
  // prepares its row filter against the result schema and tests every
  // row, exactly as NavigationalStrategy::QueryAll does.
  if (late_rows_.num_columns() == 0) {
    ExecStats stats;
    PDM_RETURN_NOT_OK(
        experiment_->server().database().Execute(sql, &late_rows_, &stats));
  }
  client::ClientRuleEvaluator evaluator(&experiment_->rule_table(),
                                        experiment_->user());
  size_t passed = 0;
  const Clock::time_point f0 = Clock::now();
  PDM_ASSIGN_OR_RETURN(
      std::unique_ptr<client::PreparedRowFilter> filter,
      evaluator.Prepare(late_rows_.schema, RuleAction::kQuery));
  for (const Row& row : late_rows_.rows) {
    PDM_ASSIGN_OR_RETURN(bool pass, filter->Passes(row));
    passed += pass ? 1 : 0;
  }
  stages->filter_s += SecondsBetween(f0, Clock::now());
  stages->filtered_rows += late_rows_.num_rows();
  if (passed == 0) return Status::Internal("late filter passed no row");
  return Status::OK();
}

Status Workload::ReplayCheckOutUpdates(
    const std::map<std::string, std::vector<int64_t>>& objects,
    bool checking_out, ClientStages* stages) {
  for (const auto& [table, obids] : objects) {
    PDM_RETURN_NOT_OK(
        RenderTimed(
            [&] {
              return rules::BuildCheckOutUpdate(table, obids, checking_out);
            },
            NoRules, stages)
            .status());
  }
  return Status::OK();
}

Result<ClientStages> ReplayMean(Workload& workload, Op op,
                                double min_seconds) {
  ClientStages total;
  size_t reps = 0;
  const Clock::time_point start = Clock::now();
  while (reps < 3 || SecondsBetween(start, Clock::now()) < min_seconds) {
    PDM_ASSIGN_OR_RETURN(ClientStages one, workload.ReplayClient(op));
    total.render_s += one.render_s;
    total.inject_s += one.inject_s;
    total.filter_s += one.filter_s;
    total.statements = one.statements;
    total.filtered_rows = one.filtered_rows;
    ++reps;
  }
  total.render_s /= static_cast<double>(reps);
  total.inject_s /= static_cast<double>(reps);
  total.filter_s /= static_cast<double>(reps);
  return total;
}

namespace {

// --- navigate ----------------------------------------------------------------

/// a9b3, one client, Approach-1 early evaluation. An iteration is one
/// multi-level expand from the root (rotating serial, batched and
/// pipelined issue of the same statements), 8 single-level expands on
/// seeded visible assemblies and one query-all.
class NavigateWorkload final : public Workload {
 public:
  explicit NavigateWorkload(uint64_t seed)
      : rng_(Rng::ForStream(seed, /*stream=*/1)) {}

  Status Create() override { return CreateExperiment(kTreeA9B3); }

  Status WarmUp() override {
    PDM_RETURN_NOT_OK(ComputeMleReferences());
    mle_.clear();
    for (StrategyKind kind : kRotation) {
      mle_.push_back(experiment_->MakeStrategy(kind));
    }
    nav_ = experiment_->MakeStrategy(StrategyKind::kNavigationalEarly);
    sle_refs_.clear();
    for (const pdmsys::ProductNode& node : reference_.nodes()) {
      if (node.type != "assy") continue;
      PDM_ASSIGN_OR_RETURN(ActionResult sle,
                           nav_->SingleLevelExpand(node.obid));
      if (sle.visible_nodes != node.children.size() ||
          !Reconciles(sle.wan)) {
        return Status::Internal(
            StrFormat("single-level expand of %lld disagrees with the "
                      "reference tree",
                      static_cast<long long>(node.obid)));
      }
      sle_refs_.push_back(
          {node.obid, sle.visible_nodes, sle.transmitted_rows, sle.wan});
    }
    PDM_ASSIGN_OR_RETURN(ActionResult query, nav_->QueryAll());
    if (!Reconciles(query.wan)) {
      return Status::Internal("query-all WAN seconds do not reconcile");
    }
    query_ref_ = {0, query.visible_nodes, query.transmitted_rows, query.wan};
    return Status::OK();
  }

  Status Run(double seconds, Window* window) override {
    const int64_t root = experiment_->product().root_obid;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = DeadlineAfter(start, seconds);
    std::vector<Sample>* samples = &window->samples;
    while (Clock::now() < deadline) {
      const size_t m = next_mle_++ % mle_.size();
      RecordAction(
          Op::kMle, NextCpu(Op::kMle), start,
          [&] { return mle_[m]->MultiLevelExpand(root); },
          [&](const ActionResult& r) { return MleMatches(kRotation[m], r); },
          samples);
      samples->back().variant = m;
      for (int k = 0; k < kSlesPerIteration; ++k) {
        const FlatReference& ref = sle_refs_[rng_.NextBelow(sle_refs_.size())];
        RecordAction(
            Op::kSle, NextCpu(Op::kSle), start,
            [&] { return nav_->SingleLevelExpand(ref.node); },
            [&](const ActionResult& r) { return FlatMatches(ref, r); },
            samples);
      }
      RecordAction(
          Op::kQuery, NextCpu(Op::kQuery), start,
          [&] { return nav_->QueryAll(); },
          [&](const ActionResult& r) { return FlatMatches(query_ref_, r); },
          samples);
    }
    window->wall_s = SecondsBetween(start, Clock::now());
    return Status::OK();
  }

  Result<ClientStages> ReplayClient(Op op) override {
    ClientStages stages;
    switch (op) {
      case Op::kMle:
        for (const pdmsys::ProductNode& node : reference_.nodes()) {
          PDM_RETURN_NOT_OK(
              ReplayExpand(node.obid, RuleAction::kExpand, &stages));
        }
        break;
      case Op::kSle:
        PDM_RETURN_NOT_OK(ReplayExpand(experiment_->product().root_obid,
                                       RuleAction::kExpand, &stages));
        break;
      case Op::kQuery:
        PDM_RETURN_NOT_OK(ReplayFlat(/*early=*/true, &stages));
        break;
      case Op::kCheckout:
        break;
    }
    return stages;
  }

 private:
  static constexpr int kSlesPerIteration = 8;
  static constexpr StrategyKind kRotation[] = {StrategyKind::kNavigationalEarly,
                                               StrategyKind::kBatchedEarly,
                                               StrategyKind::kPipelinedEarly};

  Rng rng_;
  size_t next_mle_ = 0;
  std::vector<std::unique_ptr<client::AccessStrategy>> mle_;
  std::unique_ptr<client::AccessStrategy> nav_;
  std::vector<FlatReference> sle_refs_;
  FlatReference query_ref_;
};

// --- engine-scan -------------------------------------------------------------

/// a7b5, one client: a recursive multi-level expand (Approach 2, one WITH
/// RECURSIVE statement) alternating with a late-evaluation query-all (a
/// UNION ALL of full scans, filtered at the client).
class EngineScanWorkload final : public Workload {
 public:
  Status Create() override { return CreateExperiment(kTreeA7B5); }

  Status WarmUp() override {
    PDM_RETURN_NOT_OK(ComputeMleReferences());
    recursive_ = experiment_->MakeStrategy(StrategyKind::kRecursive);
    late_ = experiment_->MakeStrategy(StrategyKind::kNavigationalLate);
    PDM_ASSIGN_OR_RETURN(ActionResult late, late_->QueryAll());
    std::unique_ptr<client::AccessStrategy> early =
        experiment_->MakeStrategy(StrategyKind::kNavigationalEarly);
    PDM_ASSIGN_OR_RETURN(ActionResult early_query, early->QueryAll());
    if (late.visible_nodes != early_query.visible_nodes ||
        !Reconciles(late.wan)) {
      return Status::Internal(StrFormat(
          "late query-all keeps %zu objects, early evaluation %zu",
          late.visible_nodes, early_query.visible_nodes));
    }
    query_ref_ = {0, late.visible_nodes, late.transmitted_rows, late.wan};
    return Status::OK();
  }

  Status Run(double seconds, Window* window) override {
    const int64_t root = experiment_->product().root_obid;
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = DeadlineAfter(start, seconds);
    std::vector<Sample>* samples = &window->samples;
    while (Clock::now() < deadline) {
      RecordAction(
          Op::kMle, NextCpu(Op::kMle), start,
          [&] { return recursive_->MultiLevelExpand(root); },
          [&](const ActionResult& r) {
            return MleMatches(StrategyKind::kRecursive, r);
          },
          samples);
      RecordAction(
          Op::kQuery, NextCpu(Op::kQuery), start,
          [&] { return late_->QueryAll(); },
          [&](const ActionResult& r) { return FlatMatches(query_ref_, r); },
          samples);
    }
    window->wall_s = SecondsBetween(start, Clock::now());
    return Status::OK();
  }

  Result<ClientStages> ReplayClient(Op op) override {
    ClientStages stages;
    if (op == Op::kMle) {
      PDM_RETURN_NOT_OK(ReplayRecursive(experiment_->product().root_obid,
                                        RuleAction::kMultiLevelExpand,
                                        &stages));
    } else if (op == Op::kQuery) {
      PDM_RETURN_NOT_OK(ReplayFlat(/*early=*/false, &stages));
    }
    return stages;
  }

 private:
  std::unique_ptr<client::AccessStrategy> recursive_;
  std::unique_ptr<client::AccessStrategy> late_;
  FlatReference query_ref_;
};

// --- contended ---------------------------------------------------------------

/// a3b9, three clients attached to the admission queue, server
/// batch_threads = 2. Two readers run batched-early multi-level expands
/// from the root; one writer runs recursive-batched check-out/check-in
/// cycles on a seeded depth-1 subassembly.
class ContendedWorkload final : public Workload {
 public:
  explicit ContendedWorkload(uint64_t seed) : seed_(seed) {}

  Status Create() override {
    PDM_RETURN_NOT_OK(CreateExperiment(kTreeA3B9));
    experiment_->server().mutable_config().batch_threads = 2;
    return Status::OK();
  }

  Status WarmUp() override {
    PDM_RETURN_NOT_OK(ComputeMleReferences());
    std::vector<int64_t> subassemblies;
    for (size_t child : reference_.node(0).children) {
      if (reference_.node(child).type == "assy") {
        subassemblies.push_back(reference_.node(child).obid);
      }
    }
    if (subassemblies.empty()) {
      return Status::Internal("no visible depth-1 subassembly");
    }
    Rng rng = Rng::ForStream(seed_, /*stream=*/2);
    writer_root_ = subassemblies[rng.NextBelow(subassemblies.size())];

    // The objects a check-out of the subassembly flips, grouped by table
    // as the client batches its UPDATEs.
    std::unique_ptr<client::AccessStrategy> recursive =
        experiment_->MakeStrategy(StrategyKind::kRecursive);
    PDM_ASSIGN_OR_RETURN(ActionResult subtree,
                         recursive->MultiLevelExpand(writer_root_));
    writer_objects_.clear();
    for (const pdmsys::ProductNode& node : subtree.tree.nodes()) {
      writer_objects_[node.type].push_back(node.obid);
    }

    std::unique_ptr<client::CheckOutClient> writer =
        experiment_->MakeCheckOutClient();
    PDM_ASSIGN_OR_RETURN(client::CheckOutResult out,
                         writer->CheckOut(writer_root_, kMethod));
    PDM_ASSIGN_OR_RETURN(client::CheckOutResult in,
                         writer->CheckIn(writer_root_, kMethod));
    if (!out.success || !in.success || out.objects != in.objects ||
        out.objects != subtree.tree.num_nodes() || !Reconciles(out.wan) ||
        !Reconciles(in.wan)) {
      return Status::Internal("reference check-out cycle failed");
    }
    ref_objects_ = out.objects;
    return Status::OK();
  }

  Status Run(double seconds, Window* window) override {
    DbServer& server = experiment_->server();
    constexpr size_t kReaders = 2;
    constexpr size_t kClients = kReaders + 1;
    // Every connection registers before any thread starts, so the wave
    // barrier sees all three clients from the first submission.
    std::vector<std::unique_ptr<client::Connection>> connections;
    for (size_t i = 0; i < kClients; ++i) {
      connections.push_back(std::make_unique<client::Connection>(
          &server, experiment_->config().wan));
      connections.back()->AttachToAdmissionQueue(i);
    }
    std::vector<std::vector<Sample>> per_client(kClients);
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline = DeadlineAfter(start, seconds);
    const int64_t root = experiment_->product().root_obid;
    {
      std::vector<std::thread> threads;
      for (size_t i = 0; i < kReaders; ++i) {
        threads.emplace_back([&, i] {
          std::unique_ptr<client::AccessStrategy> reader =
              experiment_->MakeStrategyOn(connections[i].get(),
                                          StrategyKind::kBatchedEarly);
          // Client i starts on CPU i, so the clients spread over the CPUs.
          size_t turn = i;
          while (Clock::now() < deadline) {
            RecordAction(
                Op::kMle, turn++, start,
                [&] { return reader->MultiLevelExpand(root); },
                [&](const ActionResult& r) {
                  return MleMatches(StrategyKind::kBatchedEarly, r);
                },
                &per_client[i]);
          }
          // A finished client leaves the barrier so the others' waves
          // stop waiting for it.
          connections[i]->DetachFromAdmissionQueue();
        });
      }
      threads.emplace_back([&] {
        client::Connection* conn = connections[kReaders].get();
        client::CheckOutClient writer(conn, &experiment_->rule_table(),
                                      experiment_->user(),
                                      experiment_->config().client);
        size_t turn = kReaders;
        while (Clock::now() < deadline) {
          Sample sample;
          sample.op = Op::kCheckout;
          Result<client::CheckOutResult> in(Status::Internal("not run"));
          Result<client::CheckOutResult> out =
              TimedCall<client::CheckOutResult>(
                  Op::kCheckout, turn++,
                  [&]() -> Result<client::CheckOutResult> {
                    Result<client::CheckOutResult> first =
                        writer.CheckOut(writer_root_, kMethod);
                    if (first.ok() && first->success) {
                      in = writer.CheckIn(writer_root_, kMethod);
                    }
                    return first;
                  },
                  &sample.wall_s);
          sample.done_s = SecondsBetween(start, Clock::now());
          sample.ok = out.ok() && in.ok() && out->success && in->success &&
                      out->objects == ref_objects_ &&
                      in->objects == ref_objects_ && Reconciles(out->wan) &&
                      Reconciles(in->wan);
          if (out.ok()) sample.wan = out->wan;
          if (in.ok()) sample.wan.Add(in->wan);
          per_client[kReaders].push_back(std::move(sample));
        }
        conn->DetachFromAdmissionQueue();
      });
      for (std::thread& thread : threads) thread.join();
    }
    window->wall_s = SecondsBetween(start, Clock::now());
    for (std::vector<Sample>& samples : per_client) {
      for (Sample& sample : samples) {
        window->samples.push_back(std::move(sample));
      }
    }
    std::sort(window->samples.begin(), window->samples.end(),
              [](const Sample& a, const Sample& b) {
                return a.done_s < b.done_s;
              });
    return Status::OK();
  }

  Result<ClientStages> ReplayClient(Op op) override {
    ClientStages stages;
    if (op == Op::kMle) {
      for (const pdmsys::ProductNode& node : reference_.nodes()) {
        PDM_RETURN_NOT_OK(
            ReplayExpand(node.obid, RuleAction::kExpand, &stages));
      }
    } else if (op == Op::kCheckout) {
      for (bool checking_out : {true, false}) {
        PDM_RETURN_NOT_OK(ReplayRecursive(
            writer_root_,
            checking_out ? RuleAction::kCheckOut : RuleAction::kCheckIn,
            &stages));
        PDM_RETURN_NOT_OK(
            ReplayCheckOutUpdates(writer_objects_, checking_out, &stages));
      }
    }
    return stages;
  }

 private:
  static constexpr client::CheckOutMethod kMethod =
      client::CheckOutMethod::kRecursiveBatched;

  uint64_t seed_;
  int64_t writer_root_ = 0;
  size_t ref_objects_ = 0;
  std::map<std::string, std::vector<int64_t>> writer_objects_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(std::string_view name, uint64_t seed) {
  if (name == "navigate") return std::make_unique<NavigateWorkload>(seed);
  if (name == "engine-scan") return std::make_unique<EngineScanWorkload>();
  if (name == "contended") return std::make_unique<ContendedWorkload>(seed);
  return nullptr;
}

}  // namespace pdm::wallbench
