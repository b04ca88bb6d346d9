#ifndef PDM_WALLBENCH_HARNESS_H_
#define PDM_WALLBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "client/experiment.h"
#include "common/result.h"
#include "model/cost_model.h"
#include "net/wan_model.h"
#include "rules/query_modificator.h"

namespace pdm::wallbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The PDM user actions the workloads time.
enum class Op { kQuery, kSle, kMle, kCheckout };
inline constexpr size_t kNumOps = 4;

/// "query", "sle", "mle", "checkout".
const char* OpName(Op op);

/// One timed action of a window.
struct Sample {
  Op op = Op::kMle;
  double wall_s = 0;  // action wall time
  double done_s = 0;  // completion time, seconds after the window started
  /// Which of the strategies a workload rotates over ran the action.
  size_t variant = 0;
  /// Status OK and output identical to the workload's reference (tree,
  /// row counts and simulated WAN seconds), WAN seconds reconciled with
  /// model::PredictFromTraffic, and no denied check-out.
  bool ok = false;
  net::WanStats wan;  // simulated traffic of the action
};

/// The samples of one closed-loop measurement window, in completion
/// order.
struct Window {
  std::vector<Sample> samples;
  double wall_s = 0;
};

/// Client-side stage times of one action, replayed outside the timed
/// loop through the same public builders the strategies call.
struct ClientStages {
  double render_s = 0;  // statement building + ToSql
  double inject_s = 0;  // QueryModificator rule injection
  double filter_s = 0;  // PreparedRowFilter::Passes (late evaluation)
  size_t statements = 0;
  size_t filtered_rows = 0;
};

/// One benchmark workload: a deployment, its reference outputs and a
/// closed action loop over it. Create() is timed as pdm.generate_s and
/// WarmUp() as pdm.warmup_s; both together are the set-up time.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the deployment (Experiment::Create: schema, generated
  /// product, rules).
  virtual Status Create() = 0;

  /// Computes and cross-checks the reference outputs. Running every
  /// action once also fills the plan cache, the lazy indexes and the
  /// column fragments, so the timed loop starts warm.
  virtual Status WarmUp() = 0;

  /// Runs the closed action loop until `seconds` have passed, checking
  /// every action against its reference. Each action runs under a
  /// "bench:<op>" span, which is inert while the tracer is disabled.
  virtual Status Run(double seconds, Window* window) = 0;

  /// Replays the client-side stages of one action of kind `op`.
  virtual Result<ClientStages> ReplayClient(Op op) = 0;

  /// Post-run invariants: every check-out flag is checked in again.
  Status Verify();

  client::Experiment& experiment() { return *experiment_; }

 protected:
  /// Creates the experiment for model::PaperTreeScenarios()[tree_index]
  /// over net scenario 0 (150 ms, 256 kbit).
  Status CreateExperiment(size_t tree_index);

  /// Runs the multi-level expand from the root under the navigational,
  /// batched, pipelined (all early evaluation) and recursive strategies,
  /// requires identical trees, and keeps the tree and each strategy's
  /// simulated WAN statistics as references.
  Status ComputeMleReferences();

  /// The reference WAN statistics of `kind`'s multi-level expand.
  const net::WanStats& MleReferenceWan(model::StrategyKind kind) const;

  /// True if `wan` reconciles with eqs. (1)-(3) evaluated on its own
  /// traffic counts.
  bool Reconciles(const net::WanStats& wan) const;

  /// Reference of one single-level expand or query-all action.
  struct FlatReference {
    int64_t node = 0;
    size_t visible_nodes = 0;
    size_t transmitted_rows = 0;
    net::WanStats wan;
  };

  /// True if a multi-level expand under `kind` returned the reference
  /// tree and the reference WAN statistics.
  bool MleMatches(model::StrategyKind kind,
                  const client::ActionResult& result) const;

  /// True if a single-level expand or query-all returned the reference
  /// row counts and WAN statistics.
  bool FlatMatches(const FlatReference& ref,
                   const client::ActionResult& result) const;

  /// The CPU number (see MoveToCpu) for the next action of kind `op`.
  /// Each kind counts its own turns, so every kind visits every CPU in
  /// turn whatever number of actions an iteration runs.
  size_t NextCpu(Op op) { return cpu_turns_[static_cast<size_t>(op)]++; }

  /// A rule modificator for this deployment's rules and user.
  rules::QueryModificator Modificator() const;

  /// Replays the rendering of one navigational expand statement.
  Status ReplayExpand(int64_t node, rules::RuleAction action,
                      ClientStages* stages);
  /// Replays the rendering of one recursive tree statement.
  Status ReplayRecursive(int64_t root, rules::RuleAction action,
                         ClientStages* stages);
  /// Replays the rendering of the flat query-all statement; with late
  /// evaluation also runs the client row filter over its result.
  Status ReplayFlat(bool early, ClientStages* stages);
  /// Replays the rendering of a check-out's UPDATE batch, one statement
  /// per object table.
  Status ReplayCheckOutUpdates(
      const std::map<std::string, std::vector<int64_t>>& objects,
      bool checking_out, ClientStages* stages);

  std::unique_ptr<client::Experiment> experiment_;
  model::NetworkParams net_;
  pdmsys::ProductTree reference_;  // the reference MLE tree
  std::string ref_tree_;           // its canonical form
  std::vector<std::pair<model::StrategyKind, net::WanStats>> ref_mle_wan_;
  ResultSet late_rows_;  // unfiltered query-all rows, for ReplayFlat
  size_t cpu_turns_[kNumOps] = {};
};

/// The workload named `name`, or nullptr. `seed` picks the navigate
/// workload's single-level expand targets and the contended writer's
/// subassembly.
std::unique_ptr<Workload> MakeWorkload(std::string_view name, uint64_t seed);

/// Moves the calling thread onto allowed CPU number `index` (modulo their
/// count) and lifts the restriction again at once: the thread stays there
/// until the scheduler moves it, and threads it starts may run anywhere.
/// On a shared machine the CPUs run at different speeds that change over
/// minutes; rotating `index` per action samples every CPU evenly, so a
/// run's figures do not hinge on the CPU its loop happened to land on.
void MoveToCpu(size_t index);

/// Replays `op` until at least `min_seconds` have passed (and at least
/// three times) and returns the mean stages of one action.
Result<ClientStages> ReplayMean(Workload& workload, Op op,
                                double min_seconds);

}  // namespace pdm::wallbench

#endif  // PDM_WALLBENCH_HARNESS_H_
