#ifndef PDM_CLIENT_EXPERIMENT_H_
#define PDM_CLIENT_EXPERIMENT_H_

#include <memory>

#include "client/checkout.h"
#include "client/connection.h"
#include "client/strategies.h"
#include "common/result.h"
#include "model/cost_model.h"
#include "net/wan_model.h"
#include "pdm/generator.h"
#include "rules/rule.h"
#include "server/db_server.h"

namespace pdm::client {

/// Full configuration of one simulated deployment.
struct ExperimentConfig {
  pdmsys::GeneratorConfig generator;
  net::WanConfig wan;
  ClientConfig client;
};

/// A fully wired simulated PDM installation: database server with one
/// generated product, the standard rule set (object access rule,
/// relation effectivity/option rule, check-out ∀rows rule), server-side
/// procedures, and one client connection over the simulated WAN.
///
/// The standard rules are calibrated so that the reference user sees
/// exactly the generator's `visible_nodes` ground truth:
///   * object rule (row, all types):  acc = '+'
///   * relation rule (row, link):     effectivity overlaps the user's
///     window AND option sets overlap (BITAND) — the paper's rule
///     example 3 pair
///   * check-out rule (∀rows):        checkedout = FALSE on every node
///     (the paper's rule example 2)
class Experiment {
 public:
  static Result<std::unique_ptr<Experiment>> Create(
      const ExperimentConfig& config);

  DbServer& server() { return server_; }
  Connection& connection() { return *connection_; }
  rules::RuleTable& rule_table() { return rule_table_; }
  const pdmsys::GeneratedProduct& product() const { return product_; }
  const pdmsys::UserContext& user() const { return config_.generator.user; }
  const ExperimentConfig& config() const { return config_; }

  /// Strategy instance for one of the paper's three regimes.
  std::unique_ptr<AccessStrategy> MakeStrategy(model::StrategyKind kind);

  /// Strategy instance driving an arbitrary connection to this
  /// deployment's server (the multi-client driver gives every simulated
  /// client its own connection and WAN link).
  std::unique_ptr<AccessStrategy> MakeStrategyOn(Connection* conn,
                                                 model::StrategyKind kind);

  /// Check-out driver bound to this deployment.
  std::unique_ptr<CheckOutClient> MakeCheckOutClient();

  /// Runs the model-equivalent action with the given strategy regime.
  Result<ActionResult> RunAction(model::StrategyKind strategy,
                                 model::ActionKind action);

 private:
  explicit Experiment(ExperimentConfig config) : config_(config) {}

  Status Init();

  ExperimentConfig config_;
  DbServer server_;
  rules::RuleTable rule_table_;
  pdmsys::GeneratedProduct product_;
  std::unique_ptr<Connection> connection_;
};

/// Installs the standard rule set described above into `table`.
Status InstallStandardRules(rules::RuleTable* table);

/// Configuration of one multi-client replay (DESIGN.md 5e, 5h):
/// `readers` clients, each with its own connection and WAN link, run the
/// read-only action while `writers` clients run check-out/check-in
/// cycles against the same product tree, all through the shared
/// admission queue. Reader statements run against wave snapshots,
/// writer UPDATEs go through the serial writer lane (in client-id order
/// within a wave, so the lower id wins a same-row race) and retry on
/// first-writer-wins conflicts. With no writers it is a read-only
/// replay of one navigational session by N clients. Odd-indexed writers
/// start one submission late: writers that all began their first
/// check-out in the same wave would keep their retrieval/update
/// alternation in lockstep, so whole waves would carry either no DML or
/// all writers' DML; staggered starts (the realistic arrival pattern)
/// put some writer's UPDATE batch in every wave instead.
struct ConcurrentDmlOptions {
  size_t readers = 8;
  size_t writers = 4;
  /// Check-out + check-in pairs each writer performs.
  size_t writer_cycles = 4;
  /// Root of the subtree the writers cycle on; 0 means the product
  /// root. Real check-outs target a subassembly, not the whole
  /// product — pointing the writers at a child keeps the contention
  /// (they all fight over the same rows) without the writers' DML
  /// dominating the CPU the readers are measured on.
  int64_t writer_root_obid = 0;
  model::StrategyKind reader_strategy = model::StrategyKind::kBatchedEarly;
  model::ActionKind reader_action = model::ActionKind::kMultiLevelExpand;
  CheckOutMethod writer_method = CheckOutMethod::kRecursiveBatched;
};

/// Outcome of one concurrent reader/writer replay.
struct ConcurrentDmlResult {
  std::vector<ActionResult> reader_results;  // indexed by reader
  /// Wall-clock seconds each reader's action took — the number the
  /// MVCC claim is about: it must stay flat as writers are added
  /// (simulated WAN seconds are deterministic and cannot show the
  /// reader/writer serialization the paper-era design suffered).
  std::vector<double> reader_wall_seconds;
  /// Flattened writer outcomes, 2 per cycle (check-out then check-in),
  /// grouped by writer. A denied action (rule refused) is a valid
  /// outcome, not an error.
  std::vector<CheckOutResult> writer_results;
  size_t waves = 0;
  size_t statements = 0;        // statements submitted through waves
  size_t unique_statements = 0; // engine executions after dedup
  size_t dml_statements = 0;   // INSERT/UPDATE/DELETE through waves
  size_t conflicts = 0;        // first-writer-wins losses at the server
  size_t conflict_retries = 0; // client-side re-submissions
  /// Statements served per engine execution (1.0 = no cross-client
  /// sharing; approaches the client count as windows widen).
  double DedupFactor() const {
    return unique_statements == 0
               ? 1.0
               : static_cast<double>(statements) /
                     static_cast<double>(unique_statements);
  }
};

/// Runs `options.readers` read-only sessions and `options.writers`
/// check-out/check-in sessions concurrently, one thread per client,
/// all through the shared admission queue. Reader trees are
/// byte-identical to a solo uncoalesced run (same tree, same per-client
/// WAN traffic; only server-side parse/plan work is shared):
/// check-out flips only `checkedout` flags, which the expand queries
/// never read, and every reader statement sees one consistent MVCC
/// snapshot. The wave counters cover exactly this run (the queue's
/// wave log is cleared first).
Result<ConcurrentDmlResult> RunConcurrentDmlAction(
    Experiment& experiment, const ConcurrentDmlOptions& options);

}  // namespace pdm::client

#endif  // PDM_CLIENT_EXPERIMENT_H_
