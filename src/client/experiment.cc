#include "client/experiment.h"

#include <chrono>
#include <thread>

#include "pdm/pdm_schema.h"
#include "rules/procedures.h"
#include "server/admission_queue.h"
#include "sql/parser.h"

namespace pdm::client {

namespace {

/// Runs `action` with `strategy`; the expands start at `root`.
Result<ActionResult> RunActionOn(AccessStrategy& strategy,
                                 model::ActionKind action, int64_t root) {
  switch (action) {
    case model::ActionKind::kQuery:
      return strategy.QueryAll();
    case model::ActionKind::kSingleLevelExpand:
      return strategy.SingleLevelExpand(root);
    case model::ActionKind::kMultiLevelExpand:
      return strategy.MultiLevelExpand(root);
  }
  return Status::Internal("unhandled action kind");
}

}  // namespace

Status InstallStandardRules(rules::RuleTable* table) {
  // Object access rule: only objects whose materialized visibility flag
  // is '+' may be seen (see DESIGN.md on the acc column).
  {
    PDM_ASSIGN_OR_RETURN(std::unique_ptr<rules::RowCondition> cond,
                         rules::RowCondition::Parse("*", "acc = '+'"));
    rules::Rule rule;
    rule.user = "*";
    rule.action = rules::RuleAction::kAccess;
    rule.object_type = "*";
    rule.condition = std::move(cond);
    table->AddRule(std::move(rule));
  }
  // Relation access rule (paper rule example 3): the link's effectivity
  // must overlap the user's selected window AND its structure-option set
  // must overlap the user's selected options.
  {
    PDM_ASSIGN_OR_RETURN(
        std::unique_ptr<rules::RowCondition> cond,
        rules::RowCondition::Parse(
            pdmsys::kLinkTable,
            "eff_from <= $user.eff_to AND eff_to >= $user.eff_from "
            "AND BITAND(strc_opt, $user.strc_opt) <> 0"));
    rules::Rule rule;
    rule.user = "*";
    rule.action = rules::RuleAction::kAccess;
    rule.object_type = pdmsys::kLinkTable;
    rule.condition = std::move(cond);
    table->AddRule(std::move(rule));
  }
  // Check-out rule (paper rule example 2): the whole subtree must be
  // checked in.
  {
    PDM_ASSIGN_OR_RETURN(sql::ExprPtr pred,
                         sql::ParseSqlExpression("checkedout = FALSE"));
    rules::Rule rule;
    rule.user = "*";
    rule.action = rules::RuleAction::kCheckOut;
    rule.object_type = "*";
    rule.condition = std::make_unique<rules::ForAllRowsCondition>(
        "", std::move(pred));
    table->AddRule(std::move(rule));
  }
  return Status::OK();
}

Result<std::unique_ptr<Experiment>> Experiment::Create(
    const ExperimentConfig& config) {
  std::unique_ptr<Experiment> experiment(new Experiment(config));
  PDM_RETURN_NOT_OK(experiment->Init());
  return experiment;
}

Status Experiment::Init() {
  // Reject degenerate WAN parameters up front: an invalid link would
  // otherwise silently account nothing (net/wan_model.h).
  PDM_RETURN_NOT_OK(config_.wan.Validate());
  // One site per experiment: the WAN config's site label propagates to
  // the server's and client's dimensioned metrics so per-site quantiles
  // line up across all three tiers (DESIGN.md 5k).
  server_.mutable_config().site = config_.wan.site;
  if (config_.client.site.empty()) config_.client.site = config_.wan.site;
  PDM_ASSIGN_OR_RETURN(product_, pdmsys::GenerateProduct(&server_.database(),
                                                         config_.generator));
  PDM_RETURN_NOT_OK(InstallStandardRules(&rule_table_));
  // The server keeps its own reference to the (shared) rule table for
  // the function-shipping procedures.
  PDM_RETURN_NOT_OK(
      rules::RegisterPdmProcedures(&server_.database(), &rule_table_));
  connection_ = std::make_unique<Connection>(&server_, config_.wan);
  return Status::OK();
}

std::unique_ptr<AccessStrategy> Experiment::MakeStrategy(
    model::StrategyKind kind) {
  return MakeStrategyOn(connection_.get(), kind);
}

std::unique_ptr<AccessStrategy> Experiment::MakeStrategyOn(
    Connection* conn, model::StrategyKind kind) {
  // Every navigational regime is one client: the rule-evaluation
  // variant plus how a multi-level expand issues its levels.
  auto navigational = [&](bool early_evaluation, IssuePolicy issue) {
    return std::make_unique<NavigationalStrategy>(
        conn, &rule_table_, user(), config_.client, early_evaluation, issue);
  };
  switch (kind) {
    case model::StrategyKind::kNavigationalLate:
      return navigational(false, IssuePolicy::kPerNode);
    case model::StrategyKind::kNavigationalEarly:
      return navigational(true, IssuePolicy::kPerNode);
    case model::StrategyKind::kBatchedLate:
      return navigational(false, IssuePolicy::kPerLevel);
    case model::StrategyKind::kBatchedEarly:
      return navigational(true, IssuePolicy::kPerLevel);
    case model::StrategyKind::kPipelinedLate:
      return navigational(false, IssuePolicy::kPerLevelPipelined);
    case model::StrategyKind::kPipelinedEarly:
      return navigational(true, IssuePolicy::kPerLevelPipelined);
    case model::StrategyKind::kRecursive:
      return std::make_unique<RecursiveStrategy>(conn, &rule_table_, user(),
                                                 config_.client);
  }
  return nullptr;
}

std::unique_ptr<CheckOutClient> Experiment::MakeCheckOutClient() {
  return std::make_unique<CheckOutClient>(connection_.get(), &rule_table_,
                                          user(), config_.client);
}

Result<ActionResult> Experiment::RunAction(model::StrategyKind strategy,
                                           model::ActionKind action) {
  return RunActionOn(*MakeStrategy(strategy), action, product_.root_obid);
}

Result<ConcurrentDmlResult> RunConcurrentDmlAction(
    Experiment& experiment, const ConcurrentDmlOptions& options) {
  if (options.readers == 0) {
    return Status::InvalidArgument("concurrent DML run needs >= 1 reader");
  }
  AdmissionQueue& queue = experiment.server().admission_queue();
  queue.ClearWaveLog();

  // One connection (own WAN link) and one thread per client: readers get
  // client ids [0, readers), writers [readers, total). Every connection
  // registers with the queue before any thread starts so the wave
  // barrier sees the full client count from the first submission.
  const size_t total = options.readers + options.writers;
  std::vector<std::unique_ptr<Connection>> connections;
  connections.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    auto conn = std::make_unique<Connection>(&experiment.server(),
                                             experiment.config().wan);
    conn->AttachToAdmissionQueue(i);
    connections.push_back(std::move(conn));
  }

  std::vector<Result<ActionResult>> reader_outcomes(
      options.readers, Result<ActionResult>(Status::Internal("not run")));
  std::vector<double> reader_wall(options.readers, 0.0);
  // Per writer: its cycle outcomes, or the first hard error.
  std::vector<Status> writer_errors(options.writers, Status::OK());
  std::vector<std::vector<CheckOutResult>> writer_outcomes(options.writers);
  {
    std::vector<std::thread> threads;
    threads.reserve(total);
    for (size_t i = 0; i < options.readers; ++i) {
      threads.emplace_back([&, i] {
        std::unique_ptr<AccessStrategy> strategy =
            experiment.MakeStrategyOn(connections[i].get(),
                                      options.reader_strategy);
        const auto start = std::chrono::steady_clock::now();
        reader_outcomes[i] = RunActionOn(*strategy, options.reader_action,
                                         experiment.product().root_obid);
        reader_wall[i] =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        // A finished client leaves the barrier so remaining clients'
        // waves stop waiting for it.
        connections[i]->DetachFromAdmissionQueue();
      });
    }
    for (size_t w = 0; w < options.writers; ++w) {
      threads.emplace_back([&, w] {
        Connection* conn = connections[options.readers + w].get();
        CheckOutClient client(conn, &experiment.rule_table(),
                              experiment.user(),
                              experiment.config().client);
        const int64_t root = options.writer_root_obid != 0
                                 ? options.writer_root_obid
                                 : experiment.product().root_obid;
        if (w % 2 == 1) {
          // One throwaway read shifts this writer's retrieval/update
          // alternation by one wave relative to its even-indexed peers.
          std::vector<Result<ResultSet>> ignored;
          Status staggered = conn->ExecuteBatch(
              {std::string("SELECT obid FROM ") + pdmsys::kAssyTable +
               " WHERE obid = " + std::to_string(root)},
              &ignored);
          if (!staggered.ok()) {
            writer_errors[w] = std::move(staggered);
            conn->DetachFromAdmissionQueue();
            return;
          }
        }
        for (size_t cycle = 0; cycle < options.writer_cycles; ++cycle) {
          Result<CheckOutResult> out =
              client.CheckOut(root, options.writer_method);
          if (!out.ok()) {
            writer_errors[w] = out.status();
            break;
          }
          writer_outcomes[w].push_back(std::move(*out));
          Result<CheckOutResult> in =
              client.CheckIn(root, options.writer_method);
          if (!in.ok()) {
            writer_errors[w] = in.status();
            break;
          }
          writer_outcomes[w].push_back(std::move(*in));
        }
        conn->DetachFromAdmissionQueue();
      });
    }
    for (std::thread& t : threads) t.join();
  }

  ConcurrentDmlResult result;
  result.reader_results.reserve(options.readers);
  for (size_t i = 0; i < options.readers; ++i) {
    PDM_RETURN_NOT_OK(reader_outcomes[i].status());
    result.reader_results.push_back(std::move(*reader_outcomes[i]));
  }
  result.reader_wall_seconds = std::move(reader_wall);
  for (size_t w = 0; w < options.writers; ++w) {
    PDM_RETURN_NOT_OK(writer_errors[w]);
    for (CheckOutResult& out : writer_outcomes[w]) {
      result.conflict_retries += out.conflict_retries;
      result.writer_results.push_back(std::move(out));
    }
  }
  for (const AdmissionQueue::WaveLogEntry& wave : queue.wave_log()) {
    ++result.waves;
    result.statements += wave.statements;
    result.unique_statements += wave.unique_statements;
    result.dml_statements += wave.dml_statements;
    result.conflicts += wave.conflicts;
  }
  return result;
}

}  // namespace pdm::client
