// Differential tests: independent implementations must agree.
//  * navigational vs recursive traversal on randomized trees, and the
//    navigational issue policies (per node, per level, pipelined)
//    against each other
//  * the three check-out methods' verdicts, UPDATEs and flipped flags,
//    and every MLE strategy under action-scoped row rules
//  * engine evaluation vs a reference C++ oracle on random predicates
//  * optimizer on vs off on a query corpus
//  * column-pruned plans vs every column live

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "client/checkout.h"
#include "client/experiment.h"
#include "pdm/pdm_schema.h"
#include "rules/query_builder.h"
#include "rules/query_modificator.h"
#include "server/db_server.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "database_test_peer.h"
#include "query_with_stats.h"

namespace pdm {
namespace {

using model::ActionKind;
using model::StrategyKind;

// --- Strategy equivalence on randomized (Bernoulli-σ) trees -----------------

class StrategyEquivalenceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StrategyEquivalenceSweep, AllStrategiesRetrieveTheSameTree) {
  Rng rng(GetParam());
  client::ExperimentConfig config;
  config.generator.depth = 2 + static_cast<int>(rng.NextBelow(3));
  config.generator.branching = 2 + static_cast<int>(rng.NextBelow(4));
  config.generator.sigma = 0.3 + rng.NextDouble() * 0.7;
  config.generator.sigma_mode =
      pdmsys::GeneratorConfig::SigmaMode::kBernoulli;
  config.generator.seed = GetParam() * 7919 + 13;

  Result<std::unique_ptr<client::Experiment>> experiment =
      client::Experiment::Create(config);
  ASSERT_TRUE(experiment.ok()) << experiment.status();
  client::Experiment& e = **experiment;

  // Every run's statement log, in arrival order: the issue policies
  // may only change the round-trip schedule, never what is sent.
  e.server().EnableStatementLog(true);
  e.server().mutable_config().statement_log_capacity = 0;
  auto run = [&](StrategyKind kind, std::vector<std::string>* sqls) {
    e.server().ClearStatementLog();
    Result<client::ActionResult> result =
        e.RunAction(kind, ActionKind::kMultiLevelExpand);
    for (const DbServer::StatementLogEntry& entry : e.server().statement_log()) {
      sqls->push_back(entry.sql);
    }
    return result;
  };
  std::vector<std::string> ignored;
  Result<client::ActionResult> rec = run(StrategyKind::kRecursive, &ignored);
  ASSERT_TRUE(rec.ok()) << rec.status();

  // Per rule-evaluation variant: per-node, per-level and pipelined issue.
  const struct {
    StrategyKind navigational, batched, pipelined;
  } kVariants[] = {{StrategyKind::kNavigationalLate, StrategyKind::kBatchedLate,
                    StrategyKind::kPipelinedLate},
                   {StrategyKind::kNavigationalEarly,
                    StrategyKind::kBatchedEarly,
                    StrategyKind::kPipelinedEarly}};
  std::vector<client::ActionResult> navigational;
  for (const auto& variant : kVariants) {
    std::vector<std::string> nav_sql, batched_sql, pipelined_sql;
    Result<client::ActionResult> nav = run(variant.navigational, &nav_sql);
    Result<client::ActionResult> batched = run(variant.batched, &batched_sql);
    Result<client::ActionResult> pipelined =
        run(variant.pipelined, &pipelined_sql);
    ASSERT_TRUE(nav.ok()) << nav.status();
    ASSERT_TRUE(batched.ok()) << batched.status();
    ASSERT_TRUE(pipelined.ok()) << pipelined.status();

    // The same statements in the same order, whatever the schedule.
    EXPECT_EQ(nav_sql.size(), nav->wan.round_trips);
    EXPECT_EQ(batched_sql, nav_sql);
    EXPECT_EQ(pipelined_sql, nav_sql);

    // Byte-identical trees and volume; the batched schedules need at
    // most α+1 round trips (fewer when a Bernoulli realization empties a
    // level early), and pipelining keeps the batched round trips.
    for (const client::ActionResult* other : {&*batched, &*pipelined}) {
      EXPECT_EQ(other->tree.ToString(1 << 20), nav->tree.ToString(1 << 20));
      EXPECT_EQ(other->transmitted_rows, nav->transmitted_rows);
      EXPECT_EQ(other->wan.statements, nav->wan.round_trips);
    }
    EXPECT_LE(batched->wan.round_trips,
              static_cast<size_t>(config.generator.depth) + 1);
    EXPECT_EQ(pipelined->wan.round_trips, batched->wan.round_trips);
    navigational.push_back(std::move(*nav));
  }
  const client::ActionResult* late = &navigational[0];
  const client::ActionResult* early = &navigational[1];

  // Identical node sets and identical parent assignment.
  ASSERT_EQ(late->tree.num_nodes(), rec->tree.num_nodes());
  ASSERT_EQ(early->tree.num_nodes(), rec->tree.num_nodes());
  EXPECT_EQ(rec->visible_nodes, e.product().visible_nodes);
  for (const pdmsys::ProductNode& node : rec->tree.nodes()) {
    std::optional<size_t> in_late = late->tree.FindByObid(node.obid);
    ASSERT_TRUE(in_late.has_value()) << node.obid;
    const pdmsys::ProductNode& other = late->tree.node(*in_late);
    if (node.parent.has_value()) {
      ASSERT_TRUE(other.parent.has_value());
      EXPECT_EQ(rec->tree.node(*node.parent).obid,
                late->tree.node(*other.parent).obid);
    } else {
      EXPECT_FALSE(other.parent.has_value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyEquivalenceSweep,
                         ::testing::Range<uint64_t>(1, 13));

// --- Tree conditions: client fold vs server SQL ------------------------------

/// a3b3, σ 0.6: the product the tree-condition and engine-switch
/// differentials run on.
std::unique_ptr<client::Experiment> MakeA3b3Experiment() {
  client::ExperimentConfig config;
  config.generator.depth = 3;
  config.generator.branching = 3;
  config.generator.sigma = 0.6;
  Result<std::unique_ptr<client::Experiment>> e =
      client::Experiment::Create(config);
  EXPECT_TRUE(e.ok()) << e.status();
  return e.ok() ? std::move(e).value() : nullptr;
}

/// The navigational strategies fold a tree aggregate at the client; the
/// recursive one ships `(SELECT AGG(attr) FROM rtbl ...) <cmp> threshold`
/// to the server, whose rtbl holds the root's row. With the threshold
/// exactly on the aggregate, every strategy must keep the tree, or every
/// one drop it (all-or-nothing) — under each node type filter, including
/// those that match the root assembly.
TEST(TreeAggregateDifferential, NavigationalMatchesRecursiveOnTheBoundary) {
  // The unrestricted tree, root included.
  std::unique_ptr<client::Experiment> plain = MakeA3b3Experiment();
  ASSERT_NE(plain, nullptr);
  Result<client::ActionResult> tree =
      plain->RunAction(StrategyKind::kRecursive, ActionKind::kMultiLevelExpand);
  ASSERT_TRUE(tree.ok()) << tree.status();

  for (const char* filter : {"comp", "assy", "*", ""}) {
    const std::string type_filter = filter;
    const bool all_types = type_filter.empty() || type_filter == "*";
    int64_t obid_sum = 0;
    std::optional<std::string> min_name;
    for (const pdmsys::ProductNode& node : tree->tree.nodes()) {
      if (!all_types && node.type != type_filter) continue;
      obid_sum += node.obid;
      if (!min_name.has_value() || node.name < *min_name) min_name = node.name;
    }
    ASSERT_TRUE(min_name.has_value()) << type_filter;

    const struct {
      AggKind agg;
      const char* attribute;
      sql::BinaryOp cmp;
      Value threshold;
      bool keeps_tree;
    } kCases[] = {
        {AggKind::kSum, "obid", sql::BinaryOp::kLessEq, Value::Int64(obid_sum),
         true},
        {AggKind::kSum, "obid", sql::BinaryOp::kLess, Value::Int64(obid_sum),
         false},
        {AggKind::kSum, "obid", sql::BinaryOp::kEq, Value::Double(obid_sum),
         true},
        {AggKind::kMin, "name", sql::BinaryOp::kGreaterEq,
         Value::String(*min_name), true},
        {AggKind::kMin, "name", sql::BinaryOp::kGreater,
         Value::String(*min_name), false},
    };
    for (const auto& c : kCases) {
      std::unique_ptr<client::Experiment> e = MakeA3b3Experiment();
      ASSERT_NE(e, nullptr);
      rules::Rule rule;
      rule.action = rules::RuleAction::kMultiLevelExpand;
      rule.condition = std::make_unique<rules::TreeAggregateCondition>(
          c.agg, c.attribute, type_filter, c.cmp, c.threshold);
      const std::string what =
          rule.condition->Describe() + " [filter '" + type_filter + "']";
      e->rule_table().AddRule(std::move(rule));
      for (StrategyKind kind :
           {StrategyKind::kRecursive, StrategyKind::kNavigationalLate,
            StrategyKind::kNavigationalEarly, StrategyKind::kBatchedLate,
            StrategyKind::kPipelinedEarly}) {
        Result<client::ActionResult> result =
            e->RunAction(kind, ActionKind::kMultiLevelExpand);
        ASSERT_TRUE(result.ok()) << what << ": " << result.status();
        EXPECT_EQ(result->tree.num_nodes() > 0, c.keeps_tree)
            << what << ", " << model::StrategyKindName(kind);
      }
    }
  }
}

/// The paper's rule example 2 (∀rows "no node already checked out"):
/// with any node of the tree already checked out — the root, an inner
/// assembly or a leaf component — every check-out method must deny.
TEST(CheckOutDifferential, EveryMethodDeniesWhenAnyNodeIsCheckedOut) {
  std::unique_ptr<client::Experiment> plain = MakeA3b3Experiment();
  ASSERT_NE(plain, nullptr);
  const int64_t root = plain->product().root_obid;
  Result<client::ActionResult> tree =
      plain->RunAction(StrategyKind::kRecursive, ActionKind::kMultiLevelExpand);
  ASSERT_TRUE(tree.ok()) << tree.status();
  std::optional<int64_t> inner;
  std::optional<int64_t> leaf;
  for (const pdmsys::ProductNode& node : tree->tree.nodes()) {
    if (node.type == "assy" && node.obid != root && !inner.has_value()) {
      inner = node.obid;
    }
    if (node.type == "comp" && !leaf.has_value()) leaf = node.obid;
  }
  ASSERT_TRUE(inner.has_value());
  ASSERT_TRUE(leaf.has_value());

  const struct {
    const char* what;
    const char* table;
    int64_t obid;
  } kTargets[] = {{"root", "assy", root},
                  {"inner assembly", "assy", *inner},
                  {"leaf", "comp", *leaf}};
  for (const auto& target : kTargets) {
    for (client::CheckOutMethod method :
         {client::CheckOutMethod::kNavigational,
          client::CheckOutMethod::kRecursiveBatched,
          client::CheckOutMethod::kStoredProcedure}) {
      std::unique_ptr<client::Experiment> e = MakeA3b3Experiment();
      ASSERT_NE(e, nullptr);
      ASSERT_TRUE(e->server()
                      .database()
                      .Execute(StrFormat(
                          "UPDATE %s SET checkedout = TRUE WHERE obid = %lld",
                          target.table, static_cast<long long>(target.obid)))
                      .ok());
      Result<client::CheckOutResult> result =
          e->MakeCheckOutClient()->CheckOut(root, method);
      ASSERT_TRUE(result.ok()) << target.what << ": " << result.status();
      EXPECT_FALSE(result->success)
          << client::CheckOutMethodName(method) << " checked out a tree whose "
          << target.what << " was already checked out";
      EXPECT_EQ(result->objects, 0u) << client::CheckOutMethodName(method);
    }
  }
}

/// The objects a check-out flow's UPDATEs name, per table, in the order
/// the server's statement log recorded them.
std::map<std::string, std::vector<int64_t>> UpdatedObjects(
    const std::vector<DbServer::StatementLogEntry>& log) {
  std::map<std::string, std::vector<int64_t>> out;
  for (const DbServer::StatementLogEntry& entry : log) {
    const std::string& sql = entry.sql;
    if (sql.rfind("UPDATE ", 0) != 0) continue;
    const std::string table = sql.substr(7, sql.find(' ', 7) - 7);
    size_t pos = sql.find("IN (");
    EXPECT_NE(pos, std::string::npos) << sql;
    if (pos == std::string::npos) continue;
    pos += 4;
    while (pos < sql.size() && sql[pos] != ')') {
      size_t end = sql.find_first_of(",)", pos);
      out[table].push_back(std::stoll(sql.substr(pos, end - pos)));
      pos = sql[end] == ',' ? end + 2 : end;
    }
  }
  return out;
}

/// Every check-out method's UPDATEs name each object of the visible
/// tree exactly once — the retrieval's root included, which the
/// recursive result already carries.
TEST(CheckOutDifferential, EveryObjectIsUpdatedExactlyOnce) {
  std::unique_ptr<client::Experiment> e = MakeA3b3Experiment();
  ASSERT_NE(e, nullptr);
  const int64_t root = e->product().root_obid;
  Result<client::ActionResult> tree =
      e->RunAction(StrategyKind::kRecursive, ActionKind::kMultiLevelExpand);
  ASSERT_TRUE(tree.ok()) << tree.status();
  std::map<std::string, std::vector<int64_t>> expected;
  for (const pdmsys::ProductNode& node : tree->tree.nodes()) {
    expected[node.type].push_back(node.obid);
  }
  for (auto& [type, obids] : expected) std::sort(obids.begin(), obids.end());

  e->server().EnableStatementLog(true);
  e->server().mutable_config().statement_log_capacity = 0;
  for (client::CheckOutMethod method :
       {client::CheckOutMethod::kNavigational,
        client::CheckOutMethod::kRecursiveBatched}) {
    for (bool checking_out : {true, false}) {
      e->server().ClearStatementLog();
      std::unique_ptr<client::CheckOutClient> client = e->MakeCheckOutClient();
      Result<client::CheckOutResult> result =
          checking_out ? client->CheckOut(root, method)
                       : client->CheckIn(root, method);
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_TRUE(result->success) << client::CheckOutMethodName(method);
      EXPECT_EQ(result->objects, tree->tree.num_nodes());
      std::map<std::string, std::vector<int64_t>> updated =
          UpdatedObjects(e->server().statement_log());
      for (auto& [type, obids] : updated) {
        std::sort(obids.begin(), obids.end());
      }
      EXPECT_EQ(updated, expected)
          << client::CheckOutMethodName(method)
          << (checking_out ? " check-out" : " check-in");
    }
  }
}

/// On the functional hierarchy every check-out method flips the flags
/// of the same objects: those of the functional tree, not the physical
/// one.
TEST(CheckOutDifferential, EveryMethodFlipsTheSameObjectsOnTheFunctionalView) {
  client::ExperimentConfig config;
  config.generator.depth = 3;
  config.generator.branching = 4;
  config.generator.sigma = 0.6;
  config.generator.build_functional_view = true;
  config.client.hierarchy = pdmsys::kFunctionalHierarchy;
  auto checked_out = [](client::Experiment& e) {
    Result<ResultSet> rows = e.server().database().Query(
        "SELECT obid FROM assy WHERE checkedout = TRUE UNION ALL "
        "SELECT obid FROM comp WHERE checkedout = TRUE ORDER BY 1");
    EXPECT_TRUE(rows.ok()) << rows.status();
    std::vector<int64_t> obids;
    if (!rows.ok()) return obids;
    for (const Row& row : rows->rows) obids.push_back(row[0].int64_value());
    return obids;
  };

  Result<std::unique_ptr<client::Experiment>> plain =
      client::Experiment::Create(config);
  ASSERT_TRUE(plain.ok()) << plain.status();
  const int64_t root = (*plain)->product().root_obid;
  Result<client::ActionResult> tree = (*plain)->RunAction(
      StrategyKind::kRecursive, ActionKind::kMultiLevelExpand);
  ASSERT_TRUE(tree.ok()) << tree.status();
  std::vector<int64_t> expected;
  for (const pdmsys::ProductNode& node : tree->tree.nodes()) {
    expected.push_back(node.obid);
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_GT(expected.size(), 1u);

  for (client::CheckOutMethod method :
       {client::CheckOutMethod::kNavigational,
        client::CheckOutMethod::kRecursiveBatched,
        client::CheckOutMethod::kStoredProcedure}) {
    Result<std::unique_ptr<client::Experiment>> e =
        client::Experiment::Create(config);
    ASSERT_TRUE(e.ok()) << e.status();
    std::unique_ptr<client::CheckOutClient> client =
        (*e)->MakeCheckOutClient();
    Result<client::CheckOutResult> out = client->CheckOut(root, method);
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_TRUE(out->success) << client::CheckOutMethodName(method);
    EXPECT_EQ(out->objects, expected.size())
        << client::CheckOutMethodName(method);
    EXPECT_EQ(checked_out(**e), expected)
        << client::CheckOutMethodName(method);
    Result<client::CheckOutResult> in = client->CheckIn(root, method);
    ASSERT_TRUE(in.ok()) << in.status();
    EXPECT_EQ(in->objects, expected.size())
        << client::CheckOutMethodName(method);
    EXPECT_TRUE(checked_out(**e).empty())
        << client::CheckOutMethodName(method);
  }
}

// --- Rule scope: an action's row rules reach every strategy serving it -------

/// (obid -> parent obid) of every node; the root maps to itself. Child
/// order may differ between strategies, parent assignment may not.
std::map<int64_t, int64_t> ParentMap(const pdmsys::ProductTree& tree) {
  std::map<int64_t, int64_t> out;
  for (const pdmsys::ProductNode& node : tree.nodes()) {
    out[node.obid] =
        node.parent.has_value() ? tree.node(*node.parent).obid : node.obid;
  }
  return out;
}

/// Permissive `1 = 1` row rules on every object type and on links widen
/// what the rules show (row rules of one type are OR-ed). Scoped to the
/// multi-level expand they reveal the whole product to every MLE
/// strategy — late or early, per node, per level or pipelined, or
/// recursive; scoped to the single-level expand they reveal nothing
/// extra to any of them.
TEST(RuleScopeDifferential, EveryMleStrategyAppliesTheMleRowRules) {
  for (rules::RuleAction scope :
       {rules::RuleAction::kMultiLevelExpand, rules::RuleAction::kExpand}) {
    std::unique_ptr<client::Experiment> e = MakeA3b3Experiment();
    ASSERT_NE(e, nullptr);
    for (const char* type : {"*", pdmsys::kLinkTable}) {
      Result<std::unique_ptr<rules::RowCondition>> cond =
          rules::RowCondition::Parse(type, "1 = 1");
      ASSERT_TRUE(cond.ok()) << cond.status();
      rules::Rule rule;
      rule.action = scope;
      rule.object_type = type;
      rule.condition = std::move(*cond);
      e->rule_table().AddRule(std::move(rule));
    }
    const std::string what(rules::RuleActionName(scope));
    const size_t expected_nodes =
        1 + (scope == rules::RuleAction::kMultiLevelExpand
                 ? e->product().total_nodes
                 : e->product().visible_nodes);
    ASSERT_GT(e->product().total_nodes, e->product().visible_nodes);

    Result<client::ActionResult> rec =
        e->RunAction(StrategyKind::kRecursive, ActionKind::kMultiLevelExpand);
    ASSERT_TRUE(rec.ok()) << rec.status();
    EXPECT_EQ(rec->tree.num_nodes(), expected_nodes) << what;
    for (StrategyKind kind :
         {StrategyKind::kNavigationalLate, StrategyKind::kBatchedLate,
          StrategyKind::kPipelinedLate, StrategyKind::kNavigationalEarly,
          StrategyKind::kBatchedEarly, StrategyKind::kPipelinedEarly}) {
      Result<client::ActionResult> nav =
          e->RunAction(kind, ActionKind::kMultiLevelExpand);
      ASSERT_TRUE(nav.ok()) << nav.status();
      EXPECT_EQ(ParentMap(nav->tree), ParentMap(rec->tree))
          << what << ", " << model::StrategyKindName(kind);
    }
  }
}

// --- Random predicate evaluation vs a C++ oracle ------------------------------

struct OracleRow {
  int64_t a;
  int64_t b;
  bool a_null;
  bool b_null;
};

/// Tri-state boolean mirroring SQL three-valued logic.
enum class Tri { kFalse, kTrue, kNull };

Tri TriAnd(Tri x, Tri y) {
  if (x == Tri::kFalse || y == Tri::kFalse) return Tri::kFalse;
  if (x == Tri::kTrue && y == Tri::kTrue) return Tri::kTrue;
  return Tri::kNull;
}
Tri TriOr(Tri x, Tri y) {
  if (x == Tri::kTrue || y == Tri::kTrue) return Tri::kTrue;
  if (x == Tri::kFalse && y == Tri::kFalse) return Tri::kFalse;
  return Tri::kNull;
}
Tri TriNot(Tri x) {
  if (x == Tri::kNull) return Tri::kNull;
  return x == Tri::kTrue ? Tri::kFalse : Tri::kTrue;
}

/// A random predicate over columns a, b with its oracle evaluation.
struct RandomPredicate {
  std::string sql;
  std::function<Tri(const OracleRow&)> oracle;
};

/// Leaves 0, 1, 3 are column kernels on the batch engine (`column <op>
/// literal`, `column IS NULL`); the others run through the row evaluator
/// there, so a generated predicate takes either filter path.
RandomPredicate MakeLeaf(Rng* rng) {
  int64_t k = rng->NextInRange(-2, 2);
  switch (rng->NextBelow(8)) {
    case 0:
      return {"a = " + std::to_string(k), [k](const OracleRow& r) {
                if (r.a_null) return Tri::kNull;
                return r.a == k ? Tri::kTrue : Tri::kFalse;
              }};
    case 1:
      return {"b > " + std::to_string(k), [k](const OracleRow& r) {
                if (r.b_null) return Tri::kNull;
                return r.b > k ? Tri::kTrue : Tri::kFalse;
              }};
    case 2:
      return {"a <= b", [](const OracleRow& r) {
                if (r.a_null || r.b_null) return Tri::kNull;
                return r.a <= r.b ? Tri::kTrue : Tri::kFalse;
              }};
    case 3:
      return {"a IS NULL", [](const OracleRow& r) {
                return r.a_null ? Tri::kTrue : Tri::kFalse;
              }};
    case 4:
      return {"a BETWEEN -1 AND 1", [](const OracleRow& r) {
                if (r.a_null) return Tri::kNull;
                return (r.a >= -1 && r.a <= 1) ? Tri::kTrue : Tri::kFalse;
              }};
    case 5:
      return {"a + b > " + std::to_string(k), [k](const OracleRow& r) {
                if (r.a_null || r.b_null) return Tri::kNull;
                return r.a + r.b > k ? Tri::kTrue : Tri::kFalse;
              }};
    case 6:
      return {"NOT (a = b)", [](const OracleRow& r) {
                if (r.a_null || r.b_null) return Tri::kNull;
                return r.a != r.b ? Tri::kTrue : Tri::kFalse;
              }};
    default:
      return {"b IN (0, 2, " + std::to_string(k) + ")",
              [k](const OracleRow& r) {
                if (r.b_null) return Tri::kNull;
                return (r.b == 0 || r.b == 2 || r.b == k) ? Tri::kTrue
                                                          : Tri::kFalse;
              }};
  }
}

RandomPredicate MakePredicate(Rng* rng, int depth) {
  if (depth == 0 || rng->NextBool(0.35)) return MakeLeaf(rng);
  switch (rng->NextBelow(3)) {
    case 0: {
      RandomPredicate l = MakePredicate(rng, depth - 1);
      RandomPredicate r = MakePredicate(rng, depth - 1);
      return {"(" + l.sql + ") AND (" + r.sql + ")",
              [lo = l.oracle, ro = r.oracle](const OracleRow& row) {
                return TriAnd(lo(row), ro(row));
              }};
    }
    case 1: {
      RandomPredicate l = MakePredicate(rng, depth - 1);
      RandomPredicate r = MakePredicate(rng, depth - 1);
      return {"(" + l.sql + ") OR (" + r.sql + ")",
              [lo = l.oracle, ro = r.oracle](const OracleRow& row) {
                return TriOr(lo(row), ro(row));
              }};
    }
    default: {
      RandomPredicate inner = MakePredicate(rng, depth - 1);
      return {"NOT (" + inner.sql + ")",
              [io = inner.oracle](const OracleRow& row) {
                return TriNot(io(row));
              }};
    }
  }
}

class PredicateOracleSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PredicateOracleSweep, EngineMatchesOracle) {
  Rng rng(GetParam() * 104729 + 7);
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INTEGER, a INTEGER, b INTEGER)")
                  .ok());
  std::vector<OracleRow> rows;
  for (int i = 0; i < 40; ++i) {
    OracleRow row;
    row.a_null = rng.NextBool(0.2);
    row.b_null = rng.NextBool(0.2);
    row.a = rng.NextInRange(-3, 3);
    row.b = rng.NextInRange(-3, 3);
    rows.push_back(row);
    ASSERT_TRUE(
        db.Execute(StrFormat(
                       "INSERT INTO t VALUES (%d, %s, %s)", i,
                       row.a_null ? "NULL" : std::to_string(row.a).c_str(),
                       row.b_null ? "NULL" : std::to_string(row.b).c_str()))
            .ok());
  }

  for (int trial = 0; trial < 25; ++trial) {
    RandomPredicate pred = MakePredicate(&rng, 3);
    Result<ResultSet> result =
        db.Query("SELECT id FROM t WHERE " + pred.sql + " ORDER BY 1");
    ASSERT_TRUE(result.ok()) << pred.sql << " -> " << result.status();
    std::vector<int64_t> expected;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (pred.oracle(rows[i]) == Tri::kTrue) {
        expected.push_back(static_cast<int64_t>(i));
      }
    }
    ASSERT_EQ(result->num_rows(), expected.size()) << pred.sql;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result->At(i, 0).int64_value(), expected[i]) << pred.sql;
    }

    // Row-vs-vectorized differential on the same predicate, without the
    // ORDER BY so the plan keeps the Project->Filter->Scan shape the
    // batch executor handles (both engines scan in slot order, so the
    // unsorted output is deterministic too).
    const std::string bare = "SELECT id FROM t WHERE " + pred.sql;
    Result<ResultSet> vec = db.Query(bare);
    ASSERT_TRUE(vec.ok()) << pred.sql << " -> " << vec.status();
    db.options().exec.vectorized_execution = false;
    Result<ResultSet> row_engine = db.Query(bare);
    db.options().exec.vectorized_execution = true;
    ASSERT_TRUE(row_engine.ok()) << pred.sql << " -> " << row_engine.status();
    EXPECT_EQ(vec->ToString(10000), row_engine->ToString(10000)) << pred.sql;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateOracleSweep,
                         ::testing::Range<uint64_t>(1, 9));

// --- Optimizer / engine on-off corpora ---------------------------------------

/// Queries over the generated PDM product shared by the switch-off
/// differentials below.
constexpr const char* kCorpus[] = {
    "SELECT COUNT(*) FROM link WHERE left = 1 AND eff_from <= 50",
    "SELECT a.obid, COUNT(*) FROM assy AS a JOIN link ON a.obid = "
    "link.left GROUP BY a.obid HAVING COUNT(*) > 1 ORDER BY 1",
    "SELECT obid FROM comp WHERE EXISTS (SELECT * FROM specified_by "
    "WHERE specified_by.left = comp.obid) ORDER BY 1",
    "SELECT material, AVG(weight) FROM comp WHERE acc = '+' GROUP BY "
    "material ORDER BY 1",
    "SELECT obid FROM assy WHERE obid IN (SELECT left FROM link "
    "WHERE strc_opt = 1) ORDER BY 1",
    // Post-aggregation expressions of every kind.
    "SELECT material, acc, CASE WHEN COUNT(*) > 2 THEN 'many' "
    "ELSE 'few' END AS size FROM comp GROUP BY material, acc ORDER BY 1, 2",
    "SELECT make_or_buy, acc, CASE WHEN COUNT(*) > 3 THEN 'many' "
    "ELSE 'few' END FROM assy GROUP BY make_or_buy, acc ORDER BY 1, 2",
    "SELECT material, acc, COUNT(*) FROM comp GROUP BY material, acc "
    "HAVING COUNT(*) IN (1, 4) ORDER BY 1, 2",
    "SELECT material, acc, MIN(obid) FROM comp GROUP BY material, acc "
    "HAVING COUNT(*) BETWEEN 2 AND 4 ORDER BY 1, 2",
    "SELECT material, COUNT(*) FROM comp GROUP BY material "
    "HAVING material LIKE '%er' ORDER BY 1",
    "SELECT material, acc, COUNT(*) FROM comp GROUP BY material, acc "
    "HAVING COUNT(*) IN (SELECT COUNT(*) FROM assy GROUP BY make_or_buy, "
    "acc) ORDER BY 1, 2",
    // Computed projections (DESIGN.md 5j): homogenizing fillers next to
    // columns in UNION ALL branches, under a Sort, under a UNION parent
    // and under a LIMIT over a union.
    "SELECT type, obid, name, '' AS material, CAST(NULL AS DOUBLE) AS w, "
    "frozen FROM assy UNION ALL SELECT type, obid, name, material, weight, "
    "CAST(NULL AS BOOLEAN) FROM comp",
    "SELECT obid, weight * 2 AS w2, '' AS pad, CAST(NULL AS BOOLEAN) AS f "
    "FROM comp WHERE obid >= 0 ORDER BY w2, obid",
    "SELECT acc, '' AS material FROM assy UNION SELECT acc, material "
    "FROM comp",
    "SELECT obid, name, CAST(NULL AS DOUBLE) AS w FROM assy UNION ALL "
    "SELECT obid, name, weight FROM comp LIMIT 7",
};

/// kCorpus plus the late-evaluation query-all exactly as the client
/// renders it (every object, homogenized with `''` and CAST fillers).
std::vector<std::string> CorpusStatements() {
  std::vector<std::string> out(std::begin(kCorpus), std::end(kCorpus));
  out.push_back(rules::BuildFlatQuery()->ToSql());
  return out;
}

/// Join/aggregate/ORDER BY shapes covered by the batch->row bridge
/// executors (DESIGN.md 5j): hash join builds over filtered scans, index
/// joins, grouped and DISTINCT aggregation, and row-path sorts fed by
/// bridged scans.
constexpr const char* kBridgeCorpus[] = {
    "SELECT l.obid, a.name FROM link AS l JOIN assy AS a "
    "ON l.left = a.obid WHERE a.weight > 0",
    "SELECT l.obid, c.name FROM link AS l JOIN comp AS c "
    "ON l.right = c.obid",
    "SELECT hier, COUNT(*), MIN(eff_from), MAX(eff_to) FROM link "
    "WHERE obid >= 0 GROUP BY hier",
    "SELECT strc_opt, AVG(eff_to - eff_from) FROM link "
    "WHERE eff_from >= 0 GROUP BY strc_opt",
    "SELECT material, SUM(weight), COUNT(DISTINCT acc) FROM comp "
    "WHERE obid >= 0 GROUP BY material HAVING COUNT(*) > 1",
    "SELECT obid, left, right FROM link WHERE eff_from <= 100 "
    "ORDER BY left, obid",
    "SELECT material, CASE WHEN COUNT(*) > 4 THEN 'many' ELSE 'few' END "
    "FROM comp WHERE obid >= 0 GROUP BY material "
    "HAVING MAX(weight) BETWEEN 1.0 AND 100.0 AND material NOT LIKE 'a%'",
    // A computed projection on either join side keeps the join off the
    // VecSource cursor/build paths, which index table columns directly.
    "SELECT l.obid, o.pad FROM link AS l JOIN (SELECT obid, 'x' AS pad "
    "FROM assy WHERE weight > 0) AS o ON l.left = o.obid",
    "SELECT o.pad, l.right FROM (SELECT obid, CAST(NULL AS DOUBLE) AS pad "
    "FROM assy WHERE weight > 0) AS o JOIN (SELECT left, right FROM link "
    "WHERE eff_from >= 0) AS l ON o.obid = l.left",
};

/// A result rendered cell by cell with each cell's kind, so two results
/// compare equal only when byte-identical (1 and 1.0, or '' and NULL,
/// are not the same cell).
std::string ExactText(const ResultSet& rs) {
  std::string out;
  for (size_t c = 0; c < rs.num_columns(); ++c) {
    out += rs.schema.column(c).name + ",";
  }
  for (const Row& row : rs.rows) {
    out += "\n";
    for (const Value& v : row) {
      out += std::string(ValueKindName(v.kind())) + ":" + v.ToSqlLiteral() +
             ",";
    }
  }
  return out;
}

TEST(OptimizerDifferential, SameResultsWithAllSwitchesOff) {
  std::unique_ptr<client::Experiment> experiment = MakeA3b3Experiment();
  ASSERT_NE(experiment, nullptr);
  Database& db = experiment->server().database();
  const std::vector<std::string> corpus = CorpusStatements();

  std::vector<std::string> baseline;
  for (const std::string& sql : corpus) {
    Result<ResultSet> rs = db.Query(sql);
    ASSERT_TRUE(rs.ok()) << sql << " -> " << rs.status();
    baseline.push_back(ExactText(*rs));
  }

  db.options().binder.use_index_join = false;
  db.options().binder.predicate_pushdown = false;
  db.options().exec.cache_uncorrelated_subqueries = false;
  db.options().exec.semi_naive_recursion = false;
  for (size_t i = 0; i < corpus.size(); ++i) {
    Result<ResultSet> rs = db.Query(corpus[i]);
    ASSERT_TRUE(rs.ok()) << corpus[i];
    EXPECT_EQ(ExactText(*rs), baseline[i]) << corpus[i];
  }
}

TEST(VecEngineDifferential, SameResultsWithVectorizedExecutionOff) {
  std::unique_ptr<client::Experiment> experiment = MakeA3b3Experiment();
  ASSERT_NE(experiment, nullptr);
  Database& db = experiment->server().database();

  // The shared corpus plus scan/filter/project shapes the batch
  // executor handles directly (no ORDER BY — both engines emit in slot
  // order — and no bare equality conjunct, which would divert to the
  // row engine's index scan anyway), plus the bridge corpus.
  std::vector<std::string> queries = CorpusStatements();
  // Kernel filters, filters the batch engine hands to the row
  // evaluator (column vs column, NOT over a column, arithmetic, IS NULL
  // over an expression), and a kernel scan filter followed by a
  // row-evaluated one (the constant conjunct stays above the scan).
  const char* kScanCorpus[] = {
      "SELECT left, right FROM link WHERE eff_from <= 50 AND eff_to > 50",
      "SELECT obid, weight FROM comp WHERE weight > 1.0 OR material IS NULL",
      "SELECT obid, name FROM assy WHERE name LIKE '%3%' AND NOT frozen",
      "SELECT obid FROM link WHERE strc_opt IN (0, 1) LIMIT 40",
      "SELECT obid, weight * 2 FROM comp WHERE obid BETWEEN 10 AND 200",
      "SELECT obid, left FROM link WHERE eff_from <= eff_to",
      "SELECT obid, name FROM assy WHERE NOT frozen",
      "SELECT obid FROM link WHERE eff_to - eff_from > 10",
      "SELECT obid FROM comp WHERE weight * 2 IS NOT NULL",
      "SELECT obid FROM link WHERE eff_from >= 0 AND CAST('1' AS INTEGER) = 1",
  };
  queries.insert(queries.end(), std::begin(kScanCorpus),
                 std::end(kScanCorpus));
  queries.insert(queries.end(), std::begin(kBridgeCorpus),
                 std::end(kBridgeCorpus));

  std::vector<std::string> baseline;
  ExecStats stats;
  for (const std::string& sql : queries) {
    Result<ResultSet> rs = QueryWithStats(db, &stats, sql);
    ASSERT_TRUE(rs.ok()) << sql << " -> " << rs.status();
    baseline.push_back(ExactText(*rs));
  }
  // Every scan-corpus statement runs on the bridge: each row it scans
  // is scanned batchwise.
  for (const char* sql : kScanCorpus) {
    Result<ResultSet> rs = QueryWithStats(db, &stats, sql);
    ASSERT_TRUE(rs.ok()) << sql << " -> " << rs.status();
    EXPECT_GT(stats.rows_scanned, 0u) << sql;
    EXPECT_EQ(stats.vec_rows_scanned, stats.rows_scanned) << sql;
  }

  // The query-all runs every UNION ALL branch batchwise: each object
  // row is scanned by the vectorized tier.
  Result<ResultSet> all =
      QueryWithStats(db, &stats, rules::BuildFlatQuery()->ToSql());
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(stats.vec_rows_scanned, all->num_rows());
  EXPECT_EQ(stats.rows_scanned, all->num_rows());

  db.options().exec.vectorized_execution = false;
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<ResultSet> rs = QueryWithStats(db, &stats, queries[i]);
    ASSERT_TRUE(rs.ok()) << queries[i];
    EXPECT_EQ(stats.vec_batches, 0u) << queries[i];
    EXPECT_EQ(ExactText(*rs), baseline[i]) << queries[i];
  }
}

/// A projection or filter error surfaces exactly as on the row engine:
/// nothing when no row reaches the failing expression, the row engine's
/// first error (row-major: earliest row, then leftmost expression)
/// otherwise, and nothing when a parent stops pulling before the
/// failing row.
TEST(VecEngineDifferential, ProjectionErrorsMatchTheRowEngine) {
  Database db;
  // `wide` spans two fragments; only row 1100 (the second fragment)
  // fails to cast.
  std::string wide = "INSERT INTO wide VALUES ";
  for (int i = 0; i < 1200; ++i) {
    wide += StrFormat("%s(%d, '%s')", i == 0 ? "" : ", ", i,
                      i == 1100 ? "y" : std::to_string(i).c_str());
  }
  ASSERT_TRUE(db.ExecuteScript(
                    "CREATE TABLE vacant (id INTEGER, s VARCHAR);"
                    "CREATE TABLE filled (id INTEGER, s VARCHAR);"
                    "CREATE TABLE wide (id INTEGER, s VARCHAR);"
                    "INSERT INTO filled VALUES (1, '1');"
                    "INSERT INTO filled VALUES (2, 'y');")
                  .ok());
  ASSERT_TRUE(db.Execute(wide).ok());
  const struct {
    const char* sql;
    const char* error;  // nullptr: must succeed with `rows` rows
    size_t rows;
  } kCases[] = {
      {"SELECT id, CAST('x' AS INTEGER) FROM vacant", nullptr, 0},
      {"SELECT id, CAST('x' AS INTEGER) FROM filled WHERE id > 5", nullptr,
       0},
      {"SELECT id, CAST('x' AS INTEGER) FROM filled", "'x'", 0},
      // Column-at-a-time the first expression fails first (row 2, 'y');
      // the row engine fails on row 1's second expression ('x').
      {"SELECT CAST(s AS INTEGER), CAST('x' AS INTEGER) FROM filled", "'x'",
       0},
      {"SELECT id, CAST('x' AS INTEGER) FROM filled UNION ALL "
       "SELECT id, 1 FROM vacant",
       "'x'", 0},
      // The parent stops before row 2 ('y') reaches the projection.
      {"SELECT id, CAST(s AS INTEGER) FROM filled LIMIT 1", nullptr, 1},
      {"SELECT id, CAST(s AS INTEGER) FROM filled UNION ALL "
       "SELECT id, 1 FROM filled LIMIT 1",
       nullptr, 1},
      {"SELECT * FROM (SELECT id, CAST(s AS INTEGER) AS v FROM filled) d "
       "LIMIT 1",
       nullptr, 1},
      {"SELECT id, CAST(s AS INTEGER) FROM filled LIMIT 2", "'y'", 0},
      // The limit ends inside the second fragment, before row 1100.
      {"SELECT id, CAST(s AS INTEGER) FROM wide LIMIT 1030", nullptr, 1030},
      {"SELECT id, CAST(s AS INTEGER) FROM wide LIMIT 1101", "'y'", 0},
      // Filter errors: the parent stops before row 2's filter fails.
      {"SELECT id FROM filled WHERE CAST(s AS INTEGER) > 0 LIMIT 1", nullptr,
       1},
      {"SELECT id FROM filled WHERE CAST(s AS INTEGER) > 0", "'y'", 0},
      {"SELECT id FROM wide WHERE CAST(s AS INTEGER) >= 0 LIMIT 1030",
       nullptr, 1030},
      {"SELECT id FROM wide WHERE CAST(s AS INTEGER) >= 0 LIMIT 1101", "'y'",
       0},
      // A failing constant column before a failing computed one.
      {"SELECT CAST('x' AS INTEGER), CAST(s AS INTEGER) FROM filled", "'x'",
       0},
      // Row 2 ('y') is rejected by the kernel conjunct before the cast.
      {"SELECT id FROM filled WHERE id < 2 AND CAST(s AS INTEGER) > 0",
       nullptr, 1},
      // A row-evaluated conjunct before a kernel one, under LIMIT: the
      // cast fails at row 1100 before `id < 1100` can reject it, unless
      // the limit stops first; in the other order no row fails.
      {"SELECT id FROM wide WHERE CAST(s AS INTEGER) >= 0 AND id < 1100 "
       "LIMIT 1030",
       nullptr, 1030},
      {"SELECT id FROM wide WHERE CAST(s AS INTEGER) >= 0 AND id < 1100 "
       "LIMIT 1101",
       "'y'", 0},
      {"SELECT id FROM wide WHERE id < 1100 AND CAST(s AS INTEGER) >= 0 "
       "LIMIT 1101",
       nullptr, 1100},
      // A kernel scan filter, then a failing constant filter above it:
      // it fails only once some row passes the kernel.
      {"SELECT id FROM filled WHERE id > 5 AND CAST('x' AS INTEGER) = 1",
       nullptr, 0},
      {"SELECT id FROM filled WHERE id > 1 AND CAST('x' AS INTEGER) = 1",
       "'x'", 0},
  };
  for (const auto& c : kCases) {
    std::string status_text[2];
    std::string rows_text[2];
    for (bool vectorized : {true, false}) {
      db.options().exec.vectorized_execution = vectorized;
      ExecStats stats;
      Result<ResultSet> rs = QueryWithStats(db, &stats, c.sql);
      if (c.error == nullptr) {
        ASSERT_TRUE(rs.ok()) << c.sql << " -> " << rs.status();
        EXPECT_EQ(rs->num_rows(), c.rows) << c.sql;
        rows_text[vectorized ? 0 : 1] = ExactText(*rs);
      } else {
        ASSERT_FALSE(rs.ok()) << c.sql;
        EXPECT_NE(rs.status().ToString().find(c.error), std::string::npos)
            << c.sql << " -> " << rs.status();
        status_text[vectorized ? 0 : 1] = rs.status().ToString();
      }
      const std::string_view sql(c.sql);
      if (vectorized && (sql.find("filled") != std::string_view::npos ||
                         sql.find("wide") != std::string_view::npos)) {
        EXPECT_GT(stats.vec_batches, 0u) << c.sql;  // ran batchwise
      }
    }
    EXPECT_EQ(status_text[0], status_text[1]) << c.sql;
    EXPECT_EQ(rows_text[0], rows_text[1]) << c.sql;
  }
}

/// The engine counts the result's wire size while it produces the rows
/// (no sizing walk at the server); on both engines the count equals a
/// walk over the finished rows.
TEST(VecEngineDifferential, WireSizeCountedWhileMaterializing) {
  std::unique_ptr<client::Experiment> experiment = MakeA3b3Experiment();
  ASSERT_NE(experiment, nullptr);
  Database& db = experiment->server().database();
  std::vector<std::string> queries = CorpusStatements();
  queries.insert(queries.end(), std::begin(kBridgeCorpus),
                 std::end(kBridgeCorpus));
  for (bool vectorized : {true, false}) {
    db.options().exec.vectorized_execution = vectorized;
    for (const std::string& sql : queries) {
      ResultSet out;
      ASSERT_TRUE(db.Execute(sql, &out).ok()) << sql;
      ASSERT_TRUE(out.counted_wire_size.has_value()) << sql;
      ResultSet walked;
      walked.rows = out.rows;
      EXPECT_EQ(*out.counted_wire_size, walked.WireSize())
          << sql << (vectorized ? " [vec]" : " [row]");
    }
  }
  // Statements outside ExecutePlan keep the walk.
  ResultSet explain;
  ASSERT_TRUE(db.Execute("EXPLAIN SELECT obid FROM assy", &explain).ok());
  EXPECT_FALSE(explain.counted_wire_size.has_value());
  EXPECT_GT(explain.WireSize(), 0u);
}

// --- Column liveness: pruned plans vs every column live -----------------------

/// A statement's outcome as compared across plans: the exact result or
/// the error, plus the counters pruning must not move.
std::string Outcome(Database& db, const std::string& sql) {
  ExecStats stats;
  Result<ResultSet> rs = QueryWithStats(db, &stats, sql);
  if (!rs.ok()) return "error: " + rs.status().ToString();
  return ExactText(*rs) +
         StrFormat("\nscanned %zu cte %zu probes %zu", stats.rows_scanned,
                   stats.cte_rows_scanned, stats.index_join_probes);
}

/// Runs `queries` with pruned plans and with every column live
/// (DatabaseTestPeer), on both engine settings; the outcomes must be
/// byte-identical. A first run builds the lazy column indexes, so the
/// compared runs scan alike.
void ExpectPrunedMatchesAllLive(Database& db,
                                const std::vector<std::string>& queries) {
  for (const std::string& sql : queries) Outcome(db, sql);
  for (bool vectorized : {true, false}) {
    db.options().exec.vectorized_execution = vectorized;
    std::vector<std::string> pruned;
    for (const std::string& sql : queries) pruned.push_back(Outcome(db, sql));
    DatabaseTestPeer::SetAllColumnsLive(&db, true);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(Outcome(db, queries[i]), pruned[i])
          << queries[i] << (vectorized ? " [vec]" : " [row]");
    }
    DatabaseTestPeer::SetAllColumnsLive(&db, false);
  }
  db.options().exec.vectorized_execution = true;
}

TEST(ColumnLivenessDifferential, CorpusAndTreeStatementsMatchAllLive) {
  std::unique_ptr<client::Experiment> experiment = MakeA3b3Experiment();
  ASSERT_NE(experiment, nullptr);
  Database& db = experiment->server().database();
  std::vector<std::string> queries = CorpusStatements();
  queries.insert(queries.end(), std::begin(kBridgeCorpus),
                 std::end(kBridgeCorpus));
  // The recursive statements of a multi-level expand and a check-out.
  rules::QueryModificator modificator(&experiment->rule_table(),
                                      experiment->user());
  for (rules::RuleAction action : {rules::RuleAction::kMultiLevelExpand,
                                   rules::RuleAction::kCheckOut}) {
    Result<std::unique_ptr<sql::SelectStmt>> stmt = modificator.BuildTreeQuery(
        experiment->product().root_obid, /*max_depth=*/0, "phys", action);
    ASSERT_TRUE(stmt.ok()) << stmt.status();
    queries.push_back((*stmt)->ToSql());
  }
  ExpectPrunedMatchesAllLive(db, queries);
}

/// Shapes whose pruning has to keep a column an ancestor reads in a
/// less obvious place, and errors that must surface at the same row.
TEST(ColumnLivenessDifferential, TargetedShapesMatchAllLive) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE t (a INTEGER, b VARCHAR, c INTEGER, d VARCHAR);
    CREATE TABLE u (a INTEGER, x VARCHAR, y INTEGER);
    INSERT INTO t VALUES (1, 'p', 10, 'one'), (2, 'q', 20, 'two'),
                         (3, 'p', 30, NULL), (4, 'r', 40, 'four');
    INSERT INTO u VALUES (1, '5', 10), (2, 'y', 25), (3, '7', 30),
                         (4, 'z', 40), (1, '9', 20);
  )sql")
                  .ok());
  const std::vector<std::string> queries = {
      // A correlated subquery reads outer columns nothing else reads.
      "SELECT a FROM t WHERE EXISTS (SELECT * FROM u WHERE u.y = t.c)",
      "SELECT a, (SELECT COUNT(*) FROM u WHERE u.a = t.a AND u.y < t.c) "
      "FROM t",
      "SELECT t.a FROM t JOIN u ON t.a = u.a WHERE u.y IN "
      "(SELECT c FROM t AS t2 WHERE t2.d = t.d)",
      // EXISTS, uncorrelated.
      "SELECT a FROM t WHERE EXISTS (SELECT b FROM t WHERE c > 35)",
      // A scan filter on columns that are not projected.
      "SELECT a FROM t WHERE d = 'two' OR c > 25",
      // GROUP BY / HAVING on columns that are not projected.
      "SELECT COUNT(*) FROM t GROUP BY b HAVING MAX(c) > 15",
      "SELECT SUM(a) FROM t GROUP BY d",
      // ORDER BY.
      "SELECT a, d FROM t ORDER BY b, c DESC",
      // DISTINCT and UNION branches.
      "SELECT DISTINCT b FROM t",
      "SELECT b FROM t UNION SELECT x FROM u",
      "SELECT v.a FROM (SELECT a, b FROM t UNION SELECT a, x FROM u) AS v",
      "SELECT v.k FROM (SELECT a AS k, c FROM t UNION ALL "
      "SELECT y, a FROM u) AS v WHERE v.k > 2",
      // Index joins with residuals over columns nothing projects.
      "SELECT t.a FROM t JOIN u ON t.a = u.a WHERE u.y > t.c",
      "SELECT t.b, u.y FROM t JOIN u ON t.a = u.a WHERE u.x <> 'z'",
      // A residual that fails on some rows: the error must name the
      // same first failing row ('y', not 'z').
      "SELECT t.a FROM t JOIN u ON t.a = u.a WHERE CAST(u.x AS INTEGER) > 0",
      "SELECT t.d FROM t JOIN u ON t.a = u.a "
      "WHERE t.c > 15 AND CAST(u.x AS INTEGER) > 0",
      // Recursion over a CTE whose terms read two of its columns.
      "WITH RECURSIVE r (a, pad, n) AS (SELECT a, d, 0 FROM t WHERE a = 1 "
      "UNION SELECT u.a + 1, u.x, r.n + 1 FROM r JOIN u ON r.a = u.a "
      "WHERE r.n < 3) SELECT a, pad, n FROM r ORDER BY 1, 2, 3",
  };
  ExecStats stats;
  ASSERT_TRUE(QueryWithStats(db, &stats, queries[13]).ok());
  EXPECT_GT(stats.index_join_probes, 0u);  // the residual runs in the index join
  const std::string error = Outcome(db, queries[14]);
  EXPECT_NE(error.find("'y'"), std::string::npos) << error;
  ExpectPrunedMatchesAllLive(db, queries);
}

}  // namespace
}  // namespace pdm
