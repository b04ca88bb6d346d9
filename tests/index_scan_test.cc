// Tests for index-answered scans (exec/executor.cc ScanExecutor): set
// valued `col IN (uncorrelated subquery)` lookups, the choice of the
// most selective fresh index, and the warm a7b5 recursive multi-level
// expand that both exist for.
//
// The oracle for every indexed query is the same query with its operand
// wrapped (`k + 0`, `s || ''`): an expression is not indexable, so the
// oracle takes the full scan, and the two results must be identical —
// rows, kinds and row order (no ORDER BY anywhere).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "client/experiment.h"
#include "engine/database.h"
#include "plan/binder.h"
#include "query_with_stats.h"
#include "rules/query_builder.h"
#include "rules/query_modificator.h"
#include "sql/parser.h"

namespace pdm {
namespace {

/// Byte-level rendering of a result: every cell with its kind, rows in
/// result order.
std::string Render(const ResultSet& rs) {
  std::string out;
  for (const Row& row : rs.rows) {
    for (const Value& v : row) {
      out += std::string(ValueKindName(v.kind())) + ":" + v.ToString() + "|";
    }
    out += "\n";
  }
  return out;
}

class IndexScan : public ::testing::Test {
 protected:
  void SetUp() override {
    // t: duplicate keys, NULLs in every key column, integral and
    // fractional doubles, strings; positions interleave so that the
    // index's per-key position lists must be merged back into scan
    // order. u/v/w hold the IN-sets.
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE t (k INTEGER, d DOUBLE, s VARCHAR, tag INTEGER);
      INSERT INTO t VALUES
        (3, 3.0, 'c', 0), (1, 1.5, 'a', 1), (NULL, NULL, NULL, 2),
        (2, 2.0, 'b', 3), (3, 3.5, 'c', 4), (1, 1.0, 'a', 5),
        (5, 5.0, '5', 6), (NULL, 2.0, 'b', 7), (2, NULL, 'x', 8),
        (3, 3.0, 'c', 9);
      CREATE TABLE u (x INTEGER, y DOUBLE, z VARCHAR);
      INSERT INTO u VALUES
        (3, 3.0, 'c'), (1, 1.5, 'a'), (3, 2.0, 'c'), (5, 5.0, '5');
      CREATE TABLE v (x INTEGER, y DOUBLE, z VARCHAR);
      INSERT INTO v VALUES (2, 2.0, 'b'), (NULL, NULL, NULL);
      CREATE TABLE w (x INTEGER, y DOUBLE, z VARCHAR);
    )sql")
                    .ok());
  }

  /// Runs `sql` and returns its rendering plus the statement's stats.
  std::string Run(const std::string& sql, ExecStats* stats) {
    Result<ResultSet> rs = QueryWithStats(db_, stats, sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status();
    return rs.ok() ? Render(*rs) : "error: " + rs.status().ToString();
  }

  /// Asserts that `indexed` and `oracle` return identical results, that
  /// the indexed one answered from an index and the oracle did not, and
  /// that the index never examined more rows than the full scan.
  void ExpectMatchesOracle(const std::string& indexed,
                           const std::string& oracle) {
    ExecStats is;
    ExecStats os;
    const std::string got = Run(indexed, &is);
    const std::string want = Run(oracle, &os);
    EXPECT_EQ(got, want) << indexed;
    EXPECT_EQ(is.index_scans, 1u) << indexed;
    EXPECT_EQ(os.index_scans, 0u) << oracle;
    EXPECT_LE(is.rows_scanned, os.rows_scanned) << indexed;
  }

  Database db_;
};

TEST_F(IndexScan, InSubqueryMatchesTheFullScanOracle) {
  const struct {
    const char* column;
    const char* oracle;
    const char* set;
  } kCases[] = {
      // int column, int keys with duplicates
      {"k", "(k + 0)", "SELECT x FROM u"},
      // int column, integral and fractional double keys
      {"k", "(k + 0)", "SELECT y FROM u"},
      // double column (an index demoted to Value keys), int keys
      {"d", "(d + 0)", "SELECT x FROM u"},
      // double column, double keys
      {"d", "(d + 0)", "SELECT y FROM u"},
      // string column, string keys ('5' never equals 5)
      {"s", "(s || '')", "SELECT z FROM u"},
      // a NULL in the set
      {"k", "(k + 0)", "SELECT x FROM v"},
      {"s", "(s || '')", "SELECT z FROM v"},
      // an empty set
      {"k", "(k + 0)", "SELECT x FROM w"},
      {"k", "(k + 0)", "SELECT x FROM u WHERE x > 100"},
  };
  for (const auto& c : kCases) {
    const std::string tail = std::string(" IN (") + c.set + ")";
    ExpectMatchesOracle(
        std::string("SELECT * FROM t WHERE ") + c.column + tail,
        std::string("SELECT * FROM t WHERE ") + c.oracle + tail);
    // The full filter still runs on every candidate.
    ExpectMatchesOracle(
        std::string("SELECT tag, s FROM t WHERE ") + c.column + tail +
            " AND tag > 2",
        std::string("SELECT tag, s FROM t WHERE ") + c.oracle + tail +
            " AND tag > 2");
  }
}

TEST_F(IndexScan, TwoSetsAndAnEqualityMatchTheOracle) {
  // The recursive expand's link-branch shape: two IN-sets and an
  // equality, in both orders.
  ExpectMatchesOracle(
      "SELECT * FROM t WHERE k IN (SELECT x FROM u) "
      "AND s IN (SELECT z FROM u) AND tag > 0",
      "SELECT * FROM t WHERE (k + 0) IN (SELECT x FROM u) "
      "AND (s || '') IN (SELECT z FROM u) AND (tag + 0) > 0");
  ExpectMatchesOracle(
      "SELECT * FROM t WHERE s = 'c' AND k IN (SELECT x FROM u)",
      "SELECT * FROM t WHERE (s || '') = 'c' "
      "AND (k + 0) IN (SELECT x FROM u)");
}

TEST_F(IndexScan, SubqueryRunsOnceAndItsCacheEntryIsShared) {
  ExecStats stats;
  Run("SELECT * FROM t WHERE k IN (SELECT x FROM u)", &stats);
  EXPECT_EQ(stats.index_scans, 1u);
  EXPECT_EQ(stats.subquery_evaluations, 1u);
  // u's 4 rows for the set, then only t's 6 candidates (k in {1, 3, 5})
  // instead of all 10.
  EXPECT_EQ(stats.rows_scanned, 4u + 6u);
}

TEST_F(IndexScan, NegatedAndCorrelatedSetsStayFullScans) {
  ExecStats stats;
  const std::string not_in =
      Run("SELECT * FROM t WHERE k NOT IN (SELECT x FROM u)", &stats);
  EXPECT_EQ(stats.index_scans, 0u);
  ExecStats oracle;
  EXPECT_EQ(not_in,
            Run("SELECT * FROM t WHERE (k + 0) NOT IN (SELECT x FROM u)",
                &oracle));

  const std::string correlated = Run(
      "SELECT * FROM t WHERE k IN (SELECT x FROM u WHERE u.z = t.s)", &stats);
  EXPECT_EQ(stats.index_scans, 0u);
  EXPECT_EQ(correlated,
            Run("SELECT * FROM t WHERE (k + 0) IN "
                "(SELECT x FROM u WHERE u.z = t.s)",
                &oracle));
}

TEST_F(IndexScan, WithoutTheSubqueryCacheTheSetIsNotIndexed) {
  db_.options().exec.cache_uncorrelated_subqueries = false;
  ExecStats stats;
  Run("SELECT * FROM t WHERE k IN (SELECT x FROM u)", &stats);
  EXPECT_EQ(stats.index_scans, 0u);
}

/// An index never answers an equality the evaluator rejects. `s = 2`
/// compares a VARCHAR column with an INTEGER literal, `a.s = b.k` two
/// columns of those types: whatever the index history (the first
/// sighting sweeps, a repeat would take the index), the engine setting
/// and the join setting, every execution reports the evaluator's error.
TEST(IndexEquality, IncomparableKindsFailOnEveryPath) {
  Database db;
  ASSERT_TRUE(db.ExecuteScript(R"sql(
    CREATE TABLE a (id INTEGER, s VARCHAR);
    INSERT INTO a VALUES (1, 'x'), (2, '2');
    CREATE TABLE b (id INTEGER, k INTEGER);
    INSERT INTO b VALUES (1, 2), (2, 1);
  )sql")
                  .ok());
  std::vector<std::string> statuses;
  for (bool vectorized : {true, false}) {
    db.options().exec.vectorized_execution = vectorized;
    for (int run = 0; run < 3; ++run) {
      statuses.push_back(
          db.Query("SELECT id FROM a WHERE s = 2").status().ToString());
    }
  }
  db.options().exec.vectorized_execution = true;
  for (bool index_join : {true, false}) {
    db.options().binder.use_index_join = index_join;
    statuses.push_back(
        db.Query("SELECT a.id FROM a JOIN b ON a.s = b.k").status().ToString());
  }
  EXPECT_NE(statuses.front().find("cannot compare"), std::string::npos)
      << statuses.front();
  for (size_t i = 1; i < statuses.size(); ++i) {
    EXPECT_EQ(statuses[i], statuses.front()) << "execution " << i;
  }
}

TEST_F(IndexScan, FailingSubqueryFallsBackToTheFullScan) {
  // The subquery fails at open; the scan then runs as the full scan,
  // whose filter surfaces the same error on the first row.
  const char* kSql =
      "SELECT * FROM t WHERE k IN (SELECT x / 0 FROM u)";
  ExecStats stats;
  Result<ResultSet> rs = QueryWithStats(db_, &stats, kSql);
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(stats.index_scans, 0u);
  Result<ResultSet> oracle =
      db_.Query("SELECT * FROM t WHERE (k + 0) IN (SELECT x / 0 FROM u)");
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(rs.status().ToString(), oracle.status().ToString());
}

// --- The warm a7b5 recursive multi-level expand -----------------------------

/// The a7b5 product (97,656 links in the physical hierarchy) with the
/// rule-modified recursive tree query, run once to build the indexes.
class MleScanCounts : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    client::ExperimentConfig config;
    config.generator.depth = 7;
    config.generator.branching = 5;
    config.generator.sigma = 0.6;
    config.generator.seed = 1;
    Result<std::unique_ptr<client::Experiment>> e =
        client::Experiment::Create(config);
    ASSERT_TRUE(e.ok()) << e.status();
    experiment_ = std::move(e).value().release();
    std::unique_ptr<sql::SelectStmt> stmt =
        rules::BuildRecursiveTreeQuery(experiment_->product().root_obid);
    rules::QueryModificator modificator(&experiment_->rule_table(),
                                        experiment_->user());
    ASSERT_TRUE(modificator
                    .ApplyToRecursiveQuery(
                        stmt.get(), rules::RuleAction::kMultiLevelExpand)
                    .ok());
    mle_sql_ = new std::string(stmt->ToSql());
    ASSERT_TRUE(db().Query(*mle_sql_).ok());  // warm-up
  }
  static void TearDownTestSuite() {
    delete experiment_;
    delete mle_sql_;
    experiment_ = nullptr;
    mle_sql_ = nullptr;
  }

  static Database& db() { return experiment_->server().database(); }

  static client::Experiment* experiment_;
  static std::string* mle_sql_;
};

client::Experiment* MleScanCounts::experiment_ = nullptr;
std::string* MleScanCounts::mle_sql_ = nullptr;

TEST_F(MleScanCounts, RecursiveExpandScansOnlyTheLinksItReturns) {
  ExecStats stats;
  Result<ResultSet> rs = QueryWithStats(db(), &stats, *mle_sql_);
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(rs->num_rows(), 6559u);
  // One seed row plus the links whose `left` is in rtbl.
  EXPECT_EQ(stats.rows_scanned, 5466u);
  EXPECT_EQ(stats.index_join_probes, 13118u);
  EXPECT_EQ(stats.cte_rows_scanned, 16400u);

  // Byte-identical to the same statement answered by full scans: the
  // link branch with its set operands wrapped.
  std::string oracle_sql = *mle_sql_;
  for (const char* operand : {"left IN (", "right IN ("}) {
    const std::string from = operand;
    const size_t at = oracle_sql.find(from);
    ASSERT_NE(at, std::string::npos) << oracle_sql;
    const std::string column = from.substr(0, from.find(' '));
    oracle_sql.replace(at, from.size(),
                       "(" + column + " + 0) IN (");
  }
  Result<ResultSet> oracle = db().Query(oracle_sql);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_EQ(Render(*rs), Render(*oracle));
}

/// The CteScan leaf of `plan`'s left-deep join chain.
const PlanNode* CteScanLeaf(const PlanNode& plan) {
  const PlanNode* node = &plan;
  while (node->kind != PlanKind::kCteScan) {
    const PlanNode* next = nullptr;
    ForEachChild(*node, [&](const PlanPtr& c) {
      if (next == nullptr) next = c.get();
    });
    if (next == nullptr) return nullptr;
    node = next;
  }
  return node;
}

TEST_F(MleScanCounts, RecursiveTermsReadOnlyObidAndLevelOfTheDelta) {
  Result<sql::StatementPtr> stmt = sql::ParseSql(*mle_sql_);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  Binder binder(&db().catalog(), &db().functions(), db().options().binder,
                &db().views());
  Result<BoundSelect> bound = binder.BindSelect(
      static_cast<const sql::SelectStmt&>(**stmt));
  ASSERT_TRUE(bound.ok()) << bound.status();
  ComputeColumnLiveness(&*bound);

  ASSERT_EQ(bound->ctes.size(), 1u);
  const BoundCte& rtbl = bound->ctes[0];
  const size_t obid = *rtbl.schema.FindColumn("obid");
  const size_t lvl = *rtbl.schema.FindColumn("lvl");
  ColumnMask expected(rtbl.schema.num_columns(), false);
  expected[obid] = true;
  expected[lvl] = true;
  ASSERT_EQ(rtbl.recursive_terms.size(), 2u);
  for (const PlanPtr& term : rtbl.recursive_terms) {
    const PlanNode* scan = CteScanLeaf(*term);
    ASSERT_NE(scan, nullptr) << term->ToString();
    EXPECT_EQ(scan->live, expected) << term->ToString();
  }
  // The CTE's own terms and the statement's root produce every column.
  EXPECT_TRUE(rtbl.seed->live.empty());
  EXPECT_TRUE(bound->root->live.empty());
}

TEST_F(MleScanCounts, MostSelectiveFreshIndexWins) {
  // Both `hier` and `left` carry fresh indexes after the warm-up; the
  // point lookup must take the five-row `left` list, not the 97,655
  // physical links.
  const std::string sql =
      "SELECT * FROM link WHERE hier = 'phys' AND left = " +
      std::to_string(experiment_->product().root_obid);
  ExecStats stats;
  Result<ResultSet> rs = QueryWithStats(db(), &stats, sql);
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_EQ(stats.index_scans, 1u);
  EXPECT_EQ(stats.rows_scanned, 5u);
  EXPECT_EQ(rs->num_rows(), 5u);
}

// --- The PDM traffic the join operator choice relies on ----------------------

/// Every statement the PDM actions issue on a small tree: each
/// strategy's query, single- and multi-level expand, then check-out and
/// check-in by each method. Every join they run is an index join, so no
/// statement counts a nested-loop probe (`join_probe_rows`, charged at
/// the row rate) and the expands count index-join probes. A join change
/// that moved this traffic would move the simulated t_server of the
/// paper's tables.
TEST(PdmJoinTraffic, EveryJoinIsAnIndexJoin) {
  using model::ActionKind;
  using model::StrategyKind;
  client::ExperimentConfig config;
  config.generator.depth = 3;
  config.generator.branching = 3;
  config.generator.sigma = 0.6;
  Result<std::unique_ptr<client::Experiment>> created =
      client::Experiment::Create(config);
  ASSERT_TRUE(created.ok()) << created.status();
  client::Experiment& e = **created;
  DbServer& server = e.server();
  server.mutable_config().statement_log_capacity = 0;
  server.EnableStatementLog(true);
  // The logged statements' index-join probes; clears the log.
  auto index_probes = [&](const std::string& label) {
    size_t probes = 0;
    for (const DbServer::StatementLogEntry& entry : server.statement_log()) {
      EXPECT_EQ(entry.join_probe_rows, 0u) << label << ": " << entry.sql;
      probes += entry.vec_join_probe_rows;
    }
    server.ClearStatementLog();
    return probes;
  };

  for (StrategyKind strategy :
       {StrategyKind::kNavigationalLate, StrategyKind::kNavigationalEarly,
        StrategyKind::kRecursive, StrategyKind::kBatchedLate,
        StrategyKind::kBatchedEarly, StrategyKind::kPipelinedLate,
        StrategyKind::kPipelinedEarly}) {
    for (ActionKind action :
         {ActionKind::kQuery, ActionKind::kSingleLevelExpand,
          ActionKind::kMultiLevelExpand}) {
      const std::string label = std::string(model::StrategyKindName(strategy)) +
                                " " + std::string(model::ActionKindName(action));
      Result<client::ActionResult> result = e.RunAction(strategy, action);
      ASSERT_TRUE(result.ok()) << label << ": " << result.status();
      const size_t probes = index_probes(label);
      if (action != ActionKind::kQuery) {
        EXPECT_GT(probes, 0u) << label;
      }
    }
  }

  std::unique_ptr<client::CheckOutClient> checkout = e.MakeCheckOutClient();
  const int64_t root = e.product().root_obid;
  for (client::CheckOutMethod method :
       {client::CheckOutMethod::kNavigational,
        client::CheckOutMethod::kRecursiveBatched,
        client::CheckOutMethod::kStoredProcedure}) {
    const std::string label(client::CheckOutMethodName(method));
    Result<client::CheckOutResult> out = checkout->CheckOut(root, method);
    ASSERT_TRUE(out.ok()) << label << ": " << out.status();
    EXPECT_TRUE(out->success) << label;
    Result<client::CheckOutResult> in = checkout->CheckIn(root, method);
    ASSERT_TRUE(in.ok()) << label << ": " << in.status();
    EXPECT_TRUE(in->success) << label;
    index_probes(label);
  }
}

}  // namespace
}  // namespace pdm
