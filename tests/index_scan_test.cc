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

}  // namespace
}  // namespace pdm
