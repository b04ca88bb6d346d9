// Tests for the statement fingerprint (sql/fingerprint.h) and the
// server-side plan cache (engine/plan_cache.h): key normalization,
// cached plans run with other parameters, exact-match-only entries,
// invalidation on DDL and option changes, LRU eviction, server-boundary
// reporting, and cached-vs-cold differential equivalence (also with
// other literals) for the paper's three access strategies.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>

#include "client/experiment.h"
#include "engine/database.h"
#include "query_with_stats.h"
#include "server/db_server.h"
#include "sql/fingerprint.h"

namespace pdm {
namespace {

using sql::FingerprintSql;
using sql::StatementFingerprint;

// --- Fingerprint normalization ----------------------------------------------

TEST(FingerprintTest, LiteralOnlyDifferencesShareOneKey) {
  Result<StatementFingerprint> a =
      FingerprintSql("SELECT name FROM t WHERE id = 1 AND score > 0.5");
  Result<StatementFingerprint> b =
      FingerprintSql("SELECT name FROM t WHERE id = 42 AND score > 2.25");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->cacheable);
  EXPECT_TRUE(b->cacheable);
  EXPECT_EQ(a->key, b->key);
  ASSERT_EQ(a->params.size(), 2u);
  ASSERT_EQ(b->params.size(), 2u);
  EXPECT_EQ(a->params[0].int64_value(), 1);
  EXPECT_EQ(b->params[0].int64_value(), 42);
}

TEST(FingerprintTest, StringLiteralsParameterized) {
  Result<StatementFingerprint> a =
      FingerprintSql("SELECT * FROM link WHERE hier = 'part-of'");
  Result<StatementFingerprint> b =
      FingerprintSql("SELECT * FROM link WHERE hier = 'view-of'");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->key, b->key);
  ASSERT_EQ(a->params.size(), 1u);
  EXPECT_EQ(a->params[0].string_value(), "part-of");
}

TEST(FingerprintTest, StructuralLiteralsStayVerbatim) {
  // LIMIT counts and ORDER BY output-column positions change the plan
  // shape, so they are part of the key, not parameters.
  Result<StatementFingerprint> l1 = FingerprintSql("SELECT a FROM t LIMIT 1");
  Result<StatementFingerprint> l2 = FingerprintSql("SELECT a FROM t LIMIT 2");
  ASSERT_TRUE(l1.ok() && l2.ok());
  EXPECT_NE(l1->key, l2->key);
  EXPECT_TRUE(l1->params.empty());

  Result<StatementFingerprint> o1 =
      FingerprintSql("SELECT a, b FROM t ORDER BY 1");
  Result<StatementFingerprint> o2 =
      FingerprintSql("SELECT a, b FROM t ORDER BY 2");
  ASSERT_TRUE(o1.ok() && o2.ok());
  EXPECT_NE(o1->key, o2->key);
  EXPECT_TRUE(o1->params.empty());

  // Second and later ORDER BY items are positions too.
  Result<StatementFingerprint> o3 =
      FingerprintSql("SELECT a, b FROM t ORDER BY 1, 2");
  Result<StatementFingerprint> o4 =
      FingerprintSql("SELECT a, b FROM t ORDER BY 2, 1");
  ASSERT_TRUE(o3.ok() && o4.ok());
  EXPECT_NE(o3->key, o4->key);

  // But an ordinary literal inside an ORDER BY *expression* is a
  // parameter (it is not at item-start position).
  Result<StatementFingerprint> e1 =
      FingerprintSql("SELECT a FROM t ORDER BY a + 1");
  Result<StatementFingerprint> e2 =
      FingerprintSql("SELECT a FROM t ORDER BY a + 2");
  ASSERT_TRUE(e1.ok() && e2.ok());
  EXPECT_EQ(e1->key, e2->key);
  EXPECT_EQ(e1->params.size(), 1u);
}

TEST(FingerprintTest, WhereLiteralAfterOrderByStillParameterized) {
  // A subquery's WHERE literal sits inside parens opened after ORDER BY
  // started; depth tracking must not mistake it for a position.
  Result<StatementFingerprint> a = FingerprintSql(
      "SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE b = 7) ORDER BY 1");
  Result<StatementFingerprint> b = FingerprintSql(
      "SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE b = 9) ORDER BY 1");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->key, b->key);
  EXPECT_EQ(a->params.size(), 1u);
}

TEST(FingerprintTest, OnlySelectAndWithAreCacheable) {
  EXPECT_FALSE(FingerprintSql("INSERT INTO t VALUES (1)")->cacheable);
  EXPECT_FALSE(FingerprintSql("UPDATE t SET a = 1")->cacheable);
  EXPECT_FALSE(FingerprintSql("DELETE FROM t")->cacheable);
  EXPECT_FALSE(FingerprintSql("CREATE TABLE t (a INTEGER)")->cacheable);
  EXPECT_TRUE(FingerprintSql("SELECT 1")->cacheable);
  EXPECT_TRUE(
      FingerprintSql("WITH c AS (SELECT 1) SELECT * FROM c")->cacheable);

  // The DML flag reads the first token, so letter case, leading
  // whitespace and leading comments do not hide a write.
  EXPECT_TRUE(FingerprintSql("INSERT INTO t VALUES (1)")->dml);
  EXPECT_TRUE(FingerprintSql("UPDATE t SET a = 1")->dml);
  EXPECT_TRUE(FingerprintSql("DELETE FROM t")->dml);
  EXPECT_TRUE(FingerprintSql("update t set a = 1")->dml);
  EXPECT_TRUE(FingerprintSql(" \n\t delete from t")->dml);
  EXPECT_TRUE(FingerprintSql("/* audit */ UPDATE t SET a = 1")->dml);
  EXPECT_TRUE(FingerprintSql("-- tag\nINSERT INTO t VALUES (1)")->dml);
  EXPECT_FALSE(FingerprintSql("SELECT 1")->dml);
  EXPECT_FALSE(FingerprintSql("CREATE TABLE t (a INTEGER)")->dml);
  EXPECT_FALSE(FingerprintSql("CALL p(1)")->dml);
  EXPECT_FALSE(FingerprintSql("")->dml);
  EXPECT_FALSE(FingerprintSql("SELECT * FROM t WHERE a = 'UPDATE'")->dml);
}

TEST(FingerprintTest, StructurallyDifferentQueriesDiffer) {
  Result<StatementFingerprint> a = FingerprintSql("SELECT a FROM t");
  Result<StatementFingerprint> b = FingerprintSql("SELECT b FROM t");
  Result<StatementFingerprint> c = FingerprintSql("SELECT a FROM u");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_NE(a->key, b->key);
  EXPECT_NE(a->key, c->key);
}

// --- Cache behaviour through the engine -------------------------------------

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE t (id INTEGER, name VARCHAR, score DOUBLE);
      INSERT INTO t VALUES (1, 'a', 1.0), (2, 'b', 2.0), (3, 'c', 3.0);
    )sql")
                    .ok());
  }

  /// Database::Query that keeps the call's counters in stats_.
  Result<ResultSet> Query(std::string_view sql) {
    return QueryWithStats(db_, &stats_, sql);
  }

  Database db_;
  ExecStats stats_;
};

TEST_F(PlanCacheTest, RepeatedQueryHitsWithDifferentLiterals) {
  Result<ResultSet> r1 = Query("SELECT name FROM t WHERE id = 1");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(stats_.plan_cache_misses, 1u);
  EXPECT_EQ(stats_.plan_cache_hits, 0u);
  ASSERT_EQ(r1->num_rows(), 1u);
  EXPECT_EQ(r1->At(0, 0).string_value(), "a");

  // Different literal, same shape: served from the cached plan.
  Result<ResultSet> r2 = Query("SELECT name FROM t WHERE id = 2");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(stats_.plan_cache_hits, 1u);
  EXPECT_EQ(stats_.plan_cache_misses, 0u);
  ASSERT_EQ(r2->num_rows(), 1u);
  EXPECT_EQ(r2->At(0, 0).string_value(), "b");

  EXPECT_EQ(db_.plan_cache().stats().hits, 1u);
  EXPECT_EQ(db_.plan_cache().size(), 1u);
}

TEST_F(PlanCacheTest, InListSubstitutionRebuildsLiteralSet) {
  Result<ResultSet> r1 =
      Query("SELECT COUNT(*) FROM t WHERE id IN (1, 2)");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->At(0, 0).int64_value(), 2);

  Result<ResultSet> r2 =
      Query("SELECT COUNT(*) FROM t WHERE id IN (3, 9)");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(stats_.plan_cache_hits, 1u);
  EXPECT_EQ(r2->At(0, 0).int64_value(), 1);
}

TEST_F(PlanCacheTest, LargeInListSubstitution) {
  // Large lists take the hash-set path; a cached plan running with
  // other parameters must build its set from them.
  ASSERT_TRUE(db_.Execute("CREATE TABLE n (v INTEGER)").ok());
  std::string insert = "INSERT INTO n VALUES (0)";
  for (int i = 1; i < 400; ++i) insert += ", (" + std::to_string(i) + ")";
  ASSERT_TRUE(db_.Execute(insert).ok());

  auto in_query = [](int offset) {
    std::string sql = "SELECT COUNT(*) FROM n WHERE v IN (";
    for (int i = 0; i < 300; ++i) {
      if (i > 0) sql += ",";
      sql += std::to_string(offset + i * 2);
    }
    return sql + ")";
  };
  Result<ResultSet> evens = Query(in_query(0));
  ASSERT_TRUE(evens.ok());
  EXPECT_EQ(evens->At(0, 0).int64_value(), 200);  // 0,2,..,398 within 0..399

  Result<ResultSet> odds = Query(in_query(1));
  ASSERT_TRUE(odds.ok());
  EXPECT_EQ(stats_.plan_cache_hits, 1u);
  EXPECT_EQ(odds->At(0, 0).int64_value(), 200);  // 1,3,..,399
}

TEST_F(PlanCacheTest, CreateAndDropTableFlushEntries) {
  ASSERT_TRUE(Query("SELECT name FROM t WHERE id = 1").ok());
  ASSERT_TRUE(Query("SELECT name FROM t WHERE id = 2").ok());
  EXPECT_EQ(stats_.plan_cache_hits, 1u);

  // CREATE TABLE bumps the schema epoch: the cached plan is discarded.
  ASSERT_TRUE(db_.Execute("CREATE TABLE other (x INTEGER)").ok());
  ASSERT_TRUE(Query("SELECT name FROM t WHERE id = 3").ok());
  EXPECT_EQ(stats_.plan_cache_hits, 0u);
  EXPECT_EQ(stats_.plan_cache_misses, 1u);
  EXPECT_GE(db_.plan_cache().stats().invalidations, 1u);

  // So does DROP TABLE.
  ASSERT_TRUE(db_.Execute("DROP TABLE other").ok());
  ASSERT_TRUE(Query("SELECT name FROM t WHERE id = 1").ok());
  EXPECT_EQ(stats_.plan_cache_misses, 1u);
  EXPECT_GE(db_.plan_cache().stats().invalidations, 2u);
}

// A cached plan carries its column indexes and its column-liveness
// masks. Dropping a table and re-creating it under the same name with
// the columns in another order must rebind: the schema epoch (catalog
// version plus view/function DDL count) only grows, so no DDL sequence
// can bring back the value the entry was stamped with.
TEST_F(PlanCacheTest, RecreatedTableWithNewLayoutRebinds) {
  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    CREATE TABLE r (a INTEGER, b INTEGER, c VARCHAR);
    INSERT INTO r VALUES (1, 10, 'old'), (2, 20, 'older');
  )sql")
                  .ok());
  const char* kQueries[] = {"SELECT a, b, c FROM r WHERE a = 1",
                            "SELECT c FROM r WHERE b > 15"};
  for (const char* sql : kQueries) {
    ASSERT_TRUE(Query(sql).ok()) << sql;
    ASSERT_TRUE(Query(sql).ok()) << sql;
    EXPECT_EQ(stats_.plan_cache_hits, 1u) << sql;
  }
  const uint64_t epoch = db_.schema_epoch();

  ASSERT_TRUE(db_.ExecuteScript(R"sql(
    DROP TABLE r;
    CREATE TABLE r (c VARCHAR, a INTEGER, b INTEGER);
    INSERT INTO r VALUES ('new', 1, 30), ('newer', 2, 5);
  )sql")
                  .ok());
  EXPECT_GT(db_.schema_epoch(), epoch);

  Result<ResultSet> point = Query(kQueries[0]);
  ASSERT_TRUE(point.ok()) << point.status();
  EXPECT_EQ(stats_.plan_cache_misses, 1u);
  ASSERT_EQ(point->num_rows(), 1u);
  EXPECT_EQ(point->rows[0][0], Value::Int64(1));
  EXPECT_EQ(point->rows[0][1], Value::Int64(30));
  EXPECT_EQ(point->rows[0][2], Value::String("new"));

  Result<ResultSet> filtered = Query(kQueries[1]);
  ASSERT_TRUE(filtered.ok()) << filtered.status();
  EXPECT_EQ(stats_.plan_cache_misses, 1u);
  ASSERT_EQ(filtered->num_rows(), 1u);
  EXPECT_EQ(filtered->rows[0][0], Value::String("new"));

  // The rebound plans are cached in turn.
  ASSERT_TRUE(Query(kQueries[1]).ok());
  EXPECT_EQ(stats_.plan_cache_hits, 1u);
}

TEST_F(PlanCacheTest, ViewDdlInvalidates) {
  ASSERT_TRUE(Query("SELECT name FROM t WHERE id = 1").ok());
  ASSERT_TRUE(
      db_.Execute("CREATE VIEW v AS SELECT id, name FROM t WHERE id > 1")
          .ok());
  ASSERT_TRUE(Query("SELECT name FROM t WHERE id = 2").ok());
  EXPECT_EQ(stats_.plan_cache_misses, 1u);

  // A cached query over the view is correct and hit on repetition.
  Result<ResultSet> v1 = Query("SELECT name FROM v WHERE id = 2");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->At(0, 0).string_value(), "b");
  Result<ResultSet> v2 = Query("SELECT name FROM v WHERE id = 3");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(stats_.plan_cache_hits, 1u);
  EXPECT_EQ(v2->At(0, 0).string_value(), "c");

  ASSERT_TRUE(db_.Execute("DROP VIEW v").ok());
  ASSERT_TRUE(Query("SELECT name FROM t WHERE id = 1").ok());
  EXPECT_EQ(stats_.plan_cache_misses, 1u);
}

TEST_F(PlanCacheTest, DmlDoesNotInvalidateButSeesNewData) {
  // DML leaves plans valid — they re-scan current table contents.
  ASSERT_TRUE(Query("SELECT COUNT(*) FROM t WHERE id = 4").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (4, 'd', 4.0)").ok());
  Result<ResultSet> after = Query("SELECT COUNT(*) FROM t WHERE id = 4");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(stats_.plan_cache_hits, 1u);
  EXPECT_EQ(after->At(0, 0).int64_value(), 1);
}

TEST_F(PlanCacheTest, BinderOptionChangeInvalidates) {
  ASSERT_TRUE(
      Query("SELECT COUNT(*) FROM t AS x JOIN t AS y ON x.id = y.id "
            "WHERE x.id > 0")
          .ok());
  db_.options().binder.use_index_join = false;
  Result<ResultSet> rs =
      Query("SELECT COUNT(*) FROM t AS x JOIN t AS y ON x.id = y.id "
            "WHERE x.id > 1");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(stats_.plan_cache_misses, 1u);
  EXPECT_EQ(rs->At(0, 0).int64_value(), 2);
}

TEST_F(PlanCacheTest, LruEvictionAtCapacity) {
  db_.plan_cache().set_capacity(1);
  ASSERT_TRUE(Query("SELECT id FROM t WHERE id = 1").ok());
  ASSERT_TRUE(Query("SELECT name FROM t WHERE id = 1").ok());  // evicts
  EXPECT_EQ(db_.plan_cache().stats().evictions, 1u);
  EXPECT_EQ(db_.plan_cache().size(), 1u);
  // The first shape was evicted: running it again is a miss, not a hit.
  ASSERT_TRUE(Query("SELECT id FROM t WHERE id = 2").ok());
  EXPECT_EQ(stats_.plan_cache_misses, 1u);
}

TEST_F(PlanCacheTest, ZeroCapacityCacheNeverHits) {
  db_.plan_cache().set_capacity(0);
  ASSERT_TRUE(Query("SELECT name FROM t WHERE id = 1").ok());
  Result<ResultSet> rs = Query("SELECT name FROM t WHERE id = 2");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(stats_.plan_cache_hits, 0u);
  EXPECT_EQ(stats_.plan_cache_misses, 1u);
  EXPECT_EQ(db_.plan_cache().stats().hits, 0u);
  EXPECT_EQ(db_.plan_cache().size(), 0u);
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->At(0, 0).string_value(), "b");
}

TEST_F(PlanCacheTest, ExactMatchOnlyEntryMissesOnOtherParameters) {
  // The select-list `id + 1` is matched to the GROUP BY expression by
  // text, so its parameter reaches no bound literal and the entry may
  // be reused only for the exact parameters it was bound with.
  const char* kBound =
      "SELECT id + 1, COUNT(*) FROM t GROUP BY id + 1 ORDER BY 1";
  const char* kOther =
      "SELECT id + 2, COUNT(*) FROM t GROUP BY id + 1 ORDER BY 1";
  ASSERT_EQ(FingerprintSql(kBound)->key, FingerprintSql(kOther)->key);

  const size_t capacity = db_.plan_cache().capacity();
  db_.plan_cache().set_capacity(0);
  const Status cold = db_.Execute(kOther);
  ASSERT_EQ(cold.code(), StatusCode::kBindError) << cold;

  db_.plan_cache().set_capacity(capacity);
  ASSERT_TRUE(Query(kBound).ok());
  ASSERT_TRUE(Query(kBound).ok());
  EXPECT_EQ(stats_.plan_cache_hits, 1u);

  const Status warm = db_.Execute(kOther, nullptr, &stats_);
  EXPECT_EQ(stats_.plan_cache_hits, 0u);
  EXPECT_EQ(stats_.plan_cache_misses, 1u);
  EXPECT_EQ(warm.ToString(), cold.ToString());
}

TEST_F(PlanCacheTest, CachedAndColdResultsIdenticalOnCorpus) {
  // Each statement comes with a variant of other literals that runs on
  // the plan cached from the first ones.
  struct Case {
    const char* sql;
    const char* variant;
    // An unaliased item is named by its text, literals included, so its
    // variant may not reuse the cached plan.
    size_t variant_hits = 1;
  };
  const Case kCorpus[] = {
      {"SELECT name FROM t WHERE id = 2", "SELECT name FROM t WHERE id = 3"},
      {"SELECT COUNT(*), MIN(score) FROM t WHERE score > 1.5",
       "SELECT COUNT(*), MIN(score) FROM t WHERE score > 0.5"},
      {"SELECT id, name FROM t WHERE id IN (1, 3) ORDER BY 1",
       "SELECT id, name FROM t WHERE id IN (2, 9) ORDER BY 1"},
      {"SELECT name FROM t WHERE name LIKE 'b%'",
       "SELECT name FROM t WHERE name LIKE 'c%'"},
      {"SELECT id FROM t WHERE score BETWEEN 1.5 AND 2.5",
       "SELECT id FROM t WHERE score BETWEEN 0.5 AND 3.5"},
      {"SELECT a.name FROM t AS a JOIN t AS b ON a.id = b.id "
       "WHERE b.score > 2.0 ORDER BY 1",
       "SELECT a.name FROM t AS a JOIN t AS b ON a.id = b.id "
       "WHERE b.score > 0.5 ORDER BY 1"},
      {"WITH big AS (SELECT * FROM t WHERE score > 1.0) "
       "SELECT COUNT(*) FROM big WHERE id < 3",
       "WITH big AS (SELECT * FROM t WHERE score > 0.5) "
       "SELECT COUNT(*) FROM big WHERE id < 3"},
      {"SELECT name, CASE WHEN SUM(score) > 1.5 THEN 'hi' ELSE 'lo' END "
       "AS band FROM t GROUP BY name HAVING COUNT(*) IN (1, 2) "
       "AND MAX(id) BETWEEN 1 AND 2 AND name LIKE '_' ORDER BY 1",
       "SELECT name, CASE WHEN SUM(score) > 2.5 THEN 'top' ELSE 'low' END "
       "AS band FROM t GROUP BY name HAVING COUNT(*) IN (1, 3) "
       "AND MAX(id) BETWEEN 2 AND 3 AND name LIKE 'c%' ORDER BY 1"},
      // Homogenizing fillers projected batchwise from the cached plan
      // must carry the variant's literals.
      {"SELECT id, '' AS pad, CAST('1' AS INTEGER) AS n FROM t "
       "WHERE score > 0.5 UNION ALL SELECT id, name, 2 AS n FROM t",
       "SELECT id, 'z' AS pad, CAST('7' AS INTEGER) AS n FROM t "
       "WHERE score > 0.5 UNION ALL SELECT id, name, 3 AS n FROM t"},
      {"SELECT id + 1 FROM t", "SELECT id + 2 FROM t", 0},
      {"SELECT 'a' FROM t", "SELECT 'b' FROM t", 0},
  };
  auto run = [this](const char* sql) -> std::string {
    Result<ResultSet> rs = Query(sql);
    EXPECT_TRUE(rs.ok()) << sql << ": " << rs.status();
    return rs.ok() ? rs->ToString(10000) : std::string();
  };
  // Cold: a zero-capacity cache, so every statement parses and binds.
  const size_t capacity = db_.plan_cache().capacity();
  db_.plan_cache().set_capacity(0);
  std::vector<std::string> cold;
  std::vector<std::string> cold_variant;
  for (const Case& c : kCorpus) {
    cold.push_back(run(c.sql));
    cold_variant.push_back(run(c.variant));
  }
  // Warm: first pass populates, second pass must hit and agree, and so
  // must the variant.
  db_.plan_cache().set_capacity(capacity);
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < std::size(kCorpus); ++i) {
      EXPECT_EQ(run(kCorpus[i].sql), cold[i]) << kCorpus[i].sql;
      if (round == 0) continue;
      EXPECT_EQ(stats_.plan_cache_hits, 1u) << kCorpus[i].sql;
      EXPECT_EQ(run(kCorpus[i].variant), cold_variant[i])
          << kCorpus[i].variant;
      EXPECT_EQ(stats_.plan_cache_hits, kCorpus[i].variant_hits)
          << kCorpus[i].variant;
    }
  }
}

// --- Server boundary --------------------------------------------------------

TEST(PlanCacheServerTest, StatementLogRecordsHits) {
  DbServer server;
  ASSERT_TRUE(server.database()
                  .ExecuteScript(R"sql(
      CREATE TABLE t (id INTEGER, name VARCHAR);
      INSERT INTO t VALUES (1, 'a'), (2, 'b');
    )sql")
                  .ok());
  server.EnableStatementLog(true);
  ASSERT_TRUE(server.Execute("SELECT name FROM t WHERE id = 1", nullptr)
                  .ok());
  ASSERT_TRUE(server.Execute("SELECT name FROM t WHERE id = 2", nullptr)
                  .ok());
  ASSERT_EQ(server.statement_log().size(), 2u);
  EXPECT_FALSE(server.statement_log()[0].plan_cache_hit);
  EXPECT_TRUE(server.statement_log()[1].plan_cache_hit);
  EXPECT_GE(server.plan_cache_stats().hits, 1u);
  EXPECT_GE(server.plan_cache_stats().misses, 1u);
}

// --- Differential: three strategies, cached vs cold -------------------------

using model::ActionKind;
using model::StrategyKind;

client::ExperimentConfig SeedConfig() {
  client::ExperimentConfig config;
  config.generator.depth = 3;
  config.generator.branching = 3;
  config.generator.sigma = 0.6;
  return config;
}

void ExpectSameTree(const pdmsys::ProductTree& a,
                    const pdmsys::ProductTree& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (const pdmsys::ProductNode& node : a.nodes()) {
    std::optional<size_t> in_b = b.FindByObid(node.obid);
    ASSERT_TRUE(in_b.has_value()) << node.obid;
    const pdmsys::ProductNode& other = b.node(*in_b);
    if (node.parent.has_value()) {
      ASSERT_TRUE(other.parent.has_value());
      EXPECT_EQ(a.node(*node.parent).obid, b.node(*other.parent).obid);
    } else {
      EXPECT_FALSE(other.parent.has_value());
    }
  }
}

class StrategySweep : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(StrategySweep, CachedMatchesColdOnSeedProduct) {
  // Cold deployment: a zero-capacity plan cache end to end.
  Result<std::unique_ptr<client::Experiment>> cold_exp =
      client::Experiment::Create(SeedConfig());
  ASSERT_TRUE(cold_exp.ok()) << cold_exp.status();
  (*cold_exp)->server().database().plan_cache().set_capacity(0);

  // Warm deployment: cache on, every action run twice so the second run
  // executes fully from cached plans.
  Result<std::unique_ptr<client::Experiment>> warm_exp =
      client::Experiment::Create(SeedConfig());
  ASSERT_TRUE(warm_exp.ok()) << warm_exp.status();

  for (ActionKind action :
       {ActionKind::kSingleLevelExpand, ActionKind::kMultiLevelExpand}) {
    Result<client::ActionResult> cold =
        (*cold_exp)->RunAction(GetParam(), action);
    ASSERT_TRUE(cold.ok()) << cold.status();
    Result<client::ActionResult> first =
        (*warm_exp)->RunAction(GetParam(), action);
    ASSERT_TRUE(first.ok()) << first.status();
    Result<client::ActionResult> second =
        (*warm_exp)->RunAction(GetParam(), action);
    ASSERT_TRUE(second.ok()) << second.status();

    ExpectSameTree(cold->tree, first->tree);
    ExpectSameTree(cold->tree, second->tree);
    EXPECT_EQ(cold->visible_nodes, second->visible_nodes);
    // Byte-identical over the simulated wire as well.
    EXPECT_EQ(cold->transmitted_rows, second->transmitted_rows);
  }
  EXPECT_GT((*warm_exp)->server().plan_cache_stats().hits, 0u);
  EXPECT_EQ((*cold_exp)->server().plan_cache_stats().hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategySweep,
                         ::testing::Values(StrategyKind::kNavigationalLate,
                                           StrategyKind::kNavigationalEarly,
                                           StrategyKind::kRecursive));

}  // namespace
}  // namespace pdm
