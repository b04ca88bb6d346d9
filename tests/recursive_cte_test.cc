// Tests for recursive common table expressions: graph reachability,
// semi-naive vs naive equivalence, bag semantics, iteration limits.

#include <gtest/gtest.h>

#include "engine/database.h"
#include "query_with_stats.h"

namespace pdm {
namespace {

class RecursiveCteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.ExecuteScript(R"sql(
      CREATE TABLE edge (src INTEGER, dst INTEGER);
      INSERT INTO edge VALUES
        (1, 2), (2, 3), (3, 4), (4, 5),   -- a chain
        (1, 10), (10, 11),                -- a branch
        (20, 21), (21, 20);               -- a 2-cycle, disconnected
    )sql")
                    .ok());
  }

  ResultSet Q(const std::string& sql) {
    Result<ResultSet> result = QueryWithStats(db_, &stats_, sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status();
    return std::move(result).ValueOr(ResultSet{});
  }

  Database db_;
  ExecStats stats_;  // counters of the latest Q()
};

constexpr const char* kReachabilityFrom1 = R"sql(
  WITH RECURSIVE reach (node) AS (
    SELECT 1
    UNION
    SELECT edge.dst FROM reach JOIN edge ON reach.node = edge.src)
  SELECT node FROM reach ORDER BY 1
)sql";

TEST_F(RecursiveCteTest, Reachability) {
  ResultSet rs = Q(kReachabilityFrom1);
  ASSERT_EQ(rs.num_rows(), 7u);  // 1,2,3,4,5,10,11
  EXPECT_EQ(rs.At(0, 0).int64_value(), 1);
  EXPECT_EQ(rs.At(6, 0).int64_value(), 11);
}

TEST_F(RecursiveCteTest, CycleTerminatesUnderUnionDistinct) {
  ResultSet rs = Q(R"sql(
    WITH RECURSIVE reach (node) AS (
      SELECT 20
      UNION
      SELECT edge.dst FROM reach JOIN edge ON reach.node = edge.src)
    SELECT node FROM reach ORDER BY 1
  )sql");
  ASSERT_EQ(rs.num_rows(), 2u);  // 20 and 21 despite the cycle
}

TEST_F(RecursiveCteTest, CycleUnderUnionAllHitsIterationLimit) {
  db_.options().exec.max_recursion_iterations = 50;
  Result<ResultSet> result = db_.Query(R"sql(
    WITH RECURSIVE reach (node) AS (
      SELECT 20
      UNION ALL
      SELECT edge.dst FROM reach JOIN edge ON reach.node = edge.src)
    SELECT node FROM reach
  )sql");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(result.status().message().find("iterations"), std::string::npos);
}

TEST_F(RecursiveCteTest, UnionAllKeepsDuplicatePaths) {
  // Two distinct paths 1->2 (direct and via 30) produce 2 under ALL.
  ASSERT_TRUE(db_.Execute("INSERT INTO edge VALUES (1, 30), (30, 2)", nullptr)
                  .ok());
  ResultSet rs = Q(R"sql(
    WITH RECURSIVE reach (node) AS (
      SELECT 1
      UNION ALL
      SELECT edge.dst FROM reach JOIN edge ON reach.node = edge.src)
    SELECT COUNT(*) FROM reach WHERE node = 2
  )sql");
  EXPECT_EQ(rs.At(0, 0).int64_value(), 2);
}

TEST_F(RecursiveCteTest, SemiNaiveAndNaiveAgree) {
  ResultSet semi = Q(kReachabilityFrom1);
  size_t semi_iterations = stats_.recursion_iterations;

  db_.options().exec.semi_naive_recursion = false;
  ResultSet naive = Q(kReachabilityFrom1);
  size_t naive_rows = stats_.cte_rows_scanned;

  ASSERT_EQ(semi.num_rows(), naive.num_rows());
  for (size_t i = 0; i < semi.num_rows(); ++i) {
    EXPECT_EQ(semi.At(i, 0).int64_value(), naive.At(i, 0).int64_value());
  }
  EXPECT_GT(semi_iterations, 0u);
  EXPECT_GT(naive_rows, 0u);
}

TEST_F(RecursiveCteTest, DepthTrackingWithExpressions) {
  ResultSet rs = Q(R"sql(
    WITH RECURSIVE reach (node, depth) AS (
      SELECT 1, 0
      UNION
      SELECT edge.dst, reach.depth + 1
      FROM reach JOIN edge ON reach.node = edge.src)
    SELECT node, depth FROM reach ORDER BY 2, 1
  )sql");
  EXPECT_EQ(rs.At(0, 1).int64_value(), 0);
  // node 5 is at depth 4.
  EXPECT_EQ(rs.At(rs.num_rows() - 1, 0).int64_value(), 5);
  EXPECT_EQ(rs.At(rs.num_rows() - 1, 1).int64_value(), 4);
}

TEST_F(RecursiveCteTest, MultipleRecursiveTerms) {
  // Walk edges in both directions from node 3.
  ResultSet rs = Q(R"sql(
    WITH RECURSIVE reach (node) AS (
      SELECT 3
      UNION
      SELECT edge.dst FROM reach JOIN edge ON reach.node = edge.src
      UNION
      SELECT edge.src FROM reach JOIN edge ON reach.node = edge.dst)
    SELECT COUNT(*) FROM reach
  )sql");
  EXPECT_EQ(rs.At(0, 0).int64_value(), 7);  // whole weak component of 3
}

TEST_F(RecursiveCteTest, NonRecursiveCtesMaterializeOnceAndChain) {
  ResultSet rs = Q(R"sql(
    WITH big AS (SELECT src, dst FROM edge WHERE src < 10),
         bigger AS (SELECT dst FROM big WHERE dst > 2)
    SELECT COUNT(*) FROM bigger
  )sql");
  EXPECT_EQ(rs.At(0, 0).int64_value(), 4);  // 3,4,5,10
}

TEST_F(RecursiveCteTest, CteVisibleToSubqueries) {
  ResultSet rs = Q(R"sql(
    WITH RECURSIVE reach (node) AS (
      SELECT 1
      UNION
      SELECT edge.dst FROM reach JOIN edge ON reach.node = edge.src)
    SELECT COUNT(*) FROM edge
    WHERE src IN (SELECT node FROM reach)
      AND dst IN (SELECT node FROM reach)
  )sql");
  EXPECT_EQ(rs.At(0, 0).int64_value(), 6);
}

TEST_F(RecursiveCteTest, UncorrelatedSubqueryOverCteIsCached) {
  Q(R"sql(
    WITH RECURSIVE reach (node) AS (
      SELECT 1
      UNION
      SELECT edge.dst FROM reach JOIN edge ON reach.node = edge.src)
    SELECT node FROM reach
    WHERE NOT EXISTS (SELECT * FROM reach WHERE node > 1000)
  )sql");
  EXPECT_GT(stats_.subquery_cache_hits, 0u);
  EXPECT_LE(stats_.subquery_evaluations, 2u);
}

TEST_F(RecursiveCteTest, EmptySeedYieldsEmptyResult) {
  ResultSet rs = Q(R"sql(
    WITH RECURSIVE reach (node) AS (
      SELECT src FROM edge WHERE src = 999
      UNION
      SELECT edge.dst FROM reach JOIN edge ON reach.node = edge.src)
    SELECT * FROM reach
  )sql");
  EXPECT_EQ(rs.num_rows(), 0u);
}

TEST_F(RecursiveCteTest, LongChainScalesLinearlyInIterations) {
  ASSERT_TRUE(db_.Execute("DELETE FROM edge", nullptr).ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO edge VALUES (" +
                                std::to_string(i) + ", " +
                                std::to_string(i + 1) + ")",
                            nullptr)
                    .ok());
  }
  ResultSet rs = Q(R"sql(
    WITH RECURSIVE reach (node) AS (
      SELECT 0
      UNION
      SELECT edge.dst FROM reach JOIN edge ON reach.node = edge.src)
    SELECT COUNT(*) FROM reach
  )sql");
  EXPECT_EQ(rs.At(0, 0).int64_value(), 201);
  EXPECT_EQ(stats_.recursion_iterations, 201u);
}

}  // namespace
}  // namespace pdm
