// Tests for the product generator: determinism, shape invariants, σ
// realization, link calibration — including parameterized sweeps over
// the (α, ω, σ) space.

#include <gtest/gtest.h>

#include "engine/database.h"
#include "common/string_util.h"
#include "pdm/generator.h"
#include "pdm/pdm_schema.h"

namespace pdm::pdmsys {
namespace {

GeneratedProduct MustGenerate(Database* db, const GeneratorConfig& config) {
  Result<GeneratedProduct> product = GenerateProduct(db, config);
  EXPECT_TRUE(product.ok()) << product.status();
  return std::move(product).ValueOr(GeneratedProduct{});
}

TEST(Generator, RejectsBadParameters) {
  Database db;
  GeneratorConfig config;
  config.depth = 0;
  EXPECT_FALSE(GenerateProduct(&db, config).ok());
  config.depth = 2;
  config.sigma = 1.5;
  EXPECT_FALSE(GenerateProduct(&db, config).ok());
}

TEST(Generator, DeterministicForSameSeed) {
  GeneratorConfig config;
  config.depth = 3;
  config.branching = 4;
  config.seed = 99;
  Database db1;
  Database db2;
  GeneratedProduct p1 = MustGenerate(&db1, config);
  GeneratedProduct p2 = MustGenerate(&db2, config);
  EXPECT_EQ(p1.visible_nodes, p2.visible_nodes);
  Result<ResultSet> a = db1.Query("SELECT * FROM assy ORDER BY 2");
  Result<ResultSet> b = db2.Query("SELECT * FROM assy ORDER BY 2");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->num_rows(), b->num_rows());
  for (size_t i = 0; i < a->num_rows(); ++i) {
    EXPECT_TRUE(RowsEqual(a->rows[i], b->rows[i])) << i;
  }
}

TEST(Generator, LinkAttributesCalibratedToVisibility) {
  Database db;
  GeneratorConfig config;
  config.depth = 3;
  config.branching = 4;
  config.sigma = 0.5;
  GeneratedProduct product = MustGenerate(&db, config);

  // Every link whose endpoints are both visible must pass the user's
  // effectivity window and option mask; children marked invisible under
  // a visible parent must fail one of the two.
  std::string probe = StrFormat(
      "SELECT COUNT(*) FROM link JOIN assy ON link.left = assy.obid "
      "JOIN comp ON link.right = comp.obid "
      "WHERE assy.acc = '+' AND comp.acc = '+' "
      "AND NOT (link.eff_from <= %lld AND link.eff_to >= %lld "
      "AND BITAND(link.strc_opt, %lld) <> 0)",
      static_cast<long long>(config.user.eff_to),
      static_cast<long long>(config.user.eff_from),
      static_cast<long long>(config.user.strc_opt));
  Result<ResultSet> bad = db.Query(probe);
  ASSERT_TRUE(bad.ok()) << bad.status();
  EXPECT_EQ(bad->At(0, 0).int64_value(), 0);
  EXPECT_GT(product.visible_nodes, 0u);
}

TEST(Generator, AppendsSecondProductWithFreshIds) {
  Database db;
  GeneratorConfig config;
  config.depth = 2;
  config.branching = 2;
  GeneratedProduct first = MustGenerate(&db, config);
  GeneratedProduct second = MustGenerate(&db, config);
  EXPECT_NE(first.root_obid, second.root_obid);
  Result<ResultSet> dups = db.Query(
      "SELECT obid, COUNT(*) FROM assy GROUP BY obid HAVING COUNT(*) > 1");
  ASSERT_TRUE(dups.ok());
  EXPECT_EQ(dups->num_rows(), 0u);
}

TEST(Generator, SpecsAttachOnlyToComponents) {
  Database db;
  GeneratorConfig config;
  config.depth = 3;
  config.branching = 3;
  config.spec_fraction = 1.0;
  GeneratedProduct product = MustGenerate(&db, config);
  EXPECT_EQ(product.num_specs, product.num_components);
  Result<ResultSet> orphans = db.Query(
      "SELECT COUNT(*) FROM specified_by WHERE left NOT IN "
      "(SELECT obid FROM comp)");
  ASSERT_TRUE(orphans.ok());
  EXPECT_EQ(orphans->At(0, 0).int64_value(), 0);
}

// --- Parameterized sweep over tree shapes -----------------------------------

struct ShapeCase {
  int depth;
  int branching;
  double sigma;
};

class GeneratorShapeSweep : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(GeneratorShapeSweep, ShapeInvariantsHold) {
  const ShapeCase& param = GetParam();
  Database db;
  GeneratorConfig config;
  config.depth = param.depth;
  config.branching = param.branching;
  config.sigma = param.sigma;
  GeneratedProduct product = MustGenerate(&db, config);

  // Complete ω-ary tree arithmetic.
  size_t expected_nodes = 0;
  size_t level = 1;
  for (int i = 1; i <= param.depth; ++i) {
    level *= static_cast<size_t>(param.branching);
    expected_nodes += level;
  }
  EXPECT_EQ(product.total_nodes, expected_nodes);
  EXPECT_EQ(product.total_links, expected_nodes);
  EXPECT_EQ(product.num_assemblies + product.num_components,
            expected_nodes + 1);
  // Leaves are components, internals assemblies.
  EXPECT_EQ(product.num_components, level);

  // Visibility never exceeds the level population, composes downward,
  // and is within ±1 per level of the σ expectation for error diffusion.
  double expectation = 1;
  for (int i = 1; i <= param.depth; ++i) {
    size_t vis = product.visible_per_level[static_cast<size_t>(i)];
    EXPECT_LE(vis, product.nodes_per_level[static_cast<size_t>(i)]);
    expectation = product.visible_per_level[static_cast<size_t>(i - 1)] *
                  param.sigma * param.branching;
    if (i == 1) expectation = param.sigma * param.branching;
    EXPECT_NEAR(static_cast<double>(vis), expectation, 1.0)
        << "level " << i;
  }

  // The database tables agree with the summary counts.
  EXPECT_EQ(static_cast<size_t>(
                db.Query("SELECT COUNT(*) FROM assy")->At(0, 0).int64_value()),
            product.num_assemblies);
  EXPECT_EQ(static_cast<size_t>(
                db.Query("SELECT COUNT(*) FROM comp")->At(0, 0).int64_value()),
            product.num_components);
  EXPECT_EQ(static_cast<size_t>(
                db.Query("SELECT COUNT(*) FROM link")->At(0, 0).int64_value()),
            product.total_links);
  // acc flags match the visible count (+1 for the root).
  int64_t acc_plus =
      db.Query("SELECT COUNT(*) FROM assy WHERE acc = '+'")->At(0, 0)
          .int64_value() +
      db.Query("SELECT COUNT(*) FROM comp WHERE acc = '+'")->At(0, 0)
          .int64_value();
  EXPECT_EQ(static_cast<size_t>(acc_plus), product.visible_nodes + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeneratorShapeSweep,
    ::testing::Values(ShapeCase{1, 1, 1.0}, ShapeCase{1, 8, 0.5},
                      ShapeCase{2, 3, 0.0}, ShapeCase{3, 4, 0.5},
                      ShapeCase{3, 9, 0.6}, ShapeCase{4, 3, 0.33},
                      ShapeCase{5, 2, 0.8}, ShapeCase{6, 2, 1.0},
                      ShapeCase{2, 10, 0.25}),
    [](const ::testing::TestParamInfo<ShapeCase>& info) {
      return StrFormat("d%db%ds%d", info.param.depth, info.param.branching,
                       static_cast<int>(info.param.sigma * 100));
    });

TEST(Generator, BernoulliModeApproximatesSigma) {
  Database db;
  GeneratorConfig config;
  config.depth = 2;
  config.branching = 40;  // 1640 links
  config.sigma = 0.5;
  config.sigma_mode = GeneratorConfig::SigmaMode::kBernoulli;
  config.seed = 4;
  GeneratedProduct product = MustGenerate(&db, config);
  double level1 = static_cast<double>(product.visible_per_level[1]);
  EXPECT_NEAR(level1 / 40.0, 0.5, 0.2);
}

}  // namespace
}  // namespace pdm::pdmsys
