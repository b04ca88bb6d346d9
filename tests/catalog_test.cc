// Unit tests for schemas, tables (incl. lazy column indexes) and the
// catalog.

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "catalog/catalog.h"
#include "table_test_peer.h"

namespace pdm {
namespace {

Schema TwoColumnSchema() {
  return Schema({Column{"id", ColumnType::kInt64},
                 Column{"name", ColumnType::kString}});
}

TEST(Schema, FindColumnIsCaseInsensitive) {
  Schema schema = TwoColumnSchema();
  EXPECT_EQ(schema.FindColumn("ID"), 0u);
  EXPECT_EQ(schema.FindColumn("Name"), 1u);
  EXPECT_FALSE(schema.FindColumn("missing").has_value());
}

TEST(Schema, ValidateRowChecksArityAndKinds) {
  Schema schema = TwoColumnSchema();
  EXPECT_TRUE(schema.ValidateRow({Value::Int64(1), Value::String("a")}).ok());
  EXPECT_TRUE(schema.ValidateRow({Value::Null(), Value::Null()}).ok());
  EXPECT_FALSE(schema.ValidateRow({Value::Int64(1)}).ok());
  EXPECT_FALSE(
      schema.ValidateRow({Value::String("x"), Value::String("a")}).ok());
}

TEST(Schema, IntWidensIntoDoubleColumns) {
  Schema schema({Column{"w", ColumnType::kDouble}});
  EXPECT_TRUE(schema.ValidateRow({Value::Int64(3)}).ok());
  EXPECT_FALSE(Schema({Column{"i", ColumnType::kInt64}})
                   .ValidateRow({Value::Double(3.5)})
                   .ok());
}

TEST(Schema, TypeNamesRoundTrip) {
  EXPECT_EQ(*ParseColumnType("integer"), ColumnType::kInt64);
  EXPECT_EQ(*ParseColumnType("VARCHAR"), ColumnType::kString);
  EXPECT_EQ(*ParseColumnType("Boolean"), ColumnType::kBool);
  EXPECT_EQ(*ParseColumnType("double"), ColumnType::kDouble);
  EXPECT_FALSE(ParseColumnType("blob").ok());
  EXPECT_EQ(Schema(TwoColumnSchema()).ToString(), "id INTEGER, name VARCHAR");
}

TEST(Table, InsertValidatesAgainstSchema) {
  Table table("t", TwoColumnSchema());
  EXPECT_TRUE(table.Insert({Value::Int64(1), Value::String("a")}).ok());
  Status bad = table.Insert({Value::String("x"), Value::String("a")});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST(Table, UpdateAndDeleteRows) {
  Table table("t", TwoColumnSchema());
  for (int i = 0; i < 10; ++i) {
    table.InsertUnchecked({Value::Int64(i), Value::String("n")});
  }
  size_t updated = table.UpdateRows(
      [](const Row& row) { return row[0].int64_value() % 2 == 0; },
      [](Row& row) { row[1] = Value::String("even"); },
      /*write_ts=*/1);
  EXPECT_EQ(updated, 5u);
  size_t deleted = table.DeleteRows(
      [](const Row& row) { return row[1].string_value() == "even"; },
      /*write_ts=*/2);
  EXPECT_EQ(deleted, 5u);
  EXPECT_EQ(table.num_rows(), 5u);

  // Old versions are still there for older snapshots; GC at the full
  // horizon prunes exactly the dead ones.
  EXPECT_EQ(table.SnapshotRows(/*ts=*/0).size(), 10u);
  EXPECT_EQ(table.SnapshotRows(/*ts=*/1).size(), 10u);  // 5 odd + 5 even
  EXPECT_EQ(table.SnapshotRows(/*ts=*/2).size(), 5u);
  EXPECT_EQ(table.PruneVersions(/*horizon=*/2), 10u);
  EXPECT_EQ(table.num_rows(), 5u);
  EXPECT_EQ(table.num_versions(), 5u);
}

/// Positions IndexLookup returns for `keys` on `column`.
std::vector<size_t> Lookup(const Table& table, size_t column,
                           std::vector<Value> keys) {
  std::vector<size_t> out;
  table.IndexLookup(column, keys, &out);
  return out;
}

TEST(Table, ZeroMatchDmlKeepsIndexesFresh) {
  Table table("t", TwoColumnSchema());
  for (int i = 0; i < 4; ++i) {
    table.InsertUnchecked({Value::Int64(i), Value::String("n")});
  }
  (void)Lookup(table, 0, {Value::Int64(0)});
  ASSERT_TRUE(table.HasFreshIndex(0));

  size_t updated = table.UpdateRows(
      [](const Row& row) { return row[0].int64_value() > 100; },
      [](Row& row) { row[1] = Value::String("x"); },
      /*write_ts=*/1);
  EXPECT_EQ(updated, 0u);
  EXPECT_TRUE(table.HasFreshIndex(0));

  size_t deleted = table.DeleteRows(
      [](const Row& row) { return row[0].int64_value() > 100; },
      /*write_ts=*/2);
  EXPECT_EQ(deleted, 0u);
  EXPECT_TRUE(table.HasFreshIndex(0));
}

TEST(Table, ColumnIndexFindsRowPositions) {
  Table table("t", TwoColumnSchema());
  for (int i = 0; i < 100; ++i) {
    table.InsertUnchecked({Value::Int64(i % 10), Value::String("n")});
  }
  const std::vector<size_t> positions = Lookup(table, 0, {Value::Int64(3)});
  ASSERT_EQ(positions.size(), 10u);
  for (size_t pos : positions) {
    EXPECT_EQ(table.VersionData(pos)[0].int64_value(), 3);
  }
  EXPECT_TRUE(std::is_sorted(positions.begin(), positions.end()));
}

TEST(Table, IndexSkipsNullsAndInvalidatesOnMutation) {
  Table table("t", TwoColumnSchema());
  table.InsertUnchecked({Value::Null(), Value::String("a")});
  table.InsertUnchecked({Value::Int64(1), Value::String("b")});
  EXPECT_TRUE(Lookup(table, 0, {Value::Null()}).empty());  // NULL not indexed
  EXPECT_EQ(table.FreshIndexCount(0, std::vector<Value>{Value::Null(),
                                                        Value::Int64(1)}),
            1u);

  table.InsertUnchecked({Value::Int64(1), Value::String("c")});
  EXPECT_EQ(Lookup(table, 0, {Value::Int64(1)}), (std::vector<size_t>{1, 2}));
}

TEST(Catalog, CreateFindDrop) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("Assy", TwoColumnSchema()).ok());
  EXPECT_TRUE(catalog.HasTable("assy"));  // case-insensitive
  EXPECT_NE(catalog.FindTable("ASSY"), nullptr);

  Status dup = catalog.CreateTable("assy", TwoColumnSchema());
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(
      catalog.CreateTable("assy", TwoColumnSchema(), /*if_not_exists=*/true)
          .ok());

  EXPECT_TRUE(catalog.DropTable("assy").ok());
  EXPECT_EQ(catalog.DropTable("assy").code(), StatusCode::kNotFound);
  EXPECT_TRUE(catalog.DropTable("assy", /*if_exists=*/true).ok());
}

TEST(Catalog, TableNamesSorted) {
  Catalog catalog;
  ASSERT_TRUE(catalog.CreateTable("zeta", TwoColumnSchema()).ok());
  ASSERT_TRUE(catalog.CreateTable("alpha", TwoColumnSchema()).ok());
  std::vector<std::string> names = catalog.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

TEST(Catalog, GetTableReturnsNotFound) {
  Catalog catalog;
  Result<Table*> missing = catalog.GetTable("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// --- Column index keys and freshness ----------------------------------------

Schema AnyColumnSchema() {
  return Schema({Column{"k", ColumnType::kInt64}});
}

TEST(TableIndex, KeysFollowValueEq) {
  // An all-int column keeps the int64 map; probes follow ValueEq.
  Table ints("ints", AnyColumnSchema());
  ints.InsertUnchecked({Value::Int64(5)});
  ints.InsertUnchecked({Value::Int64(6)});
  ints.InsertUnchecked({Value::Int64(5)});
  EXPECT_EQ(Lookup(ints, 0, {Value::Int64(5)}), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(Lookup(ints, 0, {Value::Double(5.0)}),
            (std::vector<size_t>{0, 2}));
  EXPECT_TRUE(Lookup(ints, 0, {Value::String("5")}).empty());
  EXPECT_TRUE(Lookup(ints, 0, {Value::Double(5.5)}).empty());
  EXPECT_TRUE(Lookup(ints, 0, {Value::Bool(true)}).empty());
  EXPECT_TRUE(TableTestPeer::Int64Keyed(ints, 0));

  // 5, 5.0 and '5' in one column (InsertUnchecked skips type checks):
  // the index demotes to Value keys; 5 and 5.0 are one key, '5' another.
  Table mixed("mixed", AnyColumnSchema());
  mixed.InsertUnchecked({Value::Int64(5)});
  mixed.InsertUnchecked({Value::Double(5.0)});
  mixed.InsertUnchecked({Value::String("5")});
  EXPECT_EQ(Lookup(mixed, 0, {Value::Int64(5)}), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(Lookup(mixed, 0, {Value::Double(5.0)}),
            (std::vector<size_t>{0, 1}));
  EXPECT_EQ(Lookup(mixed, 0, {Value::String("5")}), (std::vector<size_t>{2}));
  EXPECT_FALSE(TableTestPeer::Int64Keyed(mixed, 0));
}

TEST(TableIndex, SeveralKeysComeBackAscendingWithoutDuplicates) {
  Table table("t", AnyColumnSchema());
  for (int64_t k : {3, 1, 2, 3, 1, 2}) table.InsertUnchecked({Value::Int64(k)});
  // 3 and 3.0 are the same key; NULL keys match nothing.
  const std::vector<Value> keys = {Value::Int64(3), Value::Int64(1),
                                   Value::Double(3.0), Value::Null()};
  EXPECT_EQ(Lookup(table, 0, keys), (std::vector<size_t>{0, 1, 3, 4}));
  EXPECT_TRUE(Lookup(table, 0, {}).empty());
}

TEST(TableIndex, ExactInt64RangeEdges) {
  const int64_t kMax = (int64_t{1} << 53) - 1;
  Table table("t", AnyColumnSchema());
  table.InsertUnchecked({Value::Int64(kMax)});
  table.InsertUnchecked({Value::Int64(-kMax)});
  table.InsertUnchecked({Value::Null()});
  EXPECT_EQ(Lookup(table, 0, {Value::Int64(kMax)}), (std::vector<size_t>{0}));
  EXPECT_EQ(Lookup(table, 0, {Value::Double(static_cast<double>(kMax))}),
            (std::vector<size_t>{0}));
  EXPECT_EQ(Lookup(table, 0, {Value::Double(static_cast<double>(-kMax))}),
            (std::vector<size_t>{1}));
  // 2^53 as a double is not exact-int64 probeable, and no key holds it.
  EXPECT_TRUE(
      Lookup(table, 0, {Value::Double(static_cast<double>(kMax + 1))})
          .empty());
  EXPECT_TRUE(Lookup(table, 0, {Value::Null()}).empty());  // NULLs skipped
  EXPECT_TRUE(TableTestPeer::Int64Keyed(table, 0));
}

TEST(TableIndex, DemotesAt2To53MidBuild) {
  const int64_t k2to53 = int64_t{1} << 53;
  Table table("t", AnyColumnSchema());
  table.InsertUnchecked({Value::Int64(1)});
  table.InsertUnchecked({Value::Int64(k2to53)});
  table.InsertUnchecked({Value::Int64(1)});
  EXPECT_EQ(Lookup(table, 0, {Value::Int64(1)}), (std::vector<size_t>{0, 2}));
  EXPECT_FALSE(TableTestPeer::Int64Keyed(table, 0));
  EXPECT_EQ(Lookup(table, 0, {Value::Int64(k2to53)}),
            (std::vector<size_t>{1}));
  // Above 2^53 doubles are coarse: 2^53 + 1 is a different int64 but
  // rounds to the same double, exactly as ValueEq says.
  EXPECT_TRUE(Lookup(table, 0, {Value::Int64(k2to53 + 1)}).empty());
  EXPECT_EQ(Lookup(table, 0, {Value::Double(static_cast<double>(k2to53))}),
            (std::vector<size_t>{1}));
}

TEST(TableIndex, DemotesOnAppendAndStaysFresh) {
  const int64_t k2to53 = int64_t{1} << 53;
  Table table("t", AnyColumnSchema());
  table.InsertUnchecked({Value::Int64(-k2to53 + 1)});
  table.InsertUnchecked({Value::Int64(7)});
  EXPECT_EQ(Lookup(table, 0, {Value::Int64(7)}), (std::vector<size_t>{1}));
  ASSERT_TRUE(TableTestPeer::Int64Keyed(table, 0));

  table.InsertUnchecked({Value::Int64(-k2to53)});  // maintained in place
  EXPECT_TRUE(table.HasFreshIndex(0));
  EXPECT_FALSE(TableTestPeer::Int64Keyed(table, 0));
  table.InsertUnchecked({Value::Int64(7)});
  EXPECT_EQ(Lookup(table, 0, {Value::Int64(7)}), (std::vector<size_t>{1, 3}));
  EXPECT_EQ(Lookup(table, 0, {Value::Int64(-k2to53)}),
            (std::vector<size_t>{2}));
  EXPECT_EQ(Lookup(table, 0, {Value::Int64(-k2to53 + 1)}),
            (std::vector<size_t>{0}));
}

TEST(TableIndex, FreshIndexCountNeverBuilds) {
  Table table("t", AnyColumnSchema());
  for (int64_t k : {4, 4, 9}) table.InsertUnchecked({Value::Int64(k)});
  const std::vector<Value> keys = {Value::Int64(4), Value::Int64(9)};
  EXPECT_FALSE(table.FreshIndexCount(0, keys).has_value());
  EXPECT_FALSE(table.HasFreshIndex(0));
  (void)Lookup(table, 0, keys);
  EXPECT_EQ(table.FreshIndexCount(0, keys), 3u);
}

TEST(TableIndex, RebuildDuringAnUnpublishedAppendKeepsTheRow) {
  // An append maintains indexes, then publishes. A lookup that
  // rebuilds the index in between must cover the appended position:
  // the rebuild's freshness stamp already counts it, so a rebuild that
  // stopped at the published bound would lose the row for good.
  Table table("t", TwoColumnSchema());
  for (int i = 0; i < 3; ++i) {
    table.InsertUnchecked({Value::Int64(i), Value::String("n")});
  }
  const size_t pos = TableTestPeer::AppendUnpublished(
      &table, {Value::Int64(7), Value::String("late")});
  std::vector<size_t> during;
  std::thread reader([&] {
    table.IndexLookup(0, std::vector<Value>{Value::Int64(7)}, &during);
  });
  reader.join();
  ASSERT_TRUE(table.HasFreshIndex(0));
  EXPECT_EQ(during, (std::vector<size_t>{pos}));
  EXPECT_FALSE(table.VisibleAt(pos, /*ts=*/0));  // not yet published

  TableTestPeer::Publish(&table, pos);
  EXPECT_EQ(Lookup(table, 0, {Value::Int64(7)}), (std::vector<size_t>{pos}));
  EXPECT_TRUE(table.VisibleAt(pos, /*ts=*/0));
}

TEST(TableIndex, RebuildAfterGcCoversTheCompactedVersions) {
  Table table("t", TwoColumnSchema());
  for (int i = 0; i < 6; ++i) {
    table.InsertUnchecked({Value::Int64(i % 2), Value::String("n")});
  }
  EXPECT_EQ(Lookup(table, 0, {Value::Int64(1)}),
            (std::vector<size_t>{1, 3, 5}));
  table.DeleteRows([](const Row& row) { return row[0].int64_value() == 0; },
                   /*write_ts=*/1);
  ASSERT_EQ(table.PruneVersions(/*horizon=*/1), 3u);
  EXPECT_FALSE(table.HasFreshIndex(0));
  EXPECT_EQ(Lookup(table, 0, {Value::Int64(1)}),
            (std::vector<size_t>{0, 1, 2}));
  table.InsertUnchecked({Value::Int64(1), Value::String("n")});
  EXPECT_EQ(Lookup(table, 0, {Value::Int64(1)}),
            (std::vector<size_t>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace pdm
