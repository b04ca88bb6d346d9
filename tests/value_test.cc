// Unit tests for Value, row hashing/equality and the string utilities.

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "common/string_util.h"
#include "common/value.h"

namespace pdm {
namespace {

TEST(Value, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_EQ(Value::Int64(42).int64_value(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("abc").string_value(), "abc");
  EXPECT_TRUE(Value::Int64(1).is_numeric());
  EXPECT_TRUE(Value::Double(1).is_numeric());
  EXPECT_FALSE(Value::String("1").is_numeric());
}

TEST(Value, CrossKindNumericComparison) {
  EXPECT_TRUE(Value::Comparable(Value::Int64(1), Value::Double(1.0)));
  EXPECT_EQ(Value::Compare(Value::Int64(1), Value::Double(1.0)), 0);
  EXPECT_LT(Value::Compare(Value::Int64(1), Value::Double(1.5)), 0);
  EXPECT_GT(Value::Compare(Value::Double(2.5), Value::Int64(2)), 0);
}

TEST(Value, LargeIntegersCompareExactly) {
  // 2^53 + 1 is not representable as double; the int fast path must not
  // round.
  int64_t big = (1LL << 53) + 1;
  EXPECT_GT(Value::Compare(Value::Int64(big), Value::Int64(1LL << 53)), 0);
}

TEST(Value, StringsAndNumbersNeverEqual) {
  EXPECT_FALSE(Value::Comparable(Value::String("1"), Value::Int64(1)));
  Row a{Value::String("1")};
  Row b{Value::Int64(1)};
  EXPECT_FALSE(RowsEqual(a, b));
}

TEST(Value, NullOrderingAndEquality) {
  EXPECT_EQ(Value::Compare(Value::Null(), Value::Null()), 0);
  EXPECT_LT(Value::Compare(Value::Null(), Value::Int64(-100)), 0);
  // Rows with NULLs compare equal for grouping/DISTINCT purposes.
  Row a{Value::Null(), Value::Int64(1)};
  Row b{Value::Null(), Value::Int64(1)};
  EXPECT_TRUE(RowsEqual(a, b));
  EXPECT_EQ(HashRow(a), HashRow(b));
}

TEST(Value, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int64(7).Hash(), Value::Double(7.0).Hash());
  std::unordered_set<Value, ValueHash, ValueEq> set;
  set.insert(Value::Int64(7));
  EXPECT_EQ(set.count(Value::Double(7.0)), 1u);
  EXPECT_EQ(set.count(Value::String("7")), 0u);
}

TEST(Value, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(true).ToString(), "TRUE");
  EXPECT_EQ(Value::Int64(-5).ToString(), "-5");
  EXPECT_EQ(Value::String("x").ToString(), "x");
}

TEST(Value, SqlLiteralEscaping) {
  EXPECT_EQ(Value::String("it's").ToSqlLiteral(), "'it''s'");
  EXPECT_EQ(Value::Int64(3).ToSqlLiteral(), "3");
  EXPECT_EQ(Value::Null().ToSqlLiteral(), "NULL");
}

TEST(Value, WireSizes) {
  EXPECT_EQ(Value::Null().WireSize(), 1u);
  EXPECT_EQ(Value::Int64(1).WireSize(), 8u);
  EXPECT_EQ(Value::String("abcd").WireSize(), 6u);  // 2 + 4
}

TEST(Value, CopyAssignmentAcrossKinds) {
  static_assert(std::is_nothrow_move_constructible_v<Value>);
  static_assert(std::is_nothrow_move_assignable_v<Value>);
  const std::vector<Value> kinds = {
      Value::Null(), Value::Bool(true), Value::Int64(-7), Value::Double(2.5),
      Value::String("a string longer than the small-string buffer")};
  for (const Value& target : kinds) {
    for (const Value& source : kinds) {
      Value slot = target;
      slot = source;
      EXPECT_EQ(slot.kind(), source.kind());
      EXPECT_EQ(slot.ToSqlLiteral(), source.ToSqlLiteral());
    }
  }
  // String into string assigns in place, keeping the slot's buffer.
  Value slot = Value::String(std::string(64, 'x'));
  const char* buffer = slot.string_value().data();
  const Value copy = Value::String("short too");
  slot = copy;
  EXPECT_EQ(slot.string_value(), "short too");
  EXPECT_EQ(slot.string_value().data(), buffer);
  Value& self = slot;
  slot = self;
  EXPECT_EQ(slot.string_value(), "short too");
}

TEST(StringUtil, CaseMapping) {
  EXPECT_EQ(ToLowerAscii("AbC_9"), "abc_9");
  EXPECT_EQ(ToUpperAscii("aBc"), "ABC");
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
}

TEST(StringUtil, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  std::vector<std::string> parts = Split("a;;b", ';');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringUtil, Strip) {
  EXPECT_EQ(StripAscii("  x \n"), "x");
  EXPECT_EQ(StripAscii("\t\t"), "");
}

TEST(StringUtil, LikeMatching) {
  EXPECT_TRUE(SqlLikeMatch("Assy42", "Assy%"));
  EXPECT_TRUE(SqlLikeMatch("Assy42", "%42"));
  EXPECT_TRUE(SqlLikeMatch("Assy42", "A__y42"));
  EXPECT_TRUE(SqlLikeMatch("abc", "%"));
  EXPECT_TRUE(SqlLikeMatch("", "%"));
  EXPECT_TRUE(SqlLikeMatch("abc", "a%b%c"));
  EXPECT_FALSE(SqlLikeMatch("abc", "a_c_"));
  EXPECT_FALSE(SqlLikeMatch("abc", "b%"));
  EXPECT_FALSE(SqlLikeMatch("", "_"));
  // Backtracking case: '%' must be able to give characters back.
  EXPECT_TRUE(SqlLikeMatch("aXbYb", "a%b"));
}

TEST(StringUtil, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 4, "x"), "4-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

}  // namespace
}  // namespace pdm
