#include "common/value.h"

#include <cmath>
#include <functional>
#include <sstream>

namespace pdm {

std::string_view ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNull:
      return "NULL";
    case ValueKind::kBool:
      return "BOOL";
    case ValueKind::kInt64:
      return "INT64";
    case ValueKind::kDouble:
      return "DOUBLE";
    case ValueKind::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

bool Value::Comparable(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return false;
  return ComparableKinds(a.kind(), b.kind());
}

bool Value::ComparableKinds(ValueKind a, ValueKind b) {
  auto numeric = [](ValueKind k) {
    return k == ValueKind::kInt64 || k == ValueKind::kDouble;
  };
  return a == b || (numeric(a) && numeric(b));
}

int Value::Compare(const Value& a, const Value& b) {
  // NULLs first, as a total order for sorting/grouping.
  if (a.is_null() && b.is_null()) return 0;
  if (a.is_null()) return -1;
  if (b.is_null()) return 1;
  if (a.is_numeric() && b.is_numeric()) {
    // Exact path when both are ints; avoids double rounding on large ids.
    if (a.is_int64() && b.is_int64()) {
      int64_t x = a.int64_value();
      int64_t y = b.int64_value();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    double x = a.AsDouble();
    double y = b.AsDouble();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a.kind() != b.kind()) {
    // Heterogeneous non-numeric values: order by kind tag. This keeps
    // Compare a total order for containers; the evaluator rejects such
    // comparisons before they get here.
    return static_cast<int>(a.kind()) < static_cast<int>(b.kind()) ? -1 : 1;
  }
  switch (a.kind()) {
    case ValueKind::kBool: {
      int x = a.bool_value() ? 1 : 0;
      int y = b.bool_value() ? 1 : 0;
      return x - y;
    }
    case ValueKind::kString:
      return a.string_value().compare(b.string_value()) < 0
                 ? -1
                 : (a.string_value() == b.string_value() ? 0 : 1);
    default:
      return 0;
  }
}

size_t Value::Hash() const {
  switch (kind()) {
    case ValueKind::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueKind::kBool:
      return bool_value() ? 0x853c49e6748fea9bULL : 0xda3e39cb94b95bdbULL;
    case ValueKind::kInt64:
      // Hash via double so 1 and 1.0 agree with Compare().
      return std::hash<double>()(static_cast<double>(int64_value()));
    case ValueKind::kDouble:
      return std::hash<double>()(double_value());
    case ValueKind::kString:
      return std::hash<std::string>()(string_value());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (kind()) {
    case ValueKind::kNull:
      return "NULL";
    case ValueKind::kBool:
      return bool_value() ? "TRUE" : "FALSE";
    case ValueKind::kInt64:
      return std::to_string(int64_value());
    case ValueKind::kDouble: {
      std::ostringstream os;
      os << double_value();
      return os.str();
    }
    case ValueKind::kString:
      return string_value();
  }
  return "";
}

std::string Value::ToSqlLiteral() const {
  if (is_string()) {
    std::string out = "'";
    for (char c : string_value()) {
      if (c == '\'') out += '\'';  // double the quote
      out += c;
    }
    out += "'";
    return out;
  }
  return ToString();
}

std::ostream& operator<<(std::ostream& os, const Value& value) {
  return os << value.ToString();
}

size_t HashRow(const Row& row) {
  size_t h = 0x811c9dc5ULL;
  for (const Value& v : row) {
    h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

bool RowsEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (Value::Compare(a[i], b[i]) != 0) return false;
    // Kind-sensitive tie-break: '1' (string) vs 1 (int) never equal.
    if (a[i].is_string() != b[i].is_string()) return false;
  }
  return true;
}

}  // namespace pdm
