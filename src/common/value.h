#ifndef PDM_COMMON_VALUE_H_
#define PDM_COMMON_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace pdm {

/// Runtime type tag of a Value. NULL is modeled as its own kind so that a
/// Value is self-describing (three-valued logic lives in the expression
/// evaluator, see exec/expr_eval.h).
enum class ValueKind {
  kNull = 0,
  kBool,
  kInt64,
  kDouble,
  kString,
};

std::string_view ValueKindName(ValueKind kind);

/// A dynamically typed SQL value. Small, copyable, ordered and hashable;
/// used for table cells, expression results and wire serialization.
class Value {
 public:
  /// Constructs SQL NULL.
  Value() : data_(std::monostate{}) {}

  Value(const Value&) = default;
  Value(Value&&) noexcept = default;
  Value& operator=(Value&&) noexcept = default;
  /// Assigns in place when both sides hold strings (the target keeps its
  /// buffer) and constructs the new alternative directly otherwise: the
  /// defaulted assignment would copy a string into a different kind of
  /// slot through a temporary, std::string's copy not being noexcept.
  Value& operator=(const Value& other) {
    if (const std::string* s = std::get_if<std::string>(&other.data_)) {
      SetString(*s);
    } else {
      data_ = other.data_;  // scalar alternatives copy without throwing
    }
    return *this;
  }

  static Value Null() { return Value(); }
  // Each factory constructs its alternative in place: building a
  // Payload temporary and moving it in makes GCC 12's sanitizer builds
  // report -Wmaybe-uninitialized on the temporary's string member.
  static Value Bool(bool v) { return Value(std::in_place_type<bool>, v); }
  static Value Int64(int64_t v) {
    return Value(std::in_place_type<int64_t>, v);
  }
  static Value Double(double v) {
    return Value(std::in_place_type<double>, v);
  }
  static Value String(std::string v) {
    return Value(std::in_place_type<std::string>, std::move(v));
  }
  static Value String(const char* v) { return String(std::string(v)); }

  ValueKind kind() const { return static_cast<ValueKind>(data_.index()); }
  bool is_null() const { return kind() == ValueKind::kNull; }
  bool is_bool() const { return kind() == ValueKind::kBool; }
  bool is_int64() const { return kind() == ValueKind::kInt64; }
  bool is_double() const { return kind() == ValueKind::kDouble; }
  bool is_string() const { return kind() == ValueKind::kString; }
  bool is_numeric() const { return is_int64() || is_double(); }

  /// Accessors; the caller must check the kind first.
  bool bool_value() const { return std::get<bool>(data_); }
  int64_t int64_value() const { return std::get<int64_t>(data_); }
  double double_value() const { return std::get<double>(data_); }
  const std::string& string_value() const {
    return std::get<std::string>(data_);
  }

  /// Numeric value widened to double (valid for INT64 and DOUBLE).
  double AsDouble() const {
    return is_int64() ? static_cast<double>(int64_value()) : double_value();
  }

  // In-place mutation, used by hot materialization loops that recycle a
  // scratch Row instead of constructing fresh Values: SetString keeps
  // the existing heap buffer when the slot already holds a string.
  void SetNull() { data_ = std::monostate{}; }
  void SetBool(bool v) { data_ = v; }
  void SetInt64(int64_t v) { data_ = v; }
  void SetDouble(double v) { data_ = v; }
  void SetString(const std::string& v) {
    if (std::string* s = std::get_if<std::string>(&data_)) {
      *s = v;  // reuse capacity
    } else {
      data_.emplace<std::string>(v);
    }
  }

  /// Moves the string payload out (caller must know kind() == kString);
  /// the Value is left holding a moved-from string.
  std::string ReleaseString() {
    return std::move(std::get<std::string>(data_));
  }

  /// True if `a` and `b` are comparable: same kind, or both numeric.
  static bool Comparable(const Value& a, const Value& b);
  /// True if non-NULL values of kinds `a` and `b` are comparable.
  static bool ComparableKinds(ValueKind a, ValueKind b);

  /// Three-way comparison for comparable non-NULL values:
  /// -1, 0, +1. NULLs order first (used only for ORDER BY / DISTINCT,
  /// where SQL NULL grouping applies; predicate NULL semantics are
  /// handled by the evaluator).
  static int Compare(const Value& a, const Value& b);

  /// Structural equality (NULL == NULL here; this is *identity*, used by
  /// containers — SQL equality is in the evaluator).
  friend bool operator==(const Value& a, const Value& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }
  friend bool operator<(const Value& a, const Value& b) {
    return Compare(a, b) < 0;
  }

  /// Stable hash consistent with operator== (numerics hash by double
  /// value so 1 and 1.0 collide, matching Compare).
  size_t Hash() const;

  /// Display form: NULL -> "NULL", strings unquoted.
  std::string ToString() const;

  /// SQL literal form: strings quoted with '' escaping, bools as
  /// TRUE/FALSE. Round-trips through the parser.
  std::string ToSqlLiteral() const;

  /// Approximate serialized size in bytes on the simulated wire. Inline:
  /// the engine sums it over every cell of a result as it produces rows.
  size_t WireSize() const {
    switch (kind()) {
      case ValueKind::kNull:
      case ValueKind::kBool:
        return 1;
      case ValueKind::kInt64:
      case ValueKind::kDouble:
        return 8;
      case ValueKind::kString:
        return 2 + string_value().size();  // length prefix + payload
    }
    return 1;
  }

 private:
  using Payload =
      std::variant<std::monostate, bool, int64_t, double, std::string>;
  template <typename T, typename Arg>
  Value(std::in_place_type_t<T> type, Arg&& arg)
      : data_(type, std::forward<Arg>(arg)) {}

  Payload data_;
};

std::ostream& operator<<(std::ostream& os, const Value& value);

/// A row is a flat vector of values; schemas (catalog/schema.h) give the
/// positions meaning.
using Row = std::vector<Value>;

/// Which columns of a row its reader needs (bind-time column liveness,
/// DESIGN.md 5o): mask[i] set means column i is live. Empty means every
/// column is live, so a plan no liveness pass annotated reads whole rows.
using ColumnMask = std::vector<bool>;

inline bool IsLive(const ColumnMask& mask, size_t column) {
  return mask.empty() || mask[column];
}

/// Hash of a full row, for GROUP BY / DISTINCT / UNION.
size_t HashRow(const Row& row);

/// Identity-equality of full rows (NULLs compare equal, as in UNION
/// DISTINCT / GROUP BY semantics).
bool RowsEqual(const Row& a, const Row& b);

/// Functor pair for unordered containers keyed by Row.
struct RowHash {
  size_t operator()(const Row& row) const { return HashRow(row); }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const { return RowsEqual(a, b); }
};

/// Functor pair for unordered containers keyed by a single Value,
/// consistent with RowHash/RowEq (numerics compare across kinds; strings
/// never equal numbers).
struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};
struct ValueEq {
  bool operator()(const Value& a, const Value& b) const {
    return Value::Compare(a, b) == 0 && a.is_string() == b.is_string();
  }
};

/// int64 <-> double conversion is exact for |x| < 2^53. Int64-keyed hash
/// tables (column indexes) admit only keys inside this bound, so a
/// double probe has at most one int64 key it compares equal to.
inline constexpr int64_t kExactDoubleBound = int64_t{1} << 53;

/// True if `x` may key an int64-keyed table (|x| < 2^53).
inline bool IsExactInt64Key(int64_t x) {
  return x > -kExactDoubleBound && x < kExactDoubleBound;
}

/// The int64 an integral double in (-2^53, 2^53) equals; false for a
/// fractional, out-of-range or NaN double.
inline bool ExactInt64OfDouble(double d, int64_t* out) {
  if (!(d > -static_cast<double>(kExactDoubleBound) &&
        d < static_cast<double>(kExactDoubleBound))) {
    return false;
  }
  const int64_t x = static_cast<int64_t>(d);
  if (static_cast<double>(x) != d) return false;
  *out = x;
  return true;
}

/// The key `v` probes an int64-keyed table for, following ValueEq: an
/// int64 is itself, an integral double in range converts. Anything else
/// (NULL, bool, string, fractional or out-of-range double) can equal no
/// key of such a table, and returns false.
inline bool ExactInt64ProbeKey(const Value& v, int64_t* out) {
  if (v.is_int64()) {
    *out = v.int64_value();
    return true;
  }
  return v.is_double() && ExactInt64OfDouble(v.double_value(), out);
}

}  // namespace pdm

#endif  // PDM_COMMON_VALUE_H_
