#ifndef PDM_CATALOG_SCHEMA_H_
#define PDM_CATALOG_SCHEMA_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/value.h"

namespace pdm {

/// Declared column type. Values of any kind may still be NULL; the
/// declared type constrains the non-NULL kind on insert.
enum class ColumnType {
  kBool,
  kInt64,
  kDouble,
  kString,
};

std::string_view ColumnTypeName(ColumnType type);

/// Parses "INTEGER"/"INT"/"BIGINT"/"DOUBLE"/"FLOAT"/"VARCHAR"/"CHAR"/
/// "TEXT"/"BOOLEAN" (case-insensitive) into a ColumnType.
Result<ColumnType> ParseColumnType(std::string_view name);

/// True if a value of `kind` may be stored in a column of `type`
/// (NULL always fits; INT64 may widen into DOUBLE columns).
bool KindFitsColumn(ValueKind kind, ColumnType type);

/// The kind of the non-NULL values a column of `type` holds, for
/// Value::ComparableKinds (INT64 cells of a DOUBLE column are numeric
/// too). An index answers an equality only between comparable kinds:
/// the evaluator rejects the others.
ValueKind ColumnKind(ColumnType type);

/// A named, typed column.
struct Column {
  std::string name;
  ColumnType type;
};

/// An ordered list of columns. Column names are matched
/// case-insensitively, as in SQL.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  void AddColumn(Column column) { columns_.push_back(std::move(column)); }

  /// Index of the column named `name`, or nullopt. Case-insensitive.
  std::optional<size_t> FindColumn(std::string_view name) const;

  /// Checks `row` against arity and column types.
  Status ValidateRow(const Row& row) const;

  /// "name TYPE, name TYPE, ..." — for error messages and CREATE TABLE
  /// round-tripping.
  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

}  // namespace pdm

#endif  // PDM_CATALOG_SCHEMA_H_
