#include "catalog/schema.h"

#include "common/string_util.h"

namespace pdm {

std::string_view ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kBool:
      return "BOOLEAN";
    case ColumnType::kInt64:
      return "INTEGER";
    case ColumnType::kDouble:
      return "DOUBLE";
    case ColumnType::kString:
      return "VARCHAR";
  }
  return "UNKNOWN";
}

Result<ColumnType> ParseColumnType(std::string_view name) {
  std::string lower = ToLowerAscii(name);
  if (lower == "int" || lower == "integer" || lower == "bigint" ||
      lower == "smallint") {
    return ColumnType::kInt64;
  }
  if (lower == "double" || lower == "float" || lower == "real" ||
      lower == "decimal" || lower == "numeric") {
    return ColumnType::kDouble;
  }
  if (lower == "varchar" || lower == "char" || lower == "text" ||
      lower == "string") {
    return ColumnType::kString;
  }
  if (lower == "boolean" || lower == "bool") {
    return ColumnType::kBool;
  }
  return Status::InvalidArgument("unknown column type: " + std::string(name));
}

bool KindFitsColumn(ValueKind kind, ColumnType type) {
  switch (kind) {
    case ValueKind::kNull:
      return true;
    case ValueKind::kBool:
      return type == ColumnType::kBool;
    case ValueKind::kInt64:
      return type == ColumnType::kInt64 || type == ColumnType::kDouble;
    case ValueKind::kDouble:
      return type == ColumnType::kDouble;
    case ValueKind::kString:
      return type == ColumnType::kString;
  }
  return false;
}

ValueKind ColumnKind(ColumnType type) {
  switch (type) {
    case ColumnType::kBool:
      return ValueKind::kBool;
    case ColumnType::kInt64:
      return ValueKind::kInt64;
    case ColumnType::kDouble:
      return ValueKind::kDouble;
    case ColumnType::kString:
      return ValueKind::kString;
  }
  return ValueKind::kNull;
}

std::optional<size_t> Schema::FindColumn(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name)) return i;
  }
  return std::nullopt;
}

Status Schema::ValidateRow(const Row& row) const {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        StrFormat("row has %zu values, schema has %zu columns", row.size(),
                  columns_.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!KindFitsColumn(row[i].kind(), columns_[i].type)) {
      return Status::InvalidArgument(StrFormat(
          "value of kind %s does not fit column '%s' of type %s",
          std::string(ValueKindName(row[i].kind())).c_str(),
          columns_[i].name.c_str(),
          std::string(ColumnTypeName(columns_[i].type)).c_str()));
    }
  }
  return Status::OK();
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(columns_.size());
  for (const Column& c : columns_) {
    parts.push_back(c.name + " " + std::string(ColumnTypeName(c.type)));
  }
  return Join(parts, ", ");
}

}  // namespace pdm
