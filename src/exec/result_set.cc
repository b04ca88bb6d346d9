#include "exec/result_set.h"

#include <algorithm>

#include "common/string_util.h"

namespace pdm {

size_t ResultSet::WireSize() const {
  if (counted_wire_size.has_value()) return *counted_wire_size;
  size_t size = 0;
  for (const Row& row : rows) size += RowWireSize(row);
  return size;
}

std::string ResultSet::ToString(size_t max_rows) const {
  std::vector<size_t> widths(schema.num_columns());
  std::vector<std::vector<std::string>> cells;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    widths[c] = schema.column(c).name.size();
  }
  size_t shown = std::min(max_rows, rows.size());
  cells.reserve(shown);
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> line;
    line.reserve(schema.num_columns());
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      std::string text = rows[r][c].ToString();
      widths[c] = std::max(widths[c], text.size());
      line.push_back(std::move(text));
    }
    cells.push_back(std::move(line));
  }

  std::string out;
  auto append_row = [&](const std::vector<std::string>& line) {
    for (size_t c = 0; c < line.size(); ++c) {
      out += line[c];
      out.append(widths[c] - line[c].size() + 2, ' ');
    }
    out += "\n";
  };
  std::vector<std::string> header;
  header.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    header.push_back(schema.column(c).name);
  }
  append_row(header);
  std::vector<std::string> rule;
  rule.reserve(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    rule.push_back(std::string(widths[c], '-'));
  }
  append_row(rule);
  for (const std::vector<std::string>& line : cells) append_row(line);
  if (rows.size() > shown) {
    out += StrFormat("... (%zu more row(s))\n", rows.size() - shown);
  }
  return out;
}

}  // namespace pdm
