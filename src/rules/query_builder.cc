#include "rules/query_builder.h"

#include <map>

#include "common/string_util.h"
#include "pdm/pdm_schema.h"

namespace pdm::rules {

namespace {

using sql::ExprPtr;

const std::vector<std::string>& kLinkExtras() {
  static const std::vector<std::string>* kCols = new std::vector<std::string>{
      "left", "right", "eff_from", "eff_to", "strc_opt", "hier"};
  return *kCols;
}

sql::ExprPtr HierarchyPredicate(const std::string& hierarchy) {
  return sql::MakeBinary(sql::BinaryOp::kEq,
                         sql::MakeColumnRef(pdmsys::kLinkTable, "hier"),
                         sql::MakeLiteral(Value::String(hierarchy)));
}

sql::FromItem BaseFrom(const std::string& table) {
  sql::FromItem item;
  item.ref.kind = sql::TableRef::Kind::kBaseTable;
  item.ref.table_name = table;
  return item;
}

void AddJoin(sql::FromItem* item, const std::string& table, ExprPtr on) {
  sql::JoinClause join;
  join.ref.kind = sql::TableRef::Kind::kBaseTable;
  join.ref.table_name = table;
  join.on = std::move(on);
  item->joins.push_back(std::move(join));
}

bool TableHasColumn(const std::string& table, const std::string& column) {
  const std::vector<std::string>& cols = table == pdmsys::kAssyTable
                                             ? pdmsys::AssyColumns()
                                             : pdmsys::CompColumns();
  for (const std::string& c : cols) {
    if (c == column) return true;
  }
  return false;
}

/// Value of homogenized column `column` when selecting from object table
/// `table`: the column itself, or a neutral filler (paper Section 5.2:
/// "the remaining attributes are filled with NULL values").
ExprPtr HomogenizedExpr(const std::string& table, const std::string& column) {
  if (TableHasColumn(table, column)) {
    return sql::MakeColumnRef(table, column);
  }
  if (column == "weight") {
    return std::make_unique<sql::CastExpr>(sql::MakeLiteral(Value::Null()),
                                           ColumnType::kDouble);
  }
  if (column == "checkedout" || column == "frozen") {
    return std::make_unique<sql::CastExpr>(sql::MakeLiteral(Value::Null()),
                                           ColumnType::kBool);
  }
  return sql::MakeLiteral(Value::String(""));
}

sql::SelectItem Item(ExprPtr expr, std::string alias = "") {
  sql::SelectItem item;
  item.expr = std::move(expr);
  item.alias = std::move(alias);
  return item;
}

ExprPtr NullAs(ColumnType type) {
  return std::make_unique<sql::CastExpr>(sql::MakeLiteral(Value::Null()),
                                         type);
}

/// SELECT items casting an object table into the homogenized type.
std::vector<sql::SelectItem> HomogenizedItems(const std::string& table) {
  std::vector<sql::SelectItem> items;
  for (const std::string& col : pdmsys::HomogenizedObjectColumns()) {
    items.push_back(Item(HomogenizedExpr(table, col), col));
  }
  return items;
}

/// The recursive step for one object type (paper Section 5.2):
/// SELECT <homogenized T>, rtbl.lvl + 1 FROM rtbl
///   JOIN link ON rtbl.obid = link.left JOIN T ON link.right = T.obid
/// [WHERE rtbl.lvl < max_depth]
sql::SelectCore RecursiveMember(const std::string& object_table,
                                int max_depth,
                                const std::string& hierarchy) {
  sql::SelectCore core;
  core.items = HomogenizedItems(object_table);
  core.items.push_back(Item(
      sql::MakeBinary(sql::BinaryOp::kAdd,
                      sql::MakeColumnRef(kRecursiveTableName, "lvl"),
                      sql::MakeLiteral(Value::Int64(1))),
      "lvl"));
  core.where = HierarchyPredicate(hierarchy);
  if (max_depth > 0) {
    core.AddWherePredicate(sql::MakeBinary(
        sql::BinaryOp::kLess, sql::MakeColumnRef(kRecursiveTableName, "lvl"),
        sql::MakeLiteral(Value::Int64(max_depth))));
  }
  sql::FromItem from = BaseFrom(kRecursiveTableName);
  AddJoin(&from, pdmsys::kLinkTable,
          sql::MakeBinary(sql::BinaryOp::kEq,
                          sql::MakeColumnRef(kRecursiveTableName, "obid"),
                          sql::MakeColumnRef(pdmsys::kLinkTable, "left")));
  AddJoin(&from, object_table,
          sql::MakeBinary(sql::BinaryOp::kEq,
                          sql::MakeColumnRef(pdmsys::kLinkTable, "right"),
                          sql::MakeColumnRef(object_table, "obid")));
  core.from.push_back(std::move(from));
  return core;
}

/// `obid IN (SELECT obid FROM rtbl)` for a link endpoint column.
ExprPtr EndpointInRtbl(const std::string& endpoint_column) {
  auto subquery = std::make_unique<sql::QueryExpr>();
  sql::SelectCore inner;
  inner.items.push_back(Item(sql::MakeColumnRef("obid")));
  inner.from.push_back(BaseFrom(kRecursiveTableName));
  subquery->terms.push_back(std::move(inner));
  return std::make_unique<sql::InSubqueryExpr>(
      sql::MakeColumnRef(endpoint_column), std::move(subquery),
      /*neg=*/false);
}

/// SELECT <homogenized assy> FROM assy WHERE assy.obid = root: the
/// root's own row, as the recursive query seeds rtbl with it.
sql::SelectCore RootRowCore(int64_t root_obid) {
  sql::SelectCore core;
  core.items = HomogenizedItems(pdmsys::kAssyTable);
  core.from.push_back(BaseFrom(pdmsys::kAssyTable));
  core.where = sql::MakeBinary(
      sql::BinaryOp::kEq, sql::MakeColumnRef(pdmsys::kAssyTable, "obid"),
      sql::MakeLiteral(Value::Int64(root_obid)));
  return core;
}

}  // namespace

std::unique_ptr<sql::SelectStmt> BuildRecursiveTreeQuery(
    int64_t root_obid, int max_depth, const std::string& hierarchy) {
  auto stmt = std::make_unique<sql::SelectStmt>();
  stmt->recursive = true;

  // WITH RECURSIVE rtbl (homogenized columns, lvl) AS (seed UNION steps).
  sql::CommonTableExpr cte;
  cte.name = kRecursiveTableName;
  cte.column_names = pdmsys::HomogenizedObjectColumns();
  cte.column_names.push_back("lvl");
  cte.query = std::make_unique<sql::QueryExpr>();

  sql::SelectCore seed = RootRowCore(root_obid);
  seed.items.push_back(Item(sql::MakeLiteral(Value::Int64(0)), "lvl"));
  cte.query->terms.push_back(std::move(seed));
  for (const std::string& table : pdmsys::ObjectTables()) {
    cte.query->terms.push_back(RecursiveMember(table, max_depth, hierarchy));
    cte.query->union_all.push_back(false);  // UNION (distinct), as in paper
  }
  stmt->ctes.push_back(std::move(cte));

  // Outer homogenizing query: object rows, then link rows.
  sql::SelectCore objects;
  for (const std::string& col : pdmsys::HomogenizedObjectColumns()) {
    objects.items.push_back(Item(sql::MakeColumnRef(col), col));
  }
  for (const std::string& col : kLinkExtras()) {
    objects.items.push_back(
        Item(NullAs(ColumnType::kInt64), ToUpperAscii(col)));
  }
  objects.from.push_back(BaseFrom(kRecursiveTableName));
  stmt->query.terms.push_back(std::move(objects));

  sql::SelectCore links;
  links.items.push_back(Item(sql::MakeColumnRef("type"), "type"));
  links.items.push_back(Item(sql::MakeColumnRef("obid"), "obid"));
  for (const std::string& col : pdmsys::HomogenizedObjectColumns()) {
    if (col == "type" || col == "obid") continue;
    if (col == "weight") {
      links.items.push_back(Item(NullAs(ColumnType::kDouble), col));
    } else if (col == "checkedout" || col == "frozen") {
      links.items.push_back(Item(NullAs(ColumnType::kBool), col));
    } else {
      links.items.push_back(Item(sql::MakeLiteral(Value::String("")), col));
    }
  }
  for (const std::string& col : kLinkExtras()) {
    links.items.push_back(Item(sql::MakeColumnRef(col), ToUpperAscii(col)));
  }
  links.from.push_back(BaseFrom(pdmsys::kLinkTable));
  links.where = sql::MakeBinary(sql::BinaryOp::kAnd, EndpointInRtbl("left"),
                                EndpointInRtbl("right"));
  links.AddWherePredicate(HierarchyPredicate(hierarchy));
  stmt->query.terms.push_back(std::move(links));
  stmt->query.union_all.push_back(false);

  sql::OrderByItem by_type;
  by_type.position = 1;
  sql::OrderByItem by_obid;
  by_obid.position = 2;
  stmt->query.order_by.push_back(std::move(by_type));
  stmt->query.order_by.push_back(std::move(by_obid));
  return stmt;
}

std::unique_ptr<sql::SelectStmt> BuildExpandQuery(
    int64_t parent_obid, const std::string& hierarchy) {
  auto stmt = std::make_unique<sql::SelectStmt>();
  bool first = true;
  for (const std::string& table : pdmsys::ObjectTables()) {
    sql::SelectCore core;
    core.items = HomogenizedItems(table);
    for (const std::string& col : kLinkExtras()) {
      core.items.push_back(Item(sql::MakeColumnRef(pdmsys::kLinkTable, col),
                                ToUpperAscii(col)));
    }
    sql::FromItem from = BaseFrom(pdmsys::kLinkTable);
    AddJoin(&from, table,
            sql::MakeBinary(sql::BinaryOp::kEq,
                            sql::MakeColumnRef(pdmsys::kLinkTable, "right"),
                            sql::MakeColumnRef(table, "obid")));
    core.from.push_back(std::move(from));
    core.where = sql::MakeBinary(
        sql::BinaryOp::kEq, sql::MakeColumnRef(pdmsys::kLinkTable, "left"),
        sql::MakeLiteral(Value::Int64(parent_obid)));
    core.AddWherePredicate(HierarchyPredicate(hierarchy));
    stmt->query.terms.push_back(std::move(core));
    if (!first) stmt->query.union_all.push_back(true);
    first = false;
  }
  return stmt;
}

std::unique_ptr<sql::SelectStmt> BuildRootRowQuery(int64_t root_obid) {
  auto stmt = std::make_unique<sql::SelectStmt>();
  stmt->query.terms.push_back(RootRowCore(root_obid));
  return stmt;
}

std::unique_ptr<sql::SelectStmt> BuildFlatQuery() {
  auto stmt = std::make_unique<sql::SelectStmt>();
  bool first = true;
  for (const std::string& table : pdmsys::ObjectTables()) {
    sql::SelectCore core;
    core.items = HomogenizedItems(table);
    core.from.push_back(BaseFrom(table));
    stmt->query.terms.push_back(std::move(core));
    if (!first) stmt->query.union_all.push_back(true);
    first = false;
  }
  return stmt;
}

std::unique_ptr<sql::Statement> BuildCheckOutUpdate(
    const std::string& object_table, const std::vector<int64_t>& obids,
    bool checked_out) {
  auto stmt = std::make_unique<sql::UpdateStmt>();
  stmt->table_name = object_table;
  stmt->assignments.emplace_back(
      "checkedout", sql::MakeLiteral(Value::Bool(checked_out)));
  std::vector<ExprPtr> items;
  items.reserve(obids.size());
  for (int64_t obid : obids) {
    items.push_back(sql::MakeLiteral(Value::Int64(obid)));
  }
  stmt->where = std::make_unique<sql::InListExpr>(
      sql::MakeColumnRef("obid"), std::move(items), /*neg=*/false);
  return stmt;
}

std::vector<std::unique_ptr<sql::Statement>> BuildCheckOutUpdates(
    const pdmsys::ProductTree& tree, bool checked_out, bool per_object) {
  std::map<std::string, std::vector<int64_t>> obids_by_table;
  for (const pdmsys::ProductNode& node : tree.nodes()) {
    obids_by_table[node.type].push_back(node.obid);
  }
  std::vector<std::unique_ptr<sql::Statement>> updates;
  for (const auto& [table, obids] : obids_by_table) {
    if (!per_object) {
      updates.push_back(BuildCheckOutUpdate(table, obids, checked_out));
      continue;
    }
    for (int64_t obid : obids) {
      updates.push_back(BuildCheckOutUpdate(table, {obid}, checked_out));
    }
  }
  return updates;
}

}  // namespace pdm::rules
