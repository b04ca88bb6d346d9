#ifndef PDM_SQL_AST_H_
#define PDM_SQL_AST_H_

#include <concepts>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "catalog/schema.h"
#include "common/value.h"

namespace pdm::sql {

struct QueryExpr;
struct SelectStmt;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kStar,             // bare `*` inside COUNT(*)
  kUnary,
  kBinary,
  kFunctionCall,
  kCast,
  kIsNull,
  kInList,
  kInSubquery,
  kExists,
  kScalarSubquery,
  kBetween,
  kLike,
  kCase,
};

enum class UnaryOp { kNot, kNegate };

enum class BinaryOp {
  kAnd,
  kOr,
  kEq,
  kNotEq,
  kLess,
  kLessEq,
  kGreater,
  kGreaterEq,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kConcat,
};

std::string_view BinaryOpSymbol(BinaryOp op);

/// Base class of all expression AST nodes. Nodes render back to SQL text
/// (`ToSql`) — the query builder and the rule modificator construct and
/// rewrite ASTs, then ship rendered text over the simulated wire — and
/// deep-copy (`Clone`) so stored rule conditions can be spliced into many
/// queries.
struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}
  virtual ~Expr() = default;
  Expr(const Expr&) = delete;
  Expr& operator=(const Expr&) = delete;

  virtual std::string ToSql() const = 0;
  virtual std::unique_ptr<Expr> Clone() const = 0;

  const ExprKind kind;
};

using ExprPtr = std::unique_ptr<Expr>;

struct LiteralExpr : Expr {
  explicit LiteralExpr(Value v) : Expr(ExprKind::kLiteral), value(std::move(v)) {}
  std::string ToSql() const override;
  ExprPtr Clone() const override;

  Value value;
  /// Ordinal of this literal in the statement's fingerprint parameter
  /// list (sql/fingerprint.h), or -1 for literals the fingerprint keeps
  /// verbatim (LIMIT counts, ORDER BY positions, type lengths) and for
  /// literals not produced by the parser (built ASTs, NULL/TRUE/FALSE).
  int param_slot = -1;
};

struct ColumnRefExpr : Expr {
  ColumnRefExpr(std::string t, std::string c)
      : Expr(ExprKind::kColumnRef), table(std::move(t)), column(std::move(c)) {}
  std::string ToSql() const override;
  ExprPtr Clone() const override;

  std::string table;   // qualifier; empty if unqualified
  std::string column;
};

struct StarExpr : Expr {
  StarExpr() : Expr(ExprKind::kStar) {}
  std::string ToSql() const override { return "*"; }
  ExprPtr Clone() const override;
};

struct UnaryExpr : Expr {
  UnaryExpr(UnaryOp o, ExprPtr e)
      : Expr(ExprKind::kUnary), op(o), operand(std::move(e)) {}
  std::string ToSql() const override;
  ExprPtr Clone() const override;

  UnaryOp op;
  ExprPtr operand;
};

struct BinaryExpr : Expr {
  BinaryExpr(BinaryOp o, ExprPtr l, ExprPtr r)
      : Expr(ExprKind::kBinary), op(o), lhs(std::move(l)), rhs(std::move(r)) {}
  std::string ToSql() const override;
  ExprPtr Clone() const override;

  BinaryOp op;
  ExprPtr lhs;
  ExprPtr rhs;
};

/// Covers both scalar functions and aggregates; which one it is gets
/// decided at bind time against the function registry.
struct FunctionCallExpr : Expr {
  FunctionCallExpr(std::string n, std::vector<ExprPtr> a, bool dist = false)
      : Expr(ExprKind::kFunctionCall),
        name(std::move(n)),
        args(std::move(a)),
        distinct(dist) {}
  std::string ToSql() const override;
  ExprPtr Clone() const override;

  std::string name;           // stored upper-cased by the parser
  std::vector<ExprPtr> args;  // a single StarExpr arg encodes COUNT(*)
  bool distinct;
};

struct CastExpr : Expr {
  CastExpr(ExprPtr e, ColumnType t)
      : Expr(ExprKind::kCast), operand(std::move(e)), target_type(t) {}
  std::string ToSql() const override;
  ExprPtr Clone() const override;

  ExprPtr operand;
  ColumnType target_type;
};

struct IsNullExpr : Expr {
  IsNullExpr(ExprPtr e, bool neg)
      : Expr(ExprKind::kIsNull), operand(std::move(e)), negated(neg) {}
  std::string ToSql() const override;
  ExprPtr Clone() const override;

  ExprPtr operand;
  bool negated;
};

struct InListExpr : Expr {
  InListExpr(ExprPtr e, std::vector<ExprPtr> it, bool neg)
      : Expr(ExprKind::kInList),
        operand(std::move(e)),
        items(std::move(it)),
        negated(neg) {}
  std::string ToSql() const override;
  ExprPtr Clone() const override;

  ExprPtr operand;
  std::vector<ExprPtr> items;
  bool negated;
};

struct InSubqueryExpr : Expr {
  InSubqueryExpr(ExprPtr e, std::unique_ptr<QueryExpr> q, bool neg);
  ~InSubqueryExpr() override;
  std::string ToSql() const override;
  ExprPtr Clone() const override;

  ExprPtr operand;
  std::unique_ptr<QueryExpr> subquery;
  bool negated;
};

struct ExistsExpr : Expr {
  ExistsExpr(std::unique_ptr<QueryExpr> q, bool neg);
  ~ExistsExpr() override;
  std::string ToSql() const override;
  ExprPtr Clone() const override;

  std::unique_ptr<QueryExpr> subquery;
  bool negated;
};

struct ScalarSubqueryExpr : Expr {
  explicit ScalarSubqueryExpr(std::unique_ptr<QueryExpr> q);
  ~ScalarSubqueryExpr() override;
  std::string ToSql() const override;
  ExprPtr Clone() const override;

  std::unique_ptr<QueryExpr> subquery;
};

struct BetweenExpr : Expr {
  BetweenExpr(ExprPtr e, ExprPtr lo, ExprPtr hi, bool neg)
      : Expr(ExprKind::kBetween),
        operand(std::move(e)),
        low(std::move(lo)),
        high(std::move(hi)),
        negated(neg) {}
  std::string ToSql() const override;
  ExprPtr Clone() const override;

  ExprPtr operand;
  ExprPtr low;
  ExprPtr high;
  bool negated;
};

struct LikeExpr : Expr {
  LikeExpr(ExprPtr e, ExprPtr p, bool neg)
      : Expr(ExprKind::kLike),
        operand(std::move(e)),
        pattern(std::move(p)),
        negated(neg) {}
  std::string ToSql() const override;
  ExprPtr Clone() const override;

  ExprPtr operand;
  ExprPtr pattern;
  bool negated;
};

/// Searched CASE: CASE WHEN c1 THEN v1 ... [ELSE e] END.
struct CaseExpr : Expr {
  CaseExpr(std::vector<std::pair<ExprPtr, ExprPtr>> w, ExprPtr e)
      : Expr(ExprKind::kCase),
        whens(std::move(w)),
        else_expr(std::move(e)) {}
  std::string ToSql() const override;
  ExprPtr Clone() const override;

  std::vector<std::pair<ExprPtr, ExprPtr>> whens;
  ExprPtr else_expr;  // may be null
};

// ---------------------------------------------------------------------------
// Expression construction helpers (used pervasively by rules/ and pdm/)
// ---------------------------------------------------------------------------

ExprPtr MakeLiteral(Value v);
ExprPtr MakeColumnRef(std::string table, std::string column);
ExprPtr MakeColumnRef(std::string column);
ExprPtr MakeBinary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeNot(ExprPtr e);
/// Folds `exprs` with AND/OR; returns nullptr for an empty vector.
ExprPtr MakeConjunction(std::vector<ExprPtr> exprs);
ExprPtr MakeDisjunction(std::vector<ExprPtr> exprs);
/// a AND b where either side may be null (returns the other side).
ExprPtr AndWith(ExprPtr a, ExprPtr b);

// ---------------------------------------------------------------------------
// Query structure
// ---------------------------------------------------------------------------

/// One item of a SELECT list: either `*` / `alias.*`, or an expression
/// with an optional alias.
struct SelectItem {
  bool is_star = false;
  std::string star_qualifier;  // for `t.*`; empty for bare `*`
  ExprPtr expr;                // null when is_star
  std::string alias;

  SelectItem() = default;
  SelectItem Clone() const;
  std::string ToSql() const;
};

/// A table reference in FROM: base table or derived table (subquery).
struct TableRef {
  enum class Kind { kBaseTable, kSubquery };

  Kind kind = Kind::kBaseTable;
  std::string table_name;                 // base table
  std::unique_ptr<QueryExpr> subquery;    // derived table
  std::string alias;                      // optional (required for subquery)

  TableRef() = default;
  TableRef(TableRef&&) = default;
  TableRef& operator=(TableRef&&) = default;
  ~TableRef();

  /// Name this reference is known by in scopes: alias if present, else
  /// the table name.
  const std::string& EffectiveName() const {
    return alias.empty() ? table_name : alias;
  }

  TableRef Clone() const;
  std::string ToSql() const;
};

/// `JOIN <ref> ON <expr>` attached to the previous FROM element.
struct JoinClause {
  TableRef ref;
  ExprPtr on;  // may be null for CROSS-style comma joins folded in

  JoinClause Clone() const;
};

/// One FROM element: a base reference plus its chain of inner joins.
struct FromItem {
  TableRef ref;
  std::vector<JoinClause> joins;

  FromItem Clone() const;
  std::string ToSql() const;
};

/// A single SELECT ... FROM ... WHERE ... GROUP BY ... HAVING block.
struct SelectCore {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<FromItem> from;
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;

  SelectCore() = default;
  SelectCore(SelectCore&&) = default;
  SelectCore& operator=(SelectCore&&) = default;

  SelectCore Clone() const;
  std::string ToSql() const;

  /// AND-appends a predicate to the WHERE clause (creates one if absent).
  /// This is the primitive both tuning approaches are built on
  /// (paper Sections 4.1 and 5.5).
  void AddWherePredicate(ExprPtr predicate);

  /// True if any FROM element (base or join) references `table_name`
  /// (case-insensitive, by underlying table name not alias).
  bool ReferencesTable(std::string_view table_name) const;
};

struct OrderByItem {
  // Either a 1-based output-column position (the paper's ORDER BY 1,2)
  // or an expression resolved against the output columns.
  std::optional<int64_t> position;
  ExprPtr expr;
  bool descending = false;

  OrderByItem Clone() const;
  std::string ToSql() const;
};

/// select_core (UNION [ALL] select_core)* [ORDER BY ...] [LIMIT n].
struct QueryExpr {
  std::vector<SelectCore> terms;
  std::vector<bool> union_all;  // size terms.size()-1; true = UNION ALL
  std::vector<OrderByItem> order_by;
  std::optional<int64_t> limit;

  QueryExpr() = default;
  QueryExpr(QueryExpr&&) = default;
  QueryExpr& operator=(QueryExpr&&) = default;

  std::unique_ptr<QueryExpr> Clone() const;
  std::string ToSql() const;
};

/// WITH [RECURSIVE] name (cols) AS (query), ... — one named CTE.
struct CommonTableExpr {
  std::string name;
  std::vector<std::string> column_names;  // may be empty
  std::unique_ptr<QueryExpr> query;

  CommonTableExpr Clone() const;
  std::string ToSql() const;
};

// ---------------------------------------------------------------------------
// Child enumeration: the one place that knows which children each node has
// ---------------------------------------------------------------------------

/// `T`, const-qualified when `Like` is, so one walker body serves both the
/// const and the mutable form of a tree.
template <typename T, typename Like>
using ConstLike = std::conditional_t<std::is_const_v<Like>, const T, T>;

/// Calls `on_expr(slot)` for each direct child expression of `expr` (an
/// `ExprPtr&`, const when `expr` is, so a mutating walk can replace the
/// child in its parent slot) and `on_query(query)` for the subquery of
/// IN/EXISTS/scalar-subquery nodes. Order: operand first, then list items,
/// BETWEEN bounds, LIKE pattern or subquery; CASE yields condition and
/// value per WHEN, then ELSE (skipped when absent). A walk that stops at
/// subquery boundaries uses the two-argument form.
template <typename E, typename ExprFn, typename QueryFn>
  requires std::same_as<std::remove_const_t<E>, Expr>
void ForEachChild(E& expr, ExprFn&& on_expr, QueryFn&& on_query) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
    case ExprKind::kStar:
      return;
    case ExprKind::kUnary:
      on_expr(static_cast<ConstLike<UnaryExpr, E>&>(expr).operand);
      return;
    case ExprKind::kBinary: {
      auto& e = static_cast<ConstLike<BinaryExpr, E>&>(expr);
      on_expr(e.lhs);
      on_expr(e.rhs);
      return;
    }
    case ExprKind::kFunctionCall:
      for (auto& a : static_cast<ConstLike<FunctionCallExpr, E>&>(expr).args) {
        on_expr(a);
      }
      return;
    case ExprKind::kCast:
      on_expr(static_cast<ConstLike<CastExpr, E>&>(expr).operand);
      return;
    case ExprKind::kIsNull:
      on_expr(static_cast<ConstLike<IsNullExpr, E>&>(expr).operand);
      return;
    case ExprKind::kInList: {
      auto& e = static_cast<ConstLike<InListExpr, E>&>(expr);
      on_expr(e.operand);
      for (auto& i : e.items) on_expr(i);
      return;
    }
    case ExprKind::kInSubquery: {
      auto& e = static_cast<ConstLike<InSubqueryExpr, E>&>(expr);
      on_expr(e.operand);
      on_query(static_cast<ConstLike<QueryExpr, E>&>(*e.subquery));
      return;
    }
    case ExprKind::kExists:
      on_query(static_cast<ConstLike<QueryExpr, E>&>(
          *static_cast<ConstLike<ExistsExpr, E>&>(expr).subquery));
      return;
    case ExprKind::kScalarSubquery:
      on_query(static_cast<ConstLike<QueryExpr, E>&>(
          *static_cast<ConstLike<ScalarSubqueryExpr, E>&>(expr).subquery));
      return;
    case ExprKind::kBetween: {
      auto& e = static_cast<ConstLike<BetweenExpr, E>&>(expr);
      on_expr(e.operand);
      on_expr(e.low);
      on_expr(e.high);
      return;
    }
    case ExprKind::kLike: {
      auto& e = static_cast<ConstLike<LikeExpr, E>&>(expr);
      on_expr(e.operand);
      on_expr(e.pattern);
      return;
    }
    case ExprKind::kCase: {
      auto& e = static_cast<ConstLike<CaseExpr, E>&>(expr);
      for (auto& [cond, value] : e.whens) {
        on_expr(cond);
        on_expr(value);
      }
      if (e.else_expr != nullptr) on_expr(e.else_expr);
      return;
    }
  }
}

template <typename E, typename ExprFn>
  requires std::same_as<std::remove_const_t<E>, Expr>
void ForEachChild(E& expr, ExprFn&& on_expr) {
  ForEachChild(expr, on_expr, [](ConstLike<QueryExpr, E>&) {});
}

/// Query-level walk over one SELECT block: `on_expr(slot)` for the select
/// items, each JOIN's ON, WHERE, every GROUP BY expression and HAVING;
/// `on_query(query)` for each derived table (a JOIN's table before its
/// ON). Clause order: select list, FROM, WHERE, GROUP BY, HAVING.
template <typename C, typename ExprFn, typename QueryFn>
  requires std::same_as<std::remove_const_t<C>, SelectCore>
void ForEachChild(C& core, ExprFn&& on_expr, QueryFn&& on_query) {
  for (auto& item : core.items) {
    if (item.expr != nullptr) on_expr(item.expr);
  }
  auto derived = [&](auto& ref) {
    if (ref.kind == TableRef::Kind::kSubquery) {
      on_query(static_cast<ConstLike<QueryExpr, C>&>(*ref.subquery));
    }
  };
  for (auto& from : core.from) {
    derived(from.ref);
    for (auto& join : from.joins) {
      derived(join.ref);
      if (join.on != nullptr) on_expr(join.on);
    }
  }
  if (core.where != nullptr) on_expr(core.where);
  for (auto& g : core.group_by) on_expr(g);
  if (core.having != nullptr) on_expr(core.having);
}

/// Every UNION term's SelectCore walk in order, then the ORDER BY
/// expressions (positions have none).
template <typename Q, typename ExprFn, typename QueryFn>
  requires std::same_as<std::remove_const_t<Q>, QueryExpr>
void ForEachChild(Q& query, ExprFn&& on_expr, QueryFn&& on_query) {
  for (auto& term : query.terms) ForEachChild(term, on_expr, on_query);
  for (auto& item : query.order_by) {
    if (item.expr != nullptr) on_expr(item.expr);
  }
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StatementKind {
  kSelect,
  kCreateTable,
  kDropTable,
  kInsert,
  kUpdate,
  kDelete,
  kCall,
  kExplain,
  kCreateView,
  kDropView,
};

struct Statement {
  explicit Statement(StatementKind k) : kind(k) {}
  virtual ~Statement() = default;
  Statement(const Statement&) = delete;
  Statement& operator=(const Statement&) = delete;

  virtual std::string ToSql() const = 0;

  const StatementKind kind;
};

using StatementPtr = std::unique_ptr<Statement>;

struct SelectStmt : Statement {
  SelectStmt() : Statement(StatementKind::kSelect) {}
  std::string ToSql() const override;
  std::unique_ptr<SelectStmt> CloneSelect() const;

  bool recursive = false;
  std::vector<CommonTableExpr> ctes;
  QueryExpr query;
};

struct CreateTableStmt : Statement {
  CreateTableStmt() : Statement(StatementKind::kCreateTable) {}
  std::string ToSql() const override;

  std::string table_name;
  std::vector<Column> columns;
  bool if_not_exists = false;
};

struct DropTableStmt : Statement {
  DropTableStmt() : Statement(StatementKind::kDropTable) {}
  std::string ToSql() const override;

  std::string table_name;
  bool if_exists = false;
};

struct InsertStmt : Statement {
  InsertStmt() : Statement(StatementKind::kInsert) {}
  std::string ToSql() const override;

  std::string table_name;
  std::vector<std::string> columns;          // may be empty = all columns
  std::vector<std::vector<ExprPtr>> rows;    // VALUES rows
};

struct UpdateStmt : Statement {
  UpdateStmt() : Statement(StatementKind::kUpdate) {}
  std::string ToSql() const override;

  std::string table_name;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;  // may be null
};

struct DeleteStmt : Statement {
  DeleteStmt() : Statement(StatementKind::kDelete) {}
  std::string ToSql() const override;

  std::string table_name;
  ExprPtr where;  // may be null
};

struct CallStmt : Statement {
  CallStmt() : Statement(StatementKind::kCall) {}
  std::string ToSql() const override;

  std::string procedure_name;
  std::vector<ExprPtr> args;
};

/// EXPLAIN <select>: returns the bound physical plan as text rows.
struct ExplainStmt : Statement {
  ExplainStmt() : Statement(StatementKind::kExplain) {}
  std::string ToSql() const override;

  std::unique_ptr<SelectStmt> select;
};

/// CREATE [OR REPLACE] VIEW name AS <select>. Views are stored as ASTs
/// and expanded at bind time; see engine/view_registry.h — and the
/// paper's Section 5.5 remark on why views defeat the query modificator.
struct CreateViewStmt : Statement {
  CreateViewStmt() : Statement(StatementKind::kCreateView) {}
  std::string ToSql() const override;

  std::string view_name;
  std::unique_ptr<SelectStmt> select;
  bool or_replace = false;
};

struct DropViewStmt : Statement {
  DropViewStmt() : Statement(StatementKind::kDropView) {}
  std::string ToSql() const override;

  std::string view_name;
  bool if_exists = false;
};

}  // namespace pdm::sql

#endif  // PDM_SQL_AST_H_
