#ifndef PDM_PLAN_BINDER_H_
#define PDM_PLAN_BINDER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "plan/bound_expr.h"
#include "plan/functions.h"
#include "plan/plan_node.h"
#include "plan/view_registry.h"
#include "sql/ast.h"

namespace pdm {

/// Switches for the binder/optimizer, exposed as engine options so the
/// ablation benches can toggle them.
struct BinderOptions {
  /// Split WHERE conjunctions and evaluate each conjunct at the earliest
  /// join prefix (or inside the leftmost scan) that covers its columns.
  bool predicate_pushdown = true;
  /// Join a bare base-table scan on an equality of comparable columns
  /// with the index join (BindSelectCore); off, every join is the
  /// nested-loop join, the oracle the index join shares no code with.
  bool use_index_join = true;
};

/// Name-resolution scope: the tables visible to one SELECT block, flat
/// row layout (tables concatenated in FROM order), chained to the
/// enclosing query's scope for correlated subqueries.
class Scope {
 public:
  explicit Scope(const Scope* parent = nullptr) : parent_(parent) {}

  struct TableBinding {
    std::string name;  // effective (alias or table) name
    Schema schema;
    size_t offset;  // first column's index in the flat row
  };

  struct Resolution {
    size_t level;   // 0 = this scope, 1 = parent, ...
    size_t index;   // flat row index at that level
    ColumnType type;
    std::string debug_name;
  };

  /// Appends a table; returns its offset.
  size_t AddTable(std::string name, Schema schema);

  /// Resolves `qualifier.column` (qualifier may be empty). Errors on
  /// unknown or ambiguous names; searches enclosing scopes.
  Result<Resolution> Resolve(std::string_view qualifier,
                             std::string_view column) const;

  const std::vector<TableBinding>& tables() const { return tables_; }
  size_t num_columns() const { return num_columns_; }
  const Scope* parent() const { return parent_; }

 private:
  const Scope* parent_;
  std::vector<TableBinding> tables_;
  size_t num_columns_ = 0;
};

/// Translates parsed statements into bound, executable plans. One Binder
/// instance per statement; it carries the CTE registry built while
/// binding a SELECT's WITH clause.
class Binder {
 public:
  Binder(const Catalog* catalog, const FunctionRegistry* functions,
         BinderOptions options = BinderOptions(),
         const ViewRegistry* views = nullptr)
      : catalog_(catalog),
        functions_(functions),
        options_(options),
        views_(views) {}

  Result<BoundSelect> BindSelect(const sql::SelectStmt& stmt);
  Result<BoundInsert> BindInsert(const sql::InsertStmt& stmt);
  Result<BoundUpdate> BindUpdate(const sql::UpdateStmt& stmt);
  Result<BoundDelete> BindDelete(const sql::DeleteStmt& stmt);

  /// Binds a constant expression (no table scope): literals, functions,
  /// uncorrelated subqueries. Used for CALL arguments.
  Result<BoundExprPtr> BindConstantExpr(const sql::Expr& expr) {
    return BindExpr(expr, nullptr);
  }

  /// Binds an expression against a caller-provided scope (e.g. a result
  /// row's schema). Used for client-side rule evaluation.
  Result<BoundExprPtr> BindExprInScope(const sql::Expr& expr,
                                       const Scope* scope) {
    return BindExpr(expr, scope);
  }

 private:
  struct CteInfo {
    std::string key;  // lower-cased name
    Schema schema;
  };

  // Query structure.
  Result<PlanPtr> BindQueryExpr(const sql::QueryExpr& query,
                                const Scope* parent_scope);
  Result<PlanPtr> BindSelectCore(const sql::SelectCore& core,
                                 const Scope* parent_scope);
  Result<PlanPtr> BindAggregateSelect(const sql::SelectCore& core,
                                      Scope* scope, PlanPtr input);
  Result<BoundCte> BindCte(const sql::CommonTableExpr& cte, bool recursive);

  /// Resolves a FROM table reference into a leaf plan + the schema it
  /// contributes to the scope.
  Result<PlanPtr> BindTableRef(const sql::TableRef& ref, Schema* schema_out);

  // Expressions.
  Result<BoundExprPtr> BindExpr(const sql::Expr& expr, const Scope* scope);
  /// The one place a BoundLiteral gets its param_slot; records the slot
  /// in params_bound_. Literals inside a view body, or inside a select
  /// item named by its own text, stay constants without a slot: they
  /// are plan structure.
  BoundExprPtr BindLiteral(const sql::LiteralExpr& expr);
  Result<BoundExprPtr> BindSubqueryExpr(const sql::Expr& expr,
                                        const Scope* scope);
  Result<PlanPtr> BindSubqueryPlan(const sql::QueryExpr& query,
                                   const Scope* scope, bool* correlated);

  /// The output of an AggregateNode, as BindExpr sees it while binding
  /// HAVING and the select list above it: a group expression used
  /// verbatim (matched by text) or a collected aggregate call (matched
  /// by identity) reads its output slot; any other own-level column
  /// reference is an error.
  struct AggContext {
    std::vector<std::string> group_sql;       // rendered group exprs
    std::vector<const sql::Expr*> agg_calls;  // in slot order
    const Schema* output = nullptr;           // groups, then aggregates

    /// The output slot `expr` reads, if any.
    std::optional<size_t> SlotOf(const sql::Expr& expr) const;
  };

  const CteInfo* FindCte(std::string_view name) const;

  const Catalog* catalog_;
  const FunctionRegistry* functions_;
  BinderOptions options_;
  const ViewRegistry* views_;
  std::vector<std::string> view_stack_;  // cycle detection during expansion
  std::vector<CteInfo> ctes_;
  std::vector<bool> params_bound_;  // becomes BoundSelect::params_bound
  /// Set while binding a select item named by its SQL text.
  bool structural_literals_ = false;
  /// Set while binding above an aggregation (outside subquery bodies).
  const AggContext* agg_context_ = nullptr;
};

// --- Bound-tree analysis helpers (shared with the optimizer and tests) ---

/// Max flat-row index referenced at the expression's own level (level ==
/// depth when descending into nested subqueries); nullopt if the
/// expression does not touch its own row at all.
std::optional<size_t> MaxOwnRowIndex(const BoundExpr& expr, size_t depth = 0);

/// True if the plan contains a column reference escaping `depth` levels
/// (i.e. the plan is correlated when used as a subquery at that depth).
bool PlanHasEscapingRefs(const PlanNode& plan, size_t depth);
bool ExprHasEscapingRefs(const BoundExpr& expr, size_t depth);

/// Splits a conjunction into its conjuncts (ownership transferred).
std::vector<BoundExprPtr> SplitConjuncts(BoundExprPtr expr);

/// ANDs bound conjuncts back together; nullptr for an empty vector.
BoundExprPtr CombineConjuncts(std::vector<BoundExprPtr> conjuncts);

/// Bind-time column liveness (DESIGN.md 5o): one pass that sets every
/// node's `live` mask, and each index join's `residual_live`, in the
/// root, the CTE terms and every subquery plan. A node's live columns
/// are those some ancestor reads: parent expressions, join keys and
/// residuals, the refs a correlated subquery makes to the row it is
/// evaluated on, and all columns of the root, of CTE storage and of
/// Sort, Distinct, Union and Aggregate inputs. A scan's mask also holds
/// its own filter's columns.
void ComputeColumnLiveness(BoundSelect* bound);

}  // namespace pdm

#endif  // PDM_PLAN_BINDER_H_
