// Coverage of the three child enumerators: sql::ForEachChild (AST
// expressions and the query-level walk), ForEachChild over bound
// expressions, and ForEachChild/ForEachExpr over plan operators. For every
// node kind, a node holding a distinct marker in each child slot must have
// each slot visited exactly once, in the documented order, through both
// the const and the mutable form; the mutable form must hand out the
// parent's own slot. Each kind is built twice: with every optional slot
// filled, and with the optional slots (CASE's ELSE, an EXISTS operand, a
// scan filter, ...) left empty, which the walk must skip.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "plan/bound_expr.h"
#include "plan/plan_node.h"
#include "sql/ast.h"

namespace pdm {
namespace {

using sql::ExprKind;
using sql::ExprPtr;
using Seq = std::vector<const void*>;

// --- AST expressions --------------------------------------------------------

/// A fresh marker expression, appended to `*expected` in creation order.
ExprPtr Marker(Seq* expected) {
  ExprPtr m = sql::MakeLiteral(Value::Int64(static_cast<int64_t>(
      expected->size())));
  expected->push_back(m.get());
  return m;
}

std::unique_ptr<sql::QueryExpr> QueryMarker(Seq* expected) {
  auto q = std::make_unique<sql::QueryExpr>();
  expected->push_back(q.get());
  return q;
}

/// A node of `kind` whose child slots hold markers created in the
/// documented visiting order; `*queries` lists the subquery markers.
/// Optional slots are filled only when `full`.
ExprPtr MakeExpr(ExprKind kind, bool full, Seq* expected, Seq* queries) {
  // Children are created before the node, one statement each, so the
  // marker order does not depend on argument evaluation order.
  switch (kind) {
    case ExprKind::kLiteral:
      return sql::MakeLiteral(Value::Int64(1));
    case ExprKind::kColumnRef:
      return sql::MakeColumnRef("t", "c");
    case ExprKind::kStar:
      return std::make_unique<sql::StarExpr>();
    case ExprKind::kUnary: {
      ExprPtr a = Marker(expected);
      return std::make_unique<sql::UnaryExpr>(sql::UnaryOp::kNot,
                                              std::move(a));
    }
    case ExprKind::kBinary: {
      ExprPtr a = Marker(expected);
      ExprPtr b = Marker(expected);
      return sql::MakeBinary(sql::BinaryOp::kAdd, std::move(a), std::move(b));
    }
    case ExprKind::kFunctionCall: {
      std::vector<ExprPtr> args;
      for (int i = 0; i < 3; ++i) args.push_back(Marker(expected));
      return std::make_unique<sql::FunctionCallExpr>("F", std::move(args));
    }
    case ExprKind::kCast: {
      ExprPtr a = Marker(expected);
      return std::make_unique<sql::CastExpr>(std::move(a), ColumnType::kInt64);
    }
    case ExprKind::kIsNull: {
      ExprPtr a = Marker(expected);
      return std::make_unique<sql::IsNullExpr>(std::move(a), false);
    }
    case ExprKind::kInList: {
      ExprPtr operand = Marker(expected);
      std::vector<ExprPtr> items;
      items.push_back(Marker(expected));
      items.push_back(Marker(expected));
      return std::make_unique<sql::InListExpr>(std::move(operand),
                                               std::move(items), false);
    }
    case ExprKind::kInSubquery: {
      ExprPtr operand = Marker(expected);
      auto q = QueryMarker(expected);
      queries->push_back(q.get());
      return std::make_unique<sql::InSubqueryExpr>(std::move(operand),
                                                   std::move(q), false);
    }
    case ExprKind::kExists: {
      auto q = QueryMarker(expected);
      queries->push_back(q.get());
      return std::make_unique<sql::ExistsExpr>(std::move(q), false);
    }
    case ExprKind::kScalarSubquery: {
      auto q = QueryMarker(expected);
      queries->push_back(q.get());
      return std::make_unique<sql::ScalarSubqueryExpr>(std::move(q));
    }
    case ExprKind::kBetween: {
      ExprPtr operand = Marker(expected);
      ExprPtr low = Marker(expected);
      ExprPtr high = Marker(expected);
      return std::make_unique<sql::BetweenExpr>(
          std::move(operand), std::move(low), std::move(high), false);
    }
    case ExprKind::kLike: {
      ExprPtr operand = Marker(expected);
      ExprPtr pattern = Marker(expected);
      return std::make_unique<sql::LikeExpr>(std::move(operand),
                                             std::move(pattern), false);
    }
    case ExprKind::kCase: {
      std::vector<std::pair<ExprPtr, ExprPtr>> whens;
      for (int i = 0; i < 2; ++i) {
        ExprPtr cond = Marker(expected);
        ExprPtr value = Marker(expected);
        whens.emplace_back(std::move(cond), std::move(value));
      }
      ExprPtr else_expr = full ? Marker(expected) : nullptr;
      return std::make_unique<sql::CaseExpr>(std::move(whens),
                                             std::move(else_expr));
    }
  }
  return nullptr;
}

Seq WithoutQueries(const Seq& seq, const Seq& queries) {
  Seq out;
  for (const void* p : seq) {
    if (std::find(queries.begin(), queries.end(), p) == queries.end()) {
      out.push_back(p);
    }
  }
  return out;
}

TEST(TreeWalk, AstExprEveryKindVisitsEachSlotOnceInOrder) {
  for (int k = 0; k <= 2 * static_cast<int>(ExprKind::kCase) + 1; ++k) {
    SCOPED_TRACE(k);
    Seq expected;
    Seq queries;
    ExprPtr node =
        MakeExpr(static_cast<ExprKind>(k / 2), k % 2 == 0, &expected, &queries);
    ASSERT_NE(node, nullptr);

    Seq seen;
    const sql::Expr& const_node = *node;
    sql::ForEachChild(
        const_node, [&](const ExprPtr& c) { seen.push_back(c.get()); },
        [&](const sql::QueryExpr& q) { seen.push_back(&q); });
    EXPECT_EQ(seen, expected);

    // The two-argument form stops at subqueries.
    Seq exprs_only;
    sql::ForEachChild(const_node,
                      [&](const ExprPtr& c) { exprs_only.push_back(c.get()); });
    EXPECT_EQ(exprs_only, WithoutQueries(expected, queries));

    // The mutable form yields the parent's own slots: replacing through
    // them is what the const walk sees next.
    Seq replaced;
    sql::ForEachChild(
        *node,
        [&](ExprPtr& c) {
          c = sql::MakeLiteral(Value::Null());
          replaced.push_back(c.get());
        },
        [&](sql::QueryExpr& q) { replaced.push_back(&q); });
    Seq after;
    sql::ForEachChild(
        const_node, [&](const ExprPtr& c) { after.push_back(c.get()); },
        [&](const sql::QueryExpr& q) { after.push_back(&q); });
    EXPECT_EQ(after, replaced);
    EXPECT_EQ(WithoutQueries(replaced, queries).size(),
              WithoutQueries(expected, queries).size());
  }
}

TEST(TreeWalk, QueryWalkYieldsEveryClauseInOrder) {
  Seq expected;
  sql::QueryExpr query;

  sql::SelectCore first;
  sql::SelectItem star;
  star.is_star = true;
  first.items.push_back(std::move(star));  // no expression: skipped
  sql::SelectItem item;
  item.expr = Marker(&expected);
  first.items.push_back(std::move(item));
  sql::FromItem from;
  from.ref.kind = sql::TableRef::Kind::kSubquery;
  from.ref.subquery = QueryMarker(&expected);
  from.ref.alias = "d";
  sql::JoinClause derived_join;
  derived_join.ref.kind = sql::TableRef::Kind::kSubquery;
  derived_join.ref.subquery = QueryMarker(&expected);
  derived_join.ref.alias = "e";
  derived_join.on = Marker(&expected);
  from.joins.push_back(std::move(derived_join));
  sql::JoinClause base_join;
  base_join.ref.table_name = "t";
  base_join.on = Marker(&expected);
  from.joins.push_back(std::move(base_join));
  first.from.push_back(std::move(from));
  first.where = Marker(&expected);
  first.group_by.push_back(Marker(&expected));
  first.group_by.push_back(Marker(&expected));
  first.having = Marker(&expected);
  query.terms.push_back(std::move(first));

  sql::SelectCore second;
  sql::SelectItem second_item;
  second_item.expr = Marker(&expected);
  second.items.push_back(std::move(second_item));
  query.terms.push_back(std::move(second));
  query.union_all.push_back(true);

  sql::OrderByItem by_position;
  by_position.position = 1;  // no expression: skipped
  query.order_by.push_back(std::move(by_position));
  sql::OrderByItem by_expr;
  by_expr.expr = Marker(&expected);
  query.order_by.push_back(std::move(by_expr));

  Seq seen;
  const sql::QueryExpr& const_query = query;
  sql::ForEachChild(
      const_query, [&](const ExprPtr& e) { seen.push_back(e.get()); },
      [&](const sql::QueryExpr& q) { seen.push_back(&q); });
  EXPECT_EQ(seen, expected);

  Seq mutable_seen;
  sql::ForEachChild(
      query, [&](ExprPtr& e) { mutable_seen.push_back(e.get()); },
      [&](sql::QueryExpr& q) { mutable_seen.push_back(&q); });
  EXPECT_EQ(mutable_seen, expected);
}

// --- Bound expressions ------------------------------------------------------

BoundExprPtr BoundMarker(Seq* expected) {
  auto m = std::make_unique<BoundLiteral>(
      Value::Int64(static_cast<int64_t>(expected->size())));
  expected->push_back(m.get());
  return m;
}

PlanPtr PlanMarker(Seq* expected) {
  auto p = std::make_unique<CteScanNode>();
  expected->push_back(p.get());
  return p;
}

BoundExprPtr MakeBound(BoundExprKind kind, bool full, Seq* expected,
                       Seq* plans) {
  switch (kind) {
    case BoundExprKind::kLiteral:
      return std::make_unique<BoundLiteral>(Value::Int64(1));
    case BoundExprKind::kColumnRef:
      return std::make_unique<BoundColumnRef>(0, 0, ColumnType::kInt64, "c");
    case BoundExprKind::kUnary: {
      BoundExprPtr a = BoundMarker(expected);
      return std::make_unique<BoundUnary>(sql::UnaryOp::kNot, std::move(a));
    }
    case BoundExprKind::kBinary: {
      BoundExprPtr a = BoundMarker(expected);
      BoundExprPtr b = BoundMarker(expected);
      return std::make_unique<BoundBinary>(sql::BinaryOp::kAdd, std::move(a),
                                           std::move(b));
    }
    case BoundExprKind::kFunctionCall: {
      std::vector<BoundExprPtr> args;
      for (int i = 0; i < 3; ++i) args.push_back(BoundMarker(expected));
      return std::make_unique<BoundFunctionCall>(nullptr, std::move(args));
    }
    case BoundExprKind::kCast: {
      BoundExprPtr a = BoundMarker(expected);
      return std::make_unique<BoundCast>(std::move(a), ColumnType::kInt64);
    }
    case BoundExprKind::kIsNull: {
      BoundExprPtr a = BoundMarker(expected);
      return std::make_unique<BoundIsNull>(std::move(a), false);
    }
    case BoundExprKind::kInList: {
      BoundExprPtr operand = BoundMarker(expected);
      std::vector<BoundExprPtr> items;
      items.push_back(BoundMarker(expected));
      items.push_back(BoundMarker(expected));
      return std::make_unique<BoundInList>(std::move(operand),
                                           std::move(items), false);
    }
    case BoundExprKind::kBetween: {
      BoundExprPtr operand = BoundMarker(expected);
      BoundExprPtr low = BoundMarker(expected);
      BoundExprPtr high = BoundMarker(expected);
      return std::make_unique<BoundBetween>(std::move(operand), std::move(low),
                                            std::move(high), false);
    }
    case BoundExprKind::kLike: {
      BoundExprPtr operand = BoundMarker(expected);
      BoundExprPtr pattern = BoundMarker(expected);
      return std::make_unique<BoundLike>(std::move(operand),
                                         std::move(pattern), false);
    }
    case BoundExprKind::kCase: {
      std::vector<std::pair<BoundExprPtr, BoundExprPtr>> whens;
      for (int i = 0; i < 2; ++i) {
        BoundExprPtr cond = BoundMarker(expected);
        BoundExprPtr value = BoundMarker(expected);
        whens.emplace_back(std::move(cond), std::move(value));
      }
      BoundExprPtr else_expr = full ? BoundMarker(expected) : nullptr;
      return std::make_unique<BoundCase>(std::move(whens),
                                         std::move(else_expr));
    }
    case BoundExprKind::kSubquery: {
      // IN has an operand; EXISTS does not.
      BoundExprPtr operand = full ? BoundMarker(expected) : nullptr;
      PlanPtr plan = PlanMarker(expected);
      plans->push_back(plan.get());
      return std::make_unique<BoundSubquery>(
          full ? SubqueryKind::kIn : SubqueryKind::kExists, std::move(operand),
          std::move(plan), false, false);
    }
  }
  return nullptr;
}

TEST(TreeWalk, BoundExprEveryKindVisitsEachSlotOnceInOrder) {
  for (int k = 0; k <= 2 * static_cast<int>(BoundExprKind::kSubquery) + 1;
       ++k) {
    SCOPED_TRACE(k);
    Seq expected;
    Seq plans;
    BoundExprPtr node = MakeBound(static_cast<BoundExprKind>(k / 2),
                                  k % 2 == 0, &expected, &plans);
    ASSERT_NE(node, nullptr);

    Seq seen;
    const BoundExpr& const_node = *node;
    ForEachChild(
        const_node, [&](const BoundExprPtr& c) { seen.push_back(c.get()); },
        [&](const PlanPtr& p) { seen.push_back(p.get()); });
    EXPECT_EQ(seen, expected);

    Seq exprs_only;
    ForEachChild(const_node, [&](const BoundExprPtr& c) {
      exprs_only.push_back(c.get());
    });
    EXPECT_EQ(exprs_only, WithoutQueries(expected, plans));

    Seq replaced;
    ForEachChild(
        *node,
        [&](BoundExprPtr& c) {
          c = std::make_unique<BoundLiteral>(Value::Null());
          replaced.push_back(c.get());
        },
        [&](PlanPtr& p) {
          p = std::make_unique<CteScanNode>();
          replaced.push_back(p.get());
        });
    Seq after;
    ForEachChild(
        const_node, [&](const BoundExprPtr& c) { after.push_back(c.get()); },
        [&](const PlanPtr& p) { after.push_back(p.get()); });
    EXPECT_EQ(after, replaced);
    EXPECT_EQ(replaced.size(), expected.size());
  }
}

// --- Plans ------------------------------------------------------------------

struct PlanCase {
  PlanPtr node;
  Seq children;  // ForEachChild markers
  Seq exprs;     // ForEachExpr markers
};

PlanCase MakePlan(PlanKind kind, bool full) {
  PlanCase c;
  auto optional_expr = [&]() -> BoundExprPtr {
    return full ? BoundMarker(&c.exprs) : nullptr;
  };
  switch (kind) {
    case PlanKind::kScan: {
      auto n = std::make_unique<ScanNode>();
      n->filter = optional_expr();
      c.node = std::move(n);
      break;
    }
    case PlanKind::kCteScan:
      c.node = std::make_unique<CteScanNode>();
      break;
    case PlanKind::kFilter: {
      auto n = std::make_unique<FilterNode>();
      n->predicate = BoundMarker(&c.exprs);
      n->child = PlanMarker(&c.children);
      c.node = std::move(n);
      break;
    }
    case PlanKind::kProject: {
      auto n = std::make_unique<ProjectNode>();
      n->exprs.push_back(BoundMarker(&c.exprs));
      n->exprs.push_back(BoundMarker(&c.exprs));
      if (full) n->child = PlanMarker(&c.children);  // else SELECT <consts>
      c.node = std::move(n);
      break;
    }
    case PlanKind::kNestedLoopJoin: {
      auto n = std::make_unique<NestedLoopJoinNode>();
      n->predicate = optional_expr();
      n->left = PlanMarker(&c.children);
      n->right = PlanMarker(&c.children);
      c.node = std::move(n);
      break;
    }
    case PlanKind::kIndexJoin: {
      auto n = std::make_unique<IndexJoinNode>();
      n->residual = optional_expr();
      n->left = PlanMarker(&c.children);
      n->right = PlanMarker(&c.children);
      c.node = std::move(n);
      break;
    }
    case PlanKind::kAggregate: {
      auto n = std::make_unique<AggregateNode>();
      n->group_exprs.push_back(BoundMarker(&c.exprs));
      n->group_exprs.push_back(BoundMarker(&c.exprs));
      n->aggregates.push_back(
          BoundAggregate{AggKind::kSum, BoundMarker(&c.exprs), false});
      // COUNT(*) has no argument slot.
      n->aggregates.push_back(BoundAggregate{AggKind::kCountStar, nullptr});
      n->aggregates.push_back(
          BoundAggregate{AggKind::kMax, BoundMarker(&c.exprs), false});
      n->having = optional_expr();
      n->child = PlanMarker(&c.children);
      c.node = std::move(n);
      break;
    }
    case PlanKind::kSort: {
      auto n = std::make_unique<SortNode>();
      n->child = PlanMarker(&c.children);
      c.node = std::move(n);
      break;
    }
    case PlanKind::kDistinct: {
      auto n = std::make_unique<DistinctNode>();
      n->child = PlanMarker(&c.children);
      c.node = std::move(n);
      break;
    }
    case PlanKind::kUnion: {
      auto n = std::make_unique<UnionNode>();
      for (int i = 0; i < 3; ++i) {
        n->children.push_back(PlanMarker(&c.children));
      }
      c.node = std::move(n);
      break;
    }
    case PlanKind::kLimit: {
      auto n = std::make_unique<LimitNode>();
      n->child = PlanMarker(&c.children);
      c.node = std::move(n);
      break;
    }
  }
  return c;
}

TEST(TreeWalk, PlanEveryKindVisitsEachSlotOnceInOrder) {
  for (int k = 0; k <= 2 * static_cast<int>(PlanKind::kLimit) + 1; ++k) {
    SCOPED_TRACE(k);
    PlanCase c = MakePlan(static_cast<PlanKind>(k / 2), k % 2 == 0);
    ASSERT_NE(c.node, nullptr);
    const PlanNode& const_node = *c.node;

    Seq children;
    ForEachChild(const_node,
                 [&](const PlanPtr& p) { children.push_back(p.get()); });
    EXPECT_EQ(children, c.children);
    Seq exprs;
    ForEachExpr(const_node,
                [&](const BoundExprPtr& e) { exprs.push_back(e.get()); });
    EXPECT_EQ(exprs, c.exprs);

    Seq replaced_children;
    ForEachChild(*c.node, [&](PlanPtr& p) {
      p = std::make_unique<CteScanNode>();
      replaced_children.push_back(p.get());
    });
    Seq replaced_exprs;
    ForEachExpr(*c.node, [&](BoundExprPtr& e) {
      e = std::make_unique<BoundLiteral>(Value::Null());
      replaced_exprs.push_back(e.get());
    });
    Seq children_after;
    ForEachChild(const_node,
                 [&](const PlanPtr& p) { children_after.push_back(p.get()); });
    Seq exprs_after;
    ForEachExpr(const_node,
                [&](const BoundExprPtr& e) { exprs_after.push_back(e.get()); });
    EXPECT_EQ(children_after, replaced_children);
    EXPECT_EQ(exprs_after, replaced_exprs);
    EXPECT_EQ(replaced_children.size(), c.children.size());
    EXPECT_EQ(replaced_exprs.size(), c.exprs.size());
  }
}

}  // namespace
}  // namespace pdm
