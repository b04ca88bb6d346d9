#include "plan/plan_node.h"

#include "common/string_util.h"

namespace pdm {

BoundSubquery::BoundSubquery(SubqueryKind k, BoundExprPtr op,
                             std::unique_ptr<PlanNode> p, bool neg, bool corr)
    : BoundExpr(BoundExprKind::kSubquery),
      subquery_kind(k),
      operand(std::move(op)),
      plan(std::move(p)),
      negated(neg),
      correlated(corr) {}

BoundSubquery::~BoundSubquery() = default;

std::string_view PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan:
      return "Scan";
    case PlanKind::kCteScan:
      return "CteScan";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kNestedLoopJoin:
      return "NestedLoopJoin";
    case PlanKind::kIndexJoin:
      return "IndexJoin";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kDistinct:
      return "Distinct";
    case PlanKind::kUnion:
      return "Union";
    case PlanKind::kLimit:
      return "Limit";
  }
  return "?";
}

std::string PlanNode::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string out = pad + std::string(PlanKindName(kind));
  switch (kind) {
    case PlanKind::kScan: {
      const auto& n = static_cast<const ScanNode&>(*this);
      out += "(" + n.table_name + ")";
      if (n.filter != nullptr) out += " [filtered]";
      break;
    }
    case PlanKind::kCteScan: {
      const auto& n = static_cast<const CteScanNode&>(*this);
      out += "(" + n.cte_name + ")";
      break;
    }
    case PlanKind::kAggregate: {
      const auto& n = static_cast<const AggregateNode&>(*this);
      out += StrFormat(" [%zu group(s), %zu agg(s)]", n.group_exprs.size(),
                       n.aggregates.size());
      break;
    }
    case PlanKind::kLimit: {
      const auto& n = static_cast<const LimitNode&>(*this);
      out += StrFormat(" [%lld]", static_cast<long long>(n.limit));
      break;
    }
    default:
      break;
  }
  out += "\n";
  ForEachChild(*this, [&](const PlanPtr& c) {
    if (c != nullptr) out += c->ToString(indent + 1);
  });
  return out;
}

}  // namespace pdm
