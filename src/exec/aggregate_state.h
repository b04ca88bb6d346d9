#ifndef PDM_EXEC_AGGREGATE_STATE_H_
#define PDM_EXEC_AGGREGATE_STATE_H_

#include <string>
#include <unordered_set>

#include "common/result.h"
#include "common/value.h"
#include "plan/plan_node.h"

namespace pdm {

/// Accumulator of one aggregate within one group, shared between the
/// engine's AggregateExecutor and the client's tree aggregates
/// (client/rule_eval.cc) so NULL, overflow and DISTINCT behaviour are
/// identical by construction. SUM/AVG accumulate `sum_double` for ALL
/// numeric inputs in row order — both must feed values in the same
/// order for bit-identical float results.
struct AggState {
  int64_t count = 0;
  double sum_double = 0;
  int64_t sum_int = 0;
  bool saw_double = false;
  Value extreme;  // MIN/MAX accumulator; starts NULL
  std::unordered_set<Row, RowHash, RowEq> distinct_seen;
};

/// Folds one already-evaluated argument value into `state`. NULLs are
/// skipped here (SQL aggregate semantics); COUNT(*) never calls this —
/// it bumps `count` directly.
inline Status AccumulateAggValue(const BoundAggregate& agg, const Value& value,
                                 AggState* state) {
  if (value.is_null()) return Status::OK();  // aggregates skip NULLs
  if (agg.distinct) {
    Row key{value};
    if (!state->distinct_seen.insert(std::move(key)).second) {
      return Status::OK();
    }
  }
  switch (agg.agg_kind) {
    case AggKind::kCount:
      state->count++;
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      if (!value.is_numeric()) {
        return Status::ExecutionError(std::string(AggKindName(agg.agg_kind)) +
                                      " over non-numeric values");
      }
      state->count++;
      if (value.is_double()) state->saw_double = true;
      state->sum_double += value.AsDouble();
      if (value.is_int64()) state->sum_int += value.int64_value();
      break;
    case AggKind::kMin:
    case AggKind::kMax: {
      if (state->extreme.is_null()) {
        state->extreme = value;
        break;
      }
      if (!Value::Comparable(state->extreme, value)) {
        return Status::ExecutionError(std::string(AggKindName(agg.agg_kind)) +
                                      " over incomparable values");
      }
      int c = Value::Compare(value, state->extreme);
      if ((agg.agg_kind == AggKind::kMin && c < 0) ||
          (agg.agg_kind == AggKind::kMax && c > 0)) {
        state->extreme = value;
      }
      break;
    }
    default:
      return Status::Internal("unexpected aggregate kind");
  }
  return Status::OK();
}

/// The aggregate's output value for a finished group.
inline Result<Value> FinalizeAgg(const BoundAggregate& agg,
                                 const AggState& state) {
  switch (agg.agg_kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return Value::Int64(state.count);
    case AggKind::kSum:
      if (state.count == 0) return Value::Null();
      return state.saw_double ? Value::Double(state.sum_double)
                              : Value::Int64(state.sum_int);
    case AggKind::kAvg:
      if (state.count == 0) return Value::Null();
      return Value::Double(state.sum_double /
                           static_cast<double>(state.count));
    case AggKind::kMin:
    case AggKind::kMax:
      return state.extreme;
  }
  return Status::Internal("unexpected aggregate kind");
}

}  // namespace pdm

#endif  // PDM_EXEC_AGGREGATE_STATE_H_
