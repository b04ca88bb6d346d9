#include "model/cost_model.h"

#include <algorithm>
#include <cmath>

namespace pdm::model {

std::string_view ActionKindName(ActionKind kind) {
  switch (kind) {
    case ActionKind::kQuery:
      return "Query";
    case ActionKind::kSingleLevelExpand:
      return "Expand";
    case ActionKind::kMultiLevelExpand:
      return "MLE";
  }
  return "?";
}

std::string_view StrategyKindName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kNavigationalLate:
      return "late eval";
    case StrategyKind::kNavigationalEarly:
      return "early eval";
    case StrategyKind::kRecursive:
      return "recursion";
    case StrategyKind::kBatchedLate:
      return "batch late";
    case StrategyKind::kBatchedEarly:
      return "batch early";
    case StrategyKind::kPipelinedLate:
      return "pipe late";
    case StrategyKind::kPipelinedEarly:
      return "pipe early";
  }
  return "?";
}

namespace {

/// Σ_{i=1..n} x^i
double GeometricSum(double x, int n) {
  double sum = 0;
  double term = 1;
  for (int i = 1; i <= n; ++i) {
    term *= x;
    sum += term;
  }
  return sum;
}

bool IsPipelined(StrategyKind strategy) {
  return strategy == StrategyKind::kPipelinedLate ||
         strategy == StrategyKind::kPipelinedEarly;
}

/// Strategies that ship one batch per tree level (α + 1 round trips):
/// the batched client and its pipelined refinement, whose wire traffic
/// is identical batch for batch.
bool IsLevelBatched(StrategyKind strategy) {
  return strategy == StrategyKind::kBatchedLate ||
         strategy == StrategyKind::kBatchedEarly || IsPipelined(strategy);
}

/// The navigational regime a batched/pipelined strategy wraps: its
/// per-statement SQL, and therefore its transmitted volume, is
/// identical.
StrategyKind Unbatched(StrategyKind strategy) {
  switch (strategy) {
    case StrategyKind::kBatchedLate:
    case StrategyKind::kPipelinedLate:
      return StrategyKind::kNavigationalLate;
    case StrategyKind::kBatchedEarly:
    case StrategyKind::kPipelinedEarly:
      return StrategyKind::kNavigationalEarly;
    default:
      return strategy;
  }
}

}  // namespace

double VisibleNodes(const TreeParams& tree) {
  return GeometricSum(tree.sigma * tree.branching, tree.depth);
}

double TotalNodes(const TreeParams& tree) {
  return GeometricSum(tree.branching, tree.depth);
}

double QueryCount(StrategyKind strategy, ActionKind action,
                  const TreeParams& tree) {
  if (strategy == StrategyKind::kRecursive) return 1;
  switch (action) {
    case ActionKind::kQuery:
    case ActionKind::kSingleLevelExpand:
      return 1;
    case ActionKind::kMultiLevelExpand:
      // One expand query per visible node plus the root (which "is
      // already at the client" but still gets expanded).
      return VisibleNodes(tree) + 1;
  }
  return 1;
}

double RoundTripCount(StrategyKind strategy, ActionKind action,
                      const TreeParams& tree) {
  if (IsLevelBatched(strategy) && action == ActionKind::kMultiLevelExpand) {
    // One batch per tree level: the root's expand (level 0) plus one
    // batch for each of the α levels below it.
    return tree.depth + 1;
  }
  return QueryCount(strategy, action, tree);
}

double TransmittedNodes(StrategyKind strategy, ActionKind action,
                        const TreeParams& tree) {
  double sw = tree.sigma * tree.branching;
  switch (strategy) {
    case StrategyKind::kNavigationalLate:
    case StrategyKind::kBatchedLate:
    case StrategyKind::kPipelinedLate:
      switch (action) {
        case ActionKind::kQuery:
          return TotalNodes(tree);
        case ActionKind::kSingleLevelExpand:
          return tree.branching;
        case ActionKind::kMultiLevelExpand:
          // Every expanded (visible) node ships all ω children; the
          // client filters. ω * Σ_{i=0..α-1} (σω)^i.
          return tree.branching * (1.0 + GeometricSum(sw, tree.depth - 1));
      }
      break;
    case StrategyKind::kNavigationalEarly:
    case StrategyKind::kBatchedEarly:
    case StrategyKind::kPipelinedEarly:
    case StrategyKind::kRecursive:
      switch (action) {
        case ActionKind::kQuery:
        case ActionKind::kMultiLevelExpand:
          return VisibleNodes(tree);
        case ActionKind::kSingleLevelExpand:
          return sw;
      }
      break;
  }
  return 0;
}

ResponseTime Predict(StrategyKind strategy, ActionKind action,
                     const TreeParams& tree, const NetworkParams& net,
                     double query_bytes) {
  if (IsLevelBatched(strategy) && action == ActionKind::kMultiLevelExpand) {
    // Level-batched regimes (DESIGN.md 5d/5g): same transmitted volume
    // as the wrapped navigational strategy, but latency and packet
    // overheads are paid per level-batch, not per statement. Computed
    // per level so the pipelined overlap term can see each level's
    // transfer time X_i; the summed volume is identical to the
    // aggregate batched form.
    const bool late = Unbatched(strategy) == StrategyKind::kNavigationalLate;
    const bool pipelined = IsPipelined(strategy);
    double sw = tree.sigma * tree.branching;
    double round_trips = RoundTripCount(strategy, action, tree);

    ResponseTime rt;
    rt.latency_part = 2.0 * round_trips * net.latency_s;
    double k = 1;       // k_i = (σω)^i statements in the level-i batch
    double prev_x = 0;  // X_{i-1}
    for (int i = 0; i <= tree.depth; ++i) {
      // Requests: k_i statements of s_q = query_bytes each, concatenated
      // and padded to whole packets per batch. With s_q unknown, fall
      // back to the paper's own simplification that every request
      // message fits one packet.
      double request_packets =
          query_bytes > 0 ? std::ceil(k * query_bytes / net.packet_bytes)
                          : 1.0;
      // Responses: late ships all ω children per expanded node, early
      // only the σω visible ones. The leaf-level expands all come back
      // empty; their minimal 64-byte frames are a visible fraction of
      // the (small) batched volume, so the closed form charges them —
      // the navigational forms don't need to, since their q·size_p/2
      // term swamps the frames. One half-filled final packet per batch.
      double payload =
          i < tree.depth
              ? k * (late ? tree.branching : sw) * net.node_bytes
              : k * 64.0;
      double x = net.TransferSeconds(request_packets * net.packet_bytes +
                                     payload + net.packet_bytes / 2.0);
      rt.transfer_part += x;
      // Pipelined (DESIGN.md 5g): the level-(i) batch is issued at the
      // level-(i-1) response's transfer start, hiding the part of its
      // 2·T_Lat window that coincides with that transfer.
      if (pipelined && i > 0) {
        rt.overlap_hidden += std::min(2.0 * net.latency_s, prev_x);
      }
      prev_x = x;
      k *= sw;
    }
    return rt;
  }
  // Batched Query / single-level expand are single statements and
  // behave exactly like the navigational strategy they wrap.
  strategy = Unbatched(strategy);
  double q = QueryCount(strategy, action, tree);
  double n_t = TransmittedNodes(strategy, action, tree);

  double request_packets = q;
  if (strategy == StrategyKind::kRecursive && query_bytes > 0) {
    // Eq. (5): q_r = packets needed to ship the (large) recursive query.
    request_packets = std::ceil(query_bytes / net.packet_bytes);
  }

  // Eq. (3)/(5): requests as full packets, responses as payload plus a
  // half-filled final packet per response.
  double vol = request_packets * net.packet_bytes + n_t * net.node_bytes +
               request_packets * net.packet_bytes / 2.0;

  ResponseTime rt;
  rt.latency_part = 2.0 * q * net.latency_s;
  rt.transfer_part = net.TransferSeconds(vol);
  return rt;
}

ResponseTime PredictFromTraffic(const NetworkParams& net,
                                const TrafficCounts& counts) {
  ResponseTime rt;
  rt.latency_part = 2.0 * counts.round_trips * net.latency_s;
  double vol = counts.request_packets * net.packet_bytes +
               counts.response_payload_bytes +
               counts.round_trips * net.packet_bytes / 2.0;
  rt.transfer_part = net.TransferSeconds(vol);
  return rt;
}

double ReplicaStalenessSeconds(const NetworkParams& net, double payload_bytes,
                               double apply_seconds) {
  // The pull is one ordinary exchange: a one-packet request (the pull
  // message always fits a packet), the DML payload as the response.
  TrafficCounts counts;
  counts.round_trips = 1;
  counts.request_packets = 1;
  counts.response_payload_bytes = payload_bytes;
  return PredictFromTraffic(net, counts).total() + apply_seconds;
}

ResponseTime PredictPipelinedFromTraffic(
    const NetworkParams& net, const std::vector<ExchangeTraffic>& exchanges) {
  ResponseTime rt;
  rt.latency_part =
      2.0 * static_cast<double>(exchanges.size()) * net.latency_s;
  double prev_x = 0;
  for (size_t i = 0; i < exchanges.size(); ++i) {
    double x = net.TransferSeconds(
        exchanges[i].request_packets * net.packet_bytes +
        exchanges[i].response_payload_bytes + net.packet_bytes / 2.0);
    rt.transfer_part += x;
    // An exchange issued at the previous transfer's start hides exactly
    // the part of its 2·T_Lat window that coincides with that transfer.
    if (i > 0 && exchanges[i].overlapped) {
      rt.overlap_hidden += std::min(2.0 * net.latency_s, prev_x);
    }
    prev_x = x;
  }
  return rt;
}

double ServerSeconds(const ServerCostParams& params, const ServerWork& work) {
  double seconds = params.statement_overhead_s;
  if (work.parsed) seconds += params.parse_plan_s;
  // vec_rows_scanned is a subset of rows_scanned (clamp defensively so
  // inconsistent inputs cannot produce a negative row-engine share).
  const size_t vec = work.vec_rows_scanned < work.rows_scanned
                         ? work.vec_rows_scanned
                         : work.rows_scanned;
  seconds +=
      params.per_row_scan_s * static_cast<double>(work.rows_scanned - vec);
  seconds += params.per_row_scan_vec_s * static_cast<double>(vec);
  seconds += params.per_cte_row_s * static_cast<double>(work.cte_rows_scanned);
  seconds += params.per_result_row_s * static_cast<double>(work.result_rows);
  // The join pair is disjoint (build/nested-loop vs index probes).
  seconds += params.per_row_join_s * static_cast<double>(work.join_probe_rows);
  seconds +=
      params.per_row_join_vec_s * static_cast<double>(work.vec_join_probe_rows);
  seconds += params.per_row_agg_s * static_cast<double>(work.agg_input_rows);
  return seconds;
}

double SavingPercent(const ResponseTime& baseline, const ResponseTime& t) {
  double base = baseline.total();
  if (base <= 0) return 0;
  return (base - t.total()) / base * 100.0;
}

double WaveDedupFactor(size_t clients, double level_statements,
                       size_t coalesce_window) {
  if (clients == 0) return 1.0;
  double by_clients = static_cast<double>(clients);
  if (coalesce_window == 0) return by_clients;  // unbounded window
  if (level_statements <= 0) return 1.0;
  // Whole level-batches per wave under the cap; the first batch is
  // always admitted even when it alone exceeds the window.
  double batches = std::floor(static_cast<double>(coalesce_window) /
                              level_statements);
  if (batches < 1.0) batches = 1.0;
  return std::min(by_clients, batches);
}

double CoalescedParseCostFactor(size_t clients, const TreeParams& tree,
                                size_t coalesce_window) {
  double total = 0;
  double coalesced = 0;
  for (int i = 0; i <= tree.depth; ++i) {
    double k_i = std::pow(tree.sigma * tree.branching, i);
    total += k_i;
    coalesced += k_i / WaveDedupFactor(clients, k_i, coalesce_window);
  }
  if (total <= 0) return 1.0;
  return coalesced / total;
}

std::vector<TreeParams> PaperTreeScenarios() {
  return {
      TreeParams{3, 9, 0.6},
      TreeParams{9, 3, 0.6},
      TreeParams{7, 5, 0.6},
  };
}

std::vector<NetworkParams> PaperNetworkScenarios() {
  return {
      NetworkParams{0.15, 256, 4096, 512},
      NetworkParams{0.15, 512, 4096, 512},
      NetworkParams{0.05, 1024, 4096, 512},
  };
}

std::vector<TableCell> ComputePaperTable(StrategyKind strategy) {
  std::vector<TableCell> cells;
  std::vector<ActionKind> actions;
  if (strategy == StrategyKind::kRecursive) {
    actions = {ActionKind::kMultiLevelExpand};
  } else {
    actions = {ActionKind::kQuery, ActionKind::kSingleLevelExpand,
               ActionKind::kMultiLevelExpand};
  }
  for (const NetworkParams& net : PaperNetworkScenarios()) {
    for (const TreeParams& tree : PaperTreeScenarios()) {
      for (ActionKind action : actions) {
        cells.push_back(
            TableCell{tree, net, action, Predict(strategy, action, tree, net)});
      }
    }
  }
  return cells;
}

}  // namespace pdm::model
