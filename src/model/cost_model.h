#ifndef PDM_MODEL_COST_MODEL_H_
#define PDM_MODEL_COST_MODEL_H_

#include <string>
#include <string_view>
#include <vector>

namespace pdm::model {

/// WAN parameters as used in the paper's Section 2 (Table 1):
/// `latency_s` = T_Lat, `dtr_kbit` = data transfer rate in kbit/s,
/// `packet_bytes` = size_p, `node_bytes` = avg node size.
/// Units decoded from the paper's own numbers: 1 kbit = 1024 bit,
/// 1 kB = 1024 B.
struct NetworkParams {
  double latency_s = 0.15;
  double dtr_kbit = 256;
  double packet_bytes = 4096;
  double node_bytes = 512;

  /// Seconds to push `bytes` through the link (excluding latency).
  double TransferSeconds(double bytes) const {
    return bytes * 8.0 / (dtr_kbit * 1024.0);
  }
};

/// Product-structure shape: a complete tree of depth `depth` (α) whose
/// internal nodes have `branching` (ω) children; `sigma` (σ) is the
/// probability that a user may see a branch (rule selectivity).
struct TreeParams {
  int depth = 3;       // α
  int branching = 9;   // ω
  double sigma = 0.6;  // σ
};

/// The paper's three user actions (Section 2).
enum class ActionKind {
  kQuery,             // all nodes, no structure information
  kSingleLevelExpand, // direct children of the root
  kMultiLevelExpand,  // the entire (visible) structure
};

/// The paper's three evaluation regimes (Table 2 / Table 3 / Table 4)
/// plus this repo's batched extension: level-wise batching of the
/// navigational queries (same SQL, α + 1 round trips instead of
/// n_v + 1; DESIGN.md 5d).
enum class StrategyKind {
  kNavigationalLate,   // isolated queries, rules evaluated at the client
  kNavigationalEarly,  // isolated queries, rules pushed into WHERE
  kRecursive,          // one recursive query + early rule evaluation
  kBatchedLate,        // level-wise batched navigational, late eval
  kBatchedEarly,       // level-wise batched navigational, early eval
  kPipelinedLate,      // batched + speculative level overlap, late eval
  kPipelinedEarly,     // batched + speculative level overlap, early eval
};

std::string_view ActionKindName(ActionKind kind);
std::string_view StrategyKindName(StrategyKind kind);

/// A predicted response time, split as the paper's tables print it.
/// `overlap_hidden` is the latency a pipelined client hides under
/// still-streaming responses (DESIGN.md 5g); zero for every other
/// strategy, so total() stays the historical latency + transfer sum.
struct ResponseTime {
  double latency_part = 0;    // c * T_Lat
  double transfer_part = 0;   // vol / dtr
  double overlap_hidden = 0;  // latency overlapped with prior transfers
  double total() const {
    return latency_part + transfer_part - overlap_hidden;
  }
};

/// n_v(t) = Σ_{i=1..α} (σω)^i — visible nodes below the root.
double VisibleNodes(const TreeParams& tree);

/// Σ_{i=1..α} ω^i — all nodes below the root.
double TotalNodes(const TreeParams& tree);

/// Number of queries q the strategy issues for the action. For
/// navigational multi-level expands every visible node *including the
/// root* is expanded once (q = n_v + 1, matching the paper's Table 2
/// latency entries); the recursive strategy always issues one query.
/// The batched strategies still *issue* n_v + 1 statements — only their
/// round-trip count drops (see RoundTripCount).
double QueryCount(StrategyKind strategy, ActionKind action,
                  const TreeParams& tree);

/// Number of WAN round trips. Equal to QueryCount except for batched
/// multi-level expands, where all statements of one tree level share a
/// round trip: α + 1 (levels 0..α below and including the root's).
double RoundTripCount(StrategyKind strategy, ActionKind action,
                      const TreeParams& tree);

/// Number of nodes transmitted over the WAN (n_t in eq. (3), n_v in
/// eq. (5)).
double TransmittedNodes(StrategyKind strategy, ActionKind action,
                        const TreeParams& tree);

/// Full prediction per equations (1)-(6). `query_bytes` sizes the
/// request: for the recursive strategy it is the whole statement's size;
/// for the batched strategies it is the *per-statement* size s_q (a
/// level's request ships k_i concatenated statements, padded to whole
/// packets per batch). With 0, every request message is assumed to fit
/// one packet — the paper's own simplification.
///
/// Batched multi-level expand closed form (DESIGN.md 5d):
///   latency  = (α+1) · 2 · T_Lat                  [vs (n_v+1)·2·T_Lat]
///   volume   = Σ_{i=0..α} ⌈k_i·s_q/size_p⌉·size_p  (requests)
///            + n_t · size_n                        (payload, unchanged)
///            + (α+1) · size_p/2                    (one half-filled final
///                                                   packet per *batch*)
///            + (σω)^α · 64                         (empty-result frames of
///                                                   the leaf-level expands)
/// where k_i = (σω)^i is the number of statements in the level-i batch.
///
/// Pipelined multi-level expand (DESIGN.md 5g) adds, on top of the
/// identical batched volume, the latency hidden by speculative issue:
///   hidden = Σ_{i=0..α-1} min(2·T_Lat, X_i)
/// with X_i the level-i batch's transfer time — each level's latency
/// window overlaps the previous response's still-running transfer.
ResponseTime Predict(StrategyKind strategy, ActionKind action,
                     const TreeParams& tree, const NetworkParams& net,
                     double query_bytes = 0);

/// Percentage saving of `t` versus `baseline` (the paper's "saving in %"
/// rows).
double SavingPercent(const ResponseTime& baseline, const ResponseTime& t);

// ---------------------------------------------------------------------------
// Per-component reconciliation (DESIGN.md 5f)
// ---------------------------------------------------------------------------

/// Realized WAN traffic of one action, as the simulator measured it
/// (net::WanStats). Substituting these counts for the closed-form tree
/// terms isolates eqs. (1)-(3) from the stochastic σ realization: the
/// prediction below must then match the traced per-component sums
/// exactly, which is what bench/trace_breakdown asserts.
struct TrafficCounts {
  double round_trips = 0;
  double request_packets = 0;
  double response_payload_bytes = 0;
};

/// Eqs. (1)-(3) evaluated on realized traffic (paper accounting):
///   latency  = 2 · round_trips · T_Lat
///   transfer = (request_packets · size_p + response_payload
///               + round_trips · size_p / 2) / dtr
ResponseTime PredictFromTraffic(const NetworkParams& net,
                                const TrafficCounts& counts);

/// Realized traffic of one exchange of a pipelined action, in
/// completion order (mirrors net::ExchangeRecord without depending on
/// net/ — callers convert).
struct ExchangeTraffic {
  double request_packets = 0;
  double response_payload_bytes = 0;
  /// True if this exchange was issued against the previous response's
  /// stream (speculative issue at its transfer start).
  bool overlapped = false;
};

/// The pipelined closed form evaluated on realized per-exchange traffic
/// (paper accounting). With X_i the level-i transfer time
///   X_i = (req_pkts_i * size_p + payload_i + size_p / 2) / dtr:
///   latency  = 2 * n * T_Lat
///   transfer = Σ X_i
///   hidden   = Σ_{i overlapped} min(2 * T_Lat, X_{i-1})
/// — an exchange issued at the previous transfer's start hides exactly
/// the part of its latency window that coincides with that transfer.
/// Degenerates to PredictFromTraffic when nothing is overlapped;
/// bench/table_pipelined reconciles this against the simulator per cell.
ResponseTime PredictPipelinedFromTraffic(
    const NetworkParams& net, const std::vector<ExchangeTraffic>& exchanges);

// ---------------------------------------------------------------------------
// Replica staleness (DESIGN.md 5l)
// ---------------------------------------------------------------------------

/// Closed-form visible staleness of one replication shipment: commit on
/// the primary to applied-and-readable on the site replica, for a
/// shipment that finds the replication channel idle. The stream is a
/// pull over the site's WAN link — one one-packet pull request out, the
/// batch's DML text back — so the paper's eq. (1)-(3) accounting applies
/// verbatim with one round trip:
///   staleness = 2*T_Lat + (size_p + payload + size_p/2) / dtr + t_apply
/// where `payload_bytes` is the concatenated DML text of the shipped
/// records and `apply_seconds` the replica-side replay cost. A shipment
/// that found the channel busy additionally waits out the previous
/// transfer (net::ReplicationShipment::queued); the simulator reports
/// that queueing on top of this floor.
double ReplicaStalenessSeconds(const NetworkParams& net, double payload_bytes,
                               double apply_seconds);

/// Simulated server-cost model — the t_server term of eq. (1), which
/// the paper neglects ("transmission costs are the dominating
/// limitation factor") but whose attribution the tracer reports. The
/// constants are calibration knobs, not measurements: they charge parse
/// and scan work in simulated seconds so that t_server is deterministic
/// and reconcilable, unlike wall time.
struct ServerCostParams {
  double statement_overhead_s = 5.0e-5;  // dispatch + result framing
  double parse_plan_s = 2.0e-4;          // lex + parse + bind (cache miss)
  double per_row_scan_s = 1.0e-6;        // base-table rows, row engine
  /// Base-table rows swept by the vectorized engine (DESIGN.md 5i).
  /// Calibrated at 1/5 of the row-engine rate — the CI-gated floor of
  /// the measured columnar speedup (bench/micro_engine) — so t_server
  /// attribution tracks which engine actually served the scan.
  double per_row_scan_vec_s = 2.0e-7;
  double per_cte_row_s = 1.0e-6;         // recursive-CTE rows touched
  double per_result_row_s = 5.0e-7;      // rows serialized into the reply
  /// Join-probe rows, split by the engine that consumed them like the
  /// scan rates above; the vectorized rate, at the same 1/5
  /// calibration, charges the batch engine's index join, so the
  /// recursive expand's per-level semi-join is cheaper in t_server
  /// exactly when that join serves it. Aggregate-input rows have one
  /// rate: the row aggregator is the only one.
  double per_row_join_s = 1.0e-6;
  double per_row_join_vec_s = 2.0e-7;
  double per_row_agg_s = 1.0e-6;
};

/// Engine work of one statement, as ServerSeconds charges it. The scan
/// pair is subset-style (`vec_rows_scanned` ⊆ `rows_scanned`); the
/// join pair is disjoint — each probe row is counted by exactly one
/// engine (exec/exec_context.h).
struct ServerWork {
  bool parsed = false;  // false when a cached plan skipped parse/bind
  size_t rows_scanned = 0;
  size_t vec_rows_scanned = 0;
  size_t cte_rows_scanned = 0;
  size_t result_rows = 0;
  size_t join_probe_rows = 0;
  size_t vec_join_probe_rows = 0;
  size_t agg_input_rows = 0;
};

/// Simulated server seconds of one statement's work.
double ServerSeconds(const ServerCostParams& params, const ServerWork& work);

// ---------------------------------------------------------------------------
// Cross-client coalescing (DESIGN.md 5e)
// ---------------------------------------------------------------------------

/// Statements served per engine execution when `clients` identical
/// sessions coalesce a level of `level_statements` statements each under
/// a wave cap of `coalesce_window` statements (0 = unbounded):
///   c_eff = min(clients, max(1, ⌊W / k⌋))
/// A wave never splits one client's level-batch, so a window smaller
/// than the batch still admits one whole batch (factor 1 — coalescing
/// degrades to uncoalesced, never below it). Round trips per client are
/// unchanged by coalescing; only server CPU is divided by this factor.
double WaveDedupFactor(size_t clients, double level_statements,
                       size_t coalesce_window);

/// Server-side parse/plan work per statement for a coalesced multi-level
/// expand, as a fraction of the uncoalesced work:
///   Σ_{i=0..α} k_i / c_eff(i)  /  Σ_{i=0..α} k_i,   k_i = (σω)^i
/// with c_eff(i) = WaveDedupFactor(clients, k_i, coalesce_window).
/// Equals 1 for a single client and approaches 1/clients as the window
/// widens past the deepest level's batch.
double CoalescedParseCostFactor(size_t clients, const TreeParams& tree,
                                size_t coalesce_window);

// ---------------------------------------------------------------------------
// The paper's evaluation grid (Tables 2-4, Figures 4-5)
// ---------------------------------------------------------------------------

/// The three tree shapes of Tables 2-4, in paper order.
std::vector<TreeParams> PaperTreeScenarios();

/// The three network configurations of Tables 2-4, in paper order.
std::vector<NetworkParams> PaperNetworkScenarios();

/// One cell of a paper table: predicted latency/transfer/total plus the
/// value printed in the paper (for EXPERIMENTS.md comparisons).
struct TableCell {
  TreeParams tree;
  NetworkParams net;
  ActionKind action;
  ResponseTime predicted;
};

/// All cells of Table 2 (late), Table 3 (early) or Table 4 (recursive,
/// MLE only), in row-major paper order.
std::vector<TableCell> ComputePaperTable(StrategyKind strategy);

}  // namespace pdm::model

#endif  // PDM_MODEL_COST_MODEL_H_
