#ifndef PDM_SERVER_STATEMENT_RECORD_H_
#define PDM_SERVER_STATEMENT_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "model/cost_model.h"

namespace pdm {

/// One executed statement, as observed at the server boundary. Every
/// execution path (standalone, batch, wave) builds this one record; the
/// statement log stores it as is and the slow-query log extends it with
/// its labels (DESIGN.md 5d/5k).
struct StatementRecord {
  /// SQL text. Copied only when the statement log or the slow-query log
  /// keeps the record.
  std::string sql;
  /// Normalized fingerprint key of a plan-cacheable SELECT; empty for
  /// DML, DDL, CALL and lexical errors.
  std::string fingerprint;
  size_t result_rows = 0;
  size_t affected_rows = 0;
  /// Serialized size under the server's policy (DbServer::ResponseBytes);
  /// sized only for kept records.
  size_t response_bytes = 0;
  /// True if the statement reused a cached plan (engine/plan_cache.h).
  bool plan_cache_hit = false;
  /// Batch this statement arrived in; 0 = not part of an ExecuteBatch.
  uint64_t batch_id = 0;
  /// Pool worker that executed it (0 = serial / the calling thread).
  size_t worker = 0;
  /// Execution wave of the admission queue that ran this statement;
  /// 0 = the statement did not pass through the queue (DESIGN.md 5e).
  uint64_t wave_id = 0;
  /// Submitting client of a wave statement (meaningful when
  /// wave_id != 0; standalone traffic reports 0).
  uint64_t client_id = 0;
  /// True if this statement never reached the engine: its wave
  /// contained an identical statement (same fingerprint key and
  /// parameters) whose result was fanned out to this slot.
  bool coalesced = false;
  /// Engine work of this statement (0 for coalesced fan-out slots):
  /// base-table and recursive-CTE rows touched (exec/exec_context.h).
  /// `vec_rows_scanned` is the subset of `rows_scanned` swept by the
  /// vectorized engine, charged at the cheaper per-row rate.
  size_t rows_scanned = 0;
  size_t cte_rows_scanned = 0;
  size_t vec_rows_scanned = 0;
  /// Join-probe rows, a disjoint pair: nested-loop probes, and
  /// index-join probes (ExecStats::index_join_probes, under the name the
  /// wall-clock benchmark reads); then aggregate-input rows.
  size_t join_probe_rows = 0;
  size_t vec_join_probe_rows = 0;
  size_t agg_input_rows = 0;
  /// Always 0: the row aggregator is the only one. Kept because the
  /// wall-clock benchmark (wallbench/layers.cc) still reads it.
  size_t vec_agg_input_rows = 0;
  /// Per-term cost split: the simulated t_server charge of Work(), the
  /// wall seconds this machine spent, and the admission-queue wait (0
  /// for non-wave traffic).
  double sim_seconds = 0;
  double wall_seconds = 0;
  double queue_wait_seconds = 0;

  /// The record's engine work, shaped for model::ServerSeconds.
  model::ServerWork Work() const {
    model::ServerWork work;
    work.parsed = !plan_cache_hit;
    work.rows_scanned = rows_scanned;
    work.vec_rows_scanned = vec_rows_scanned;
    work.cte_rows_scanned = cte_rows_scanned;
    work.result_rows = result_rows;
    work.join_probe_rows = join_probe_rows;
    work.vec_join_probe_rows = vec_join_probe_rows;
    work.agg_input_rows = agg_input_rows;
    return work;
  }
};

}  // namespace pdm

#endif  // PDM_SERVER_STATEMENT_RECORD_H_
