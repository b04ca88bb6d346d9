#ifndef PDM_SQL_FINGERPRINT_H_
#define PDM_SQL_FINGERPRINT_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "sql/token.h"

namespace pdm::sql {

/// Normalized form of one SQL statement, produced in the same single
/// pass that lexes it (no parse). It is the server's only reading of
/// the statement text: the plan cache keys on it, the parser consumes
/// its tokens, and the scheduler's lane and label decisions read its
/// flags.
///
/// A fingerprint borrows the text it was made from: its tokens view
/// that text (sql/token.h), so the text must stay alive, unmodified,
/// for as long as the fingerprint is parsed from. `key` and `params`
/// are owned copies.
///
/// Literals are replaced by type-tagged placeholders (`?i` / `?d` /
/// `?s`) and collected into `params` in token order, so that the
/// navigational workload's per-node queries — identical shapes
/// differing only in `link.left = <obid>` — share one key. The key is
/// what engine/plan_cache.h caches bound plans under.
///
/// Three classes of integer literals stay verbatim in the key because
/// the parser folds them into plan *structure* rather than binding them
/// as literal expressions: the LIMIT count, ORDER BY output-column
/// positions, and type lengths (`CAST(x AS VARCHAR(10))`). The
/// classification here must stay in lockstep with Parser::StampedLiteral
/// so that `params[i]` always describes the literal stamped with
/// param_slot i.
struct StatementFingerprint {
  /// Normalized statement text; empty unless `cacheable`.
  std::string key;
  /// Extracted literal values, in token order.
  std::vector<Value> params;
  /// True for SELECT/WITH statements — the only ones worth caching.
  bool cacheable = false;
  /// True when the first token is INSERT, UPDATE or DELETE (after any
  /// comments, in any letter case).
  bool dml = false;
  /// True when the tokens hold the structure-expansion cue: the keyword
  /// pair WITH RECURSIVE, or the qualified column `link . left` (any
  /// case). Literals and comments never count. It feeds the `expand`
  /// statement-class label (server/slow_query_log.h).
  bool expand = false;
  /// The token stream, views into the statement text, reusable to parse
  /// the statement without re-lexing on a cache miss.
  std::vector<Token> tokens;
};

/// Tokenizes `sql` and fingerprints it in one pass. Non-SELECT
/// statements come back with `cacheable == false` (tokens still
/// populated). Fails only on lexical errors, with the lexer's
/// ParseError: callers report that status as the statement's outcome
/// instead of lexing again. The result borrows `sql` (see above).
Result<StatementFingerprint> FingerprintSql(std::string_view sql);

/// Process-wide count of FingerprintSql calls (each is one full lexer
/// pass over the statement text). Observability only: the batch/wave
/// execution paths assert through it that every statement is lexed
/// exactly once, and bench/micro_engine reports it per statement.
///
/// Thin shim over the "sql.fingerprint_calls" counter in
/// obs::MetricsRegistry (the process-wide metrics home); kept so
/// existing benches and tests compile unchanged. Note that a full
/// observability reset (MetricsRegistry::ResetAll) zeroes it.
uint64_t FingerprintCallCount();

}  // namespace pdm::sql

#endif  // PDM_SQL_FINGERPRINT_H_
