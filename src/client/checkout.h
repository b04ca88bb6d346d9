#ifndef PDM_CLIENT_CHECKOUT_H_
#define PDM_CLIENT_CHECKOUT_H_

#include <string>
#include <string_view>
#include <vector>

#include "client/connection.h"
#include "client/strategies.h"
#include "common/result.h"
#include "pdm/user_context.h"
#include "rules/rule.h"

namespace pdm::client {

/// The three ways to run the paper's check-out action (Section 6
/// discussion): it "cannot be represented in one single query" —
/// retrieval and the flag update need separate communications unless the
/// whole flow moves to the server.
enum class CheckOutMethod {
  /// Navigational retrieval + one UPDATE per object: the status quo.
  kNavigational,
  /// One recursive retrieval + one batched UPDATE per object table.
  kRecursiveBatched,
  /// One CALL to a server-side procedure (function shipping).
  kStoredProcedure,
};

std::string_view CheckOutMethodName(CheckOutMethod method);

/// Bound on re-submissions of a conflicted UPDATE. Every lost wave
/// means some other writer committed (first-writer-wins guarantees
/// global progress), so a client loses at most as many consecutive
/// waves as its peers have batches left to commit. The bound is sized
/// well past any realistic contention — exhausting it means livelock,
/// and the conflict surfaces as the statement's status (callers treat
/// it like any other error).
inline constexpr int kMaxConflictRetries = 64;

/// How ExecuteRetryingConflicts ships a group of statements.
enum class Shipping {
  kRoundTripEach,  // one Connection::Execute per statement
  kOneBatch,       // one Connection::ExecuteBatch
};

/// Ships `statements` over `conn`, then re-ships only the slots that
/// lost a first-writer-wins race (StatusCode::kWriteConflict) until none
/// does or kMaxConflictRetries rounds ran; each re-shipped slot counts
/// once in `*retries` and in "mvcc.conflict_retries". Conflicts are
/// retryable, not errors: a re-submission re-evaluates at a fresh
/// snapshot. Any other failure aborts (kRoundTripEach leaves the
/// remaining statements unsent). Returns the acknowledgements in
/// statement order.
Result<std::vector<ResultSet>> ExecuteRetryingConflicts(
    Connection* conn, const std::vector<std::string>& statements,
    Shipping shipping, size_t* retries);

struct CheckOutResult {
  bool success = false;       // denied if a rule failed (e.g. ∀rows)
  size_t objects = 0;         // objects whose flag was flipped
  /// UPDATE statements that lost a first-writer-wins race
  /// (StatusCode::kWriteConflict) and were re-submitted. Conflicts are
  /// retryable, not errors: a concurrent writer committed between this
  /// client's snapshot and its write.
  size_t conflict_retries = 0;
  net::WanStats wan;          // traffic of the whole flow
  double seconds() const { return wan.total_seconds(); }
};

/// Client driver for check-out / check-in over the simulated WAN.
/// The rule table must contain the check-out rules (typically a ∀rows
/// condition "no node already checked out", the paper's rule example 2).
class CheckOutClient {
 public:
  CheckOutClient(Connection* conn, const rules::RuleTable* rules,
                 pdmsys::UserContext user, ClientConfig config)
      : conn_(conn), rules_(rules), user_(std::move(user)), config_(config) {}

  Result<CheckOutResult> CheckOut(int64_t root, CheckOutMethod method) {
    return Run(root, method, /*checking_out=*/true);
  }
  Result<CheckOutResult> CheckIn(int64_t root, CheckOutMethod method) {
    return Run(root, method, /*checking_out=*/false);
  }

 private:
  Result<CheckOutResult> Run(int64_t root, CheckOutMethod method,
                             bool checking_out);
  /// Retrieval and flag UPDATEs at the client; fills all of `out` but
  /// its traffic.
  Status RunClientSide(int64_t root, bool navigational, bool checking_out,
                       CheckOutResult* out);

  Connection* conn_;
  const rules::RuleTable* rules_;
  pdmsys::UserContext user_;
  ClientConfig config_;
};

}  // namespace pdm::client

#endif  // PDM_CLIENT_CHECKOUT_H_
