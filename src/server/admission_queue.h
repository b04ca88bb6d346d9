#ifndef PDM_SERVER_ADMISSION_QUEUE_H_
#define PDM_SERVER_ADMISSION_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "server/db_server.h"

namespace pdm {

/// Shared server admission queue coalescing statements from many
/// concurrent clients into execution waves (DESIGN.md 5e) — the
/// cross-client generalization of the single-client level batch. The
/// paper's lesson is that per-exchange overheads dominate; on the
/// server the same logic says per-statement parse/plan work should be
/// amortized over as many concurrently arriving statements as possible.
///
/// Mechanics (leader/follower, like group commit): DbServer::Submit
/// enqueues one client's submission and blocks. When the queue is
/// ready — every registered active client has a submission pending, or
/// the pending statement count reaches Config::coalesce_window — the
/// submitter observing readiness becomes the wave leader: it drains
/// whole submissions (never splitting one) up to the window into a
/// wave, executes the wave through DbServer::ExecuteWave, publishes the
/// results into the submissions' slots, and wakes all waiters. The
/// queue only forms waves; ExecuteWave is the server's one scheduler,
/// shared with direct Execute/ExecuteBatch callers, and it decides the
/// lane policy from the wave's contents: read-only statements with
/// identical fingerprints (same normalized key and parameter values)
/// execute once and fan their result out; DML-carrying submissions of
/// a multi-submission wave run on the MVCC writer lane; barriers and a
/// lone DML-carrying submission run serially with no deduplication.
/// One wave executes at a time per queue; each appends one WaveLogEntry
/// and counts in `server.waves`.
///
/// Registration contract: a client registers before its first Submit
/// and unregisters when its session ends (client/Connection does both
/// when attached). Between those calls it must either have a submission
/// pending or be computing its next one — a registered client that
/// stops submitting without unregistering stalls wave formation for
/// everyone (the queue waits for it). Unregistered callers may Submit
/// too; with no registered clients at all, every submission forms its
/// own wave immediately.
///
/// Wire invariants: coalescing changes neither round trips nor bytes
/// per client — each submission is still one client round trip; only
/// server-side parse/plan work is amortized (by the wave dedup factor).
class AdmissionQueue {
 public:
  /// Per-wave observability, appended by the leader after each wave.
  struct WaveLogEntry {
    uint64_t wave_id = 0;
    size_t statements = 0;         // total statements in the wave
    size_t unique_statements = 0;  // engine executions after dedup
    size_t submissions = 0;        // client submissions coalesced
    size_t clients = 0;            // distinct submitting clients
    bool read_only = false;        // dedup + worker pool eligible
    size_t dml_statements = 0;     // INSERT/UPDATE/DELETE in the wave
    size_t conflicts = 0;          // first-writer-wins losers (retryable)
  };

  explicit AdmissionQueue(DbServer* server) : server_(server) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Declares one more active client whose submissions waves should
  /// wait for. Thread-safe.
  void RegisterClient();

  /// Ends one client's session; may complete the barrier for waiting
  /// submitters. Thread-safe.
  void UnregisterClient();

  size_t active_clients() const;

  /// Blocking submission endpoint (see DbServer::Submit). Returns one
  /// result per statement, in statement order. Thread-safe; the calling
  /// thread may become the wave leader and execute other clients'
  /// statements before returning. An empty span returns immediately
  /// without touching the queue.
  std::vector<DbServer::BatchStatementResult> Submit(
      uint64_t client_id, std::span<const std::string> statements);

  /// Snapshot of the per-wave log (thread-safe copy).
  std::vector<WaveLogEntry> wave_log() const;
  void ClearWaveLog();

 private:
  /// One blocked Submit call. Lives on the submitting thread's stack;
  /// the queue holds pointers only while the submitter waits.
  struct Submission {
    uint64_t client_id = 0;
    std::span<const std::string> statements;
    std::vector<DbServer::BatchStatementResult> results;
    bool done = false;
    /// Submitter's action trace: wave execution spans for these
    /// statements attach to it, and the leader records a queue:wait
    /// span covering enqueue -> drain (t_queue_wait).
    obs::TraceContext trace;
    std::chrono::steady_clock::time_point enqueue_time;
  };

  /// True when a wave should form now: at least one submission is
  /// pending and either every registered client has one pending or the
  /// pending statement count reached the coalesce window.
  bool WaveReadyLocked() const;

  /// Drains one wave and executes it. Called with `lock` held; unlocks
  /// around the engine work and re-locks to publish results.
  void RunWaveLocked(std::unique_lock<std::mutex>& lock);

  DbServer* server_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Submission*> queue_;
  size_t active_clients_ = 0;
  bool wave_in_progress_ = false;
  uint64_t last_wave_id_ = 0;
  std::vector<WaveLogEntry> wave_log_;
};

}  // namespace pdm

#endif  // PDM_SERVER_ADMISSION_QUEUE_H_
