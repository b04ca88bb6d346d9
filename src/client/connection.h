#ifndef PDM_CLIENT_CONNECTION_H_
#define PDM_CLIENT_CONNECTION_H_

#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "exec/result_set.h"
#include "net/wan_model.h"
#include "server/db_server.h"

namespace pdm::client {

/// A PDM client's connection to the database server through the
/// simulated WAN. Every Execute() is one round trip: the SQL text goes
/// out (padded to packets), the serialized result comes back; the link
/// accumulates latency/transfer statistics.
class Connection {
 public:
  /// Sizes a result set on the wire; overrides the server's policy.
  /// The wire size of every response is decided here, on the client.
  using ResponseSizer = std::function<size_t(const ResultSet&)>;

  Connection(DbServer* server, net::WanConfig wan)
      : server_(server), link_(wan) {}

  ~Connection() { DetachFromAdmissionQueue(); }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Routes this connection's server traffic through the shared
  /// admission queue (DESIGN.md 5e) as client `client_id`, registering
  /// it as an active queue client. Wire accounting is unchanged — each
  /// Execute/ExecuteBatch is still one round trip on this link; only
  /// server-side execution coalesces across clients. Detach (or destroy
  /// the connection) when the session ends so other clients' waves stop
  /// waiting for this one.
  void AttachToAdmissionQueue(uint64_t client_id);
  void DetachFromAdmissionQueue();
  bool attached_to_admission_queue() const { return admission_attached_; }

  /// One query/response round trip. The response is sized by `sizer`
  /// when given (the strategies charge the paper's per-node size; see
  /// DESIGN.md), by the server's policy otherwise. A failed statement
  /// returns its error and charges no round trip.
  Status Execute(std::string_view sql, ResultSet* out,
                 const ResponseSizer& sizer = nullptr);

  /// One *batched* round trip: all statements ship as one request, all
  /// results return as one response (DESIGN.md 5d). `out` receives one
  /// Result per statement, in statement order — a failing statement
  /// reports its error in its slot without poisoning siblings. OK slots
  /// are sized as in Execute; error slots occupy the 64-byte minimal
  /// frame. An empty batch is a no-op: nothing is sent and no round
  /// trip is charged.
  Status ExecuteBatch(const std::vector<std::string>& statements,
                      std::vector<Result<ResultSet>>* out,
                      const ResponseSizer& sizer = nullptr);

  /// One in-flight pipelined batch exchange (DESIGN.md 5g): the request
  /// is on the wire (WanLink::BeginExchange) and the statements execute
  /// at the server on a background thread. Collect() blocks for the
  /// results and completes the exchange on the link. Destroying a
  /// never-collected PendingBatch drains the server work and aborts the
  /// exchange unaccounted — the fail-fast path can simply drop it
  /// without deadlocking or corrupting the link timeline.
  class PendingBatch {
   public:
    PendingBatch() = default;
    ~PendingBatch();

    PendingBatch(PendingBatch&& other) noexcept
        : conn_(std::exchange(other.conn_, nullptr)),
          future_(std::move(other.future_)),
          n_statements_(other.n_statements_) {}
    PendingBatch& operator=(PendingBatch&& other) noexcept;

    /// False for an empty batch (nothing was issued) or after Collect.
    bool valid() const { return conn_ != nullptr; }
    size_t statements() const { return n_statements_; }

    /// Blocks for the server results, completes the exchange on the
    /// link and fills `out` (one Result per statement, in order, sized
    /// as ExecuteBatch does). Returns the exchange's timeline entry;
    /// zeroed if the batch was invalid.
    net::ExchangeTiming Collect(std::vector<Result<ResultSet>>* out,
                                const ResponseSizer& sizer = nullptr);

   private:
    friend class Connection;

    Connection* conn_ = nullptr;
    std::future<std::vector<DbServer::BatchStatementResult>> future_;
    size_t n_statements_ = 0;
  };

  /// Issues a batch without waiting for it (DESIGN.md 5g). With
  /// `overlap_previous` the exchange is charged as issued at the
  /// previous exchange's transfer start — the speculative issue of a
  /// pipelined client that decoded the streaming prefix. The server work
  /// runs on a background thread (std::async around the same
  /// RunAtServer call ExecuteBatch makes, through the admission queue
  /// when attached) carrying the caller's trace context, so its spans
  /// attach to the issuing action. An empty batch issues nothing and
  /// returns an invalid
  /// handle. At most one pipelined batch may be in flight per
  /// connection (the link serializes exchanges).
  PendingBatch ExecuteBatchPipelined(std::vector<std::string> statements,
                                     bool overlap_previous);

  DbServer& server() { return *server_; }
  net::WanLink& link() { return link_; }
  const net::WanStats& stats() const { return link_.stats(); }
  void ResetStats() { link_.ResetStats(); }

 private:
  /// Executes `statements` at the server: through the admission queue
  /// when attached, directly otherwise.
  std::vector<DbServer::BatchStatementResult> RunAtServer(
      const std::vector<std::string>& statements);

  /// Wire size of one OK response: `sizer` when given, the server's
  /// policy otherwise.
  size_t ResponseBytes(const ResultSet& result,
                       const ResponseSizer& sizer) const {
    return sizer ? sizer(result) : server_->ResponseBytes(result);
  }

  /// Total response size of a batch (error slots: the 64-byte frame),
  /// then the results moved into `out` (may be null).
  size_t UnpackBatch(std::vector<DbServer::BatchStatementResult> results,
                     std::vector<Result<ResultSet>>* out,
                     const ResponseSizer& sizer) const;

  DbServer* server_;
  net::WanLink link_;
  bool admission_attached_ = false;
  uint64_t admission_client_id_ = 0;
};

}  // namespace pdm::client

#endif  // PDM_CLIENT_CONNECTION_H_
