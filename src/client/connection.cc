#include "client/connection.h"

#include "obs/trace.h"
#include "server/admission_queue.h"

namespace pdm::client {

void Connection::AttachToAdmissionQueue(uint64_t client_id) {
  if (admission_attached_) DetachFromAdmissionQueue();
  admission_client_id_ = client_id;
  admission_attached_ = true;
  server_->admission_queue().RegisterClient();
}

void Connection::DetachFromAdmissionQueue() {
  if (!admission_attached_) return;
  admission_attached_ = false;
  server_->admission_queue().UnregisterClient();
}

std::vector<DbServer::BatchStatementResult> Connection::RunAtServer(
    const std::vector<std::string>& statements) {
  if (admission_attached_) {
    return server_->Submit(admission_client_id_, statements);
  }
  return server_->ExecuteBatch(statements);
}

Status Connection::Execute(std::string_view sql, ResultSet* out,
                           const ResponseSizer& sizer) {
  ResultSet scratch;
  if (out == nullptr) out = &scratch;
  if (admission_attached_) {
    std::vector<std::string> statements{std::string(sql)};
    std::vector<DbServer::BatchStatementResult> results =
        server_->Submit(admission_client_id_, statements);
    PDM_RETURN_NOT_OK(results[0].status);
    *out = std::move(results[0].result);
  } else {
    PDM_RETURN_NOT_OK(server_->Execute(sql, out));
  }
  link_.RecordRoundTrip(sql.size(), ResponseBytes(*out, sizer));
  return Status::OK();
}

size_t Connection::UnpackBatch(
    std::vector<DbServer::BatchStatementResult> results,
    std::vector<Result<ResultSet>>* out, const ResponseSizer& sizer) const {
  size_t response_bytes = 0;
  for (const DbServer::BatchStatementResult& r : results) {
    response_bytes += r.status.ok() ? ResponseBytes(r.result, sizer) : 64;
  }
  if (out != nullptr) {
    out->reserve(results.size());
    for (DbServer::BatchStatementResult& r : results) {
      if (r.status.ok()) {
        out->emplace_back(std::move(r.result));
      } else {
        out->emplace_back(std::move(r.status));
      }
    }
  }
  return response_bytes;
}

namespace {

/// Request payload of a batch: the statements concatenated with one
/// separator byte (';') between them.
size_t BatchRequestBytes(const std::vector<std::string>& statements) {
  size_t bytes = statements.empty() ? 0 : statements.size() - 1;
  for (const std::string& sql : statements) bytes += sql.size();
  return bytes;
}

}  // namespace

Status Connection::ExecuteBatch(const std::vector<std::string>& statements,
                                std::vector<Result<ResultSet>>* out,
                                const ResponseSizer& sizer) {
  if (out != nullptr) out->clear();
  // Empty batch: nothing to ship, no round trip charged.
  if (statements.empty()) return Status::OK();
  size_t response_bytes = UnpackBatch(RunAtServer(statements), out, sizer);
  link_.RecordBatchRoundTrip(BatchRequestBytes(statements), response_bytes,
                             statements.size());
  return Status::OK();
}

Connection::PendingBatch::~PendingBatch() {
  if (conn_ == nullptr) return;
  // Never collected: the action failed before this level's results were
  // needed. Drain the server work (its thread touches shared state) and
  // drop the exchange from the timeline unaccounted.
  if (future_.valid()) future_.wait();
  conn_->link_.AbortExchange();
}

Connection::PendingBatch& Connection::PendingBatch::operator=(
    PendingBatch&& other) noexcept {
  if (this != &other) {
    if (conn_ != nullptr) {
      if (future_.valid()) future_.wait();
      conn_->link_.AbortExchange();
    }
    conn_ = std::exchange(other.conn_, nullptr);
    future_ = std::move(other.future_);
    n_statements_ = other.n_statements_;
  }
  return *this;
}

net::ExchangeTiming Connection::PendingBatch::Collect(
    std::vector<Result<ResultSet>>* out, const ResponseSizer& sizer) {
  if (out != nullptr) out->clear();
  net::ExchangeTiming timing;
  if (conn_ == nullptr) return timing;
  Connection* conn = std::exchange(conn_, nullptr);
  size_t response_bytes = conn->UnpackBatch(future_.get(), out, sizer);
  timing = conn->link_.CompleteExchange(response_bytes);
  return timing;
}

Connection::PendingBatch Connection::ExecuteBatchPipelined(
    std::vector<std::string> statements, bool overlap_previous) {
  PendingBatch pending;
  // Empty batch: nothing to ship, no exchange opened.
  if (statements.empty()) return pending;
  pending.conn_ = this;
  pending.n_statements_ = statements.size();
  link_.BeginExchange(BatchRequestBytes(statements), statements.size(),
                      overlap_previous);
  // The server work runs on a background thread whose thread-local
  // trace context is empty: capture the submitting action's context
  // now, so the batch's spans attach to it.
  pending.future_ = std::async(
      std::launch::async,
      [this, ctx = obs::CurrentContext(), statements = std::move(statements)] {
        obs::ContextScope scope(ctx);
        return RunAtServer(statements);
      });
  return pending;
}

}  // namespace pdm::client
