#include "server/admission_queue.h"

#include <algorithm>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace pdm {

namespace {

/// Queue-pressure gauges: live depth of the admission queue, sampled by
/// the exporter (DESIGN.md 5k). Registry references are stable.
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().gauge("queue.depth");
  return g;
}

obs::Gauge& QueuePendingStatementsGauge() {
  static obs::Gauge& g =
      obs::MetricsRegistry::Global().gauge("queue.pending_statements");
  return g;
}

}  // namespace

void AdmissionQueue::RegisterClient() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++active_clients_;
}

void AdmissionQueue::UnregisterClient() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_clients_ > 0) --active_clients_;
  // Departure can complete the barrier for the remaining submitters.
  cv_.notify_all();
}

size_t AdmissionQueue::active_clients() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_clients_;
}

bool AdmissionQueue::WaveReadyLocked() const {
  if (queue_.empty()) return false;
  if (active_clients_ == 0) return true;  // nobody to wait for
  size_t statements = 0;
  std::vector<uint64_t> clients;
  clients.reserve(queue_.size());
  for (const Submission* sub : queue_) {
    statements += sub->statements.size();
    if (std::find(clients.begin(), clients.end(), sub->client_id) ==
        clients.end()) {
      clients.push_back(sub->client_id);
    }
  }
  const size_t window = server_->config().coalesce_window;
  if (window > 0 && statements >= window) return true;
  return clients.size() >= active_clients_;
}

std::vector<DbServer::BatchStatementResult> AdmissionQueue::Submit(
    uint64_t client_id, std::span<const std::string> statements) {
  if (statements.empty()) return {};

  Submission sub;
  sub.client_id = client_id;
  sub.statements = statements;
  sub.results.resize(statements.size());
  sub.trace = obs::CurrentContext();
  sub.enqueue_time = std::chrono::steady_clock::now();

  QueueDepthGauge().Increment();
  QueuePendingStatementsGauge().Add(static_cast<int64_t>(statements.size()));

  std::unique_lock<std::mutex> lock(mutex_);
  queue_.push_back(&sub);
  cv_.notify_all();  // our arrival may complete the barrier
  for (;;) {
    if (sub.done) return std::move(sub.results);
    if (!wave_in_progress_ && WaveReadyLocked()) {
      RunWaveLocked(lock);  // we are the leader; loop to re-check `done`
      continue;
    }
    cv_.wait(lock);
  }
}

void AdmissionQueue::RunWaveLocked(std::unique_lock<std::mutex>& lock) {
  wave_in_progress_ = true;
  const size_t window = server_->config().coalesce_window;

  // Drain whole submissions FIFO until the window is reached. The first
  // submission is always taken, so oversized submissions still execute.
  std::vector<Submission*> wave;
  size_t statements = 0;
  while (!queue_.empty()) {
    Submission* sub = queue_.front();
    if (!wave.empty() && window > 0 &&
        statements + sub->statements.size() > window) {
      break;
    }
    queue_.pop_front();
    wave.push_back(sub);
    statements += sub->statements.size();
  }
  const uint64_t wave_id = ++last_wave_id_;

  WaveLogEntry entry;
  entry.wave_id = wave_id;
  entry.statements = statements;
  entry.submissions = wave.size();
  std::vector<uint64_t> clients;
  for (const Submission* sub : wave) {
    if (std::find(clients.begin(), clients.end(), sub->client_id) ==
        clients.end()) {
      clients.push_back(sub->client_id);
    }
  }
  entry.clients = clients.size();

  QueueDepthGauge().Sub(static_cast<int64_t>(wave.size()));
  QueuePendingStatementsGauge().Sub(static_cast<int64_t>(statements));

  // Admission-to-drain wait, computed unconditionally at the drain
  // moment: it feeds the queue.wait_seconds histograms and the wave
  // items' slow-query attribution even when tracing is off. One
  // queue:wait span per submission still attaches to the submitter's
  // trace when the tracer is on.
  obs::Tracer& tracer = obs::Tracer::Global();
  const auto drained = std::chrono::steady_clock::now();
  std::vector<double> waits;
  waits.reserve(wave.size());
  obs::LogHistogram& wait_hist =
      obs::MetricsRegistry::Global().log_histogram("queue.wait_seconds");
  for (const Submission* sub : wave) {
    const double wait_s =
        std::chrono::duration<double>(drained - sub->enqueue_time).count();
    waits.push_back(wait_s);
    wait_hist.Observe(wait_s);
    obs::MetricsRegistry::Global()
        .log_histogram(
            "queue.wait_seconds",
            {{"client", StrFormat("%llu", static_cast<unsigned long long>(
                                              sub->client_id))}})
        .Observe(wait_s);
    if (tracer.enabled()) {
      tracer.RecordWallRange(sub->trace, "queue:wait",
                             obs::ModelTerm::kQueueWait, sub->enqueue_time,
                             drained);
    }
  }

  std::vector<DbServer::WaveItem> items;
  items.reserve(statements);
  for (size_t s = 0; s < wave.size(); ++s) {
    Submission* sub = wave[s];
    for (size_t i = 0; i < sub->statements.size(); ++i) {
      items.push_back(
          DbServer::WaveItem{sub->client_id, sub->statements[i],
                             &sub->results[i], sub->trace,
                             /*submission=*/s, /*queue_wait_s=*/waits[s]});
    }
  }

  // Engine work happens outside the queue lock; `wave_in_progress_`
  // keeps this the queue's only executing wave (direct Execute /
  // ExecuteBatch callers may run waves of their own alongside it).
  lock.unlock();
  DbServer::WaveExecution execution =
      server_->ExecuteWave(items, wave_id, /*batch_id=*/0);
  lock.lock();

  entry.unique_statements = execution.unique_statements;
  entry.read_only = execution.read_only;
  entry.dml_statements = execution.dml_statements;
  entry.conflicts = execution.conflicts;
  wave_log_.push_back(entry);
  obs::MetricsRegistry::Global().counter("server.waves").Increment();
  for (Submission* sub : wave) sub->done = true;
  wave_in_progress_ = false;
  cv_.notify_all();
}

std::vector<AdmissionQueue::WaveLogEntry> AdmissionQueue::wave_log() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return wave_log_;
}

void AdmissionQueue::ClearWaveLog() {
  std::lock_guard<std::mutex> lock(mutex_);
  wave_log_.clear();
}

}  // namespace pdm
