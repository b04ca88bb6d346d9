#include "obs/metrics.h"

#include <algorithm>

namespace pdm::obs {

namespace {

/// The family/labels separator in labeled map keys and the overflow
/// label set every over-budget family shares.
constexpr char kFamilySep = '\x1e';

LabelSet OverflowLabels() { return {{"overflow", "true"}}; }

/// Inverse of EncodeLabels on a labeled map key's suffix.
LabelSet DecodeLabels(std::string_view encoded) {
  LabelSet decoded;
  while (!encoded.empty()) {
    size_t k = encoded.find('\x1f');
    size_t v = encoded.find('\x1f', k + 1);
    decoded.emplace_back(std::string(encoded.substr(0, k)),
                         std::string(encoded.substr(k + 1, v - k - 1)));
    encoded.remove_prefix(v + 1);
  }
  return decoded;
}

}  // namespace

std::string EncodeLabels(LabelSet labels) {
  std::sort(labels.begin(), labels.end());
  std::string encoded;
  for (const auto& [key, value] : labels) {
    encoded += key;
    encoded += '\x1f';
    encoded += value;
    encoded += '\x1f';
  }
  return encoded;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    // Eager-register the guard counter so exported snapshots always
    // carry it (a zero reading is the signal that nothing was dropped).
    r->counter("obs.label_sets_dropped");
    return r;
  }();
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

bool MetricsRegistry::AdmitLabelSetLocked(const std::string& family,
                                          const std::string& encoded_key) {
  // Existing instruments (checked by the callers) never reach here, so
  // this is a genuinely new label set for the family.
  size_t& size = family_sizes_[family];
  if (size >= kMaxLabelSetsPerFamily) {
    // Count the rejection on the guard counter directly: we already
    // hold mutex_, and counter() would deadlock re-locking it.
    auto it = counters_.find("obs.label_sets_dropped");
    if (it == counters_.end()) {
      it = counters_
               .emplace("obs.label_sets_dropped", std::make_unique<Counter>())
               .first;
    }
    it->second->Increment();
    (void)encoded_key;
    return false;
  }
  ++size;
  return true;
}

Counter& MetricsRegistry::counter(std::string_view name, LabelSet labels) {
  std::string family(name);
  std::string key = family + kFamilySep + EncodeLabels(std::move(labels));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = labeled_counters_.find(key);
  if (it == labeled_counters_.end()) {
    if (!AdmitLabelSetLocked(family, key)) {
      // Redirect to the family's shared overflow instrument.
      key = family + kFamilySep + EncodeLabels(OverflowLabels());
      it = labeled_counters_.find(key);
      if (it != labeled_counters_.end()) return it->second->counter;
      auto overflow = std::make_unique<LabeledCounter>();
      overflow->labels = OverflowLabels();
      it = labeled_counters_.emplace(std::move(key), std::move(overflow))
               .first;
      return it->second->counter;
    }
    auto instrument = std::make_unique<LabeledCounter>();
    // EncodeLabels consumed the caller's set; rebuild it from the key's
    // canonical encoding.
    instrument->labels =
        DecodeLabels(std::string_view(key).substr(family.size() + 1));
    it = labeled_counters_.emplace(std::move(key), std::move(instrument))
             .first;
  }
  return it->second->counter;
}

LogHistogram& MetricsRegistry::log_histogram(std::string_view name,
                                             LabelSet labels) {
  std::string family(name);
  std::string key = family + kFamilySep + EncodeLabels(std::move(labels));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = log_histograms_.find(key);
  if (it == log_histograms_.end()) {
    if (!AdmitLabelSetLocked(family, key)) {
      key = family + kFamilySep + EncodeLabels(OverflowLabels());
      it = log_histograms_.find(key);
      if (it != log_histograms_.end()) return it->second->histogram;
      auto overflow = std::make_unique<LabeledLogHistogram>();
      overflow->labels = OverflowLabels();
      it = log_histograms_.emplace(std::move(key), std::move(overflow)).first;
      return it->second->histogram;
    }
    auto instrument = std::make_unique<LabeledLogHistogram>();
    instrument->labels =
        DecodeLabels(std::string_view(key).substr(family.size() + 1));
    it = log_histograms_.emplace(std::move(key), std::move(instrument)).first;
  }
  return it->second->histogram;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, counter] : labeled_counters_) counter->counter.Reset();
  for (auto& [name, histogram] : log_histograms_) {
    histogram->histogram.Reset();
  }
}

std::vector<CounterSnapshot> MetricsRegistry::CounterSnapshots() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CounterSnapshot> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.push_back(CounterSnapshot{name, counter->value()});
  }
  return out;
}

std::vector<GaugeSnapshot> MetricsRegistry::GaugeSnapshots() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<GaugeSnapshot> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.push_back(GaugeSnapshot{name, gauge->value()});
  }
  return out;
}

std::vector<LabeledCounterSnapshot> MetricsRegistry::LabeledCounterSnapshots()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<LabeledCounterSnapshot> out;
  out.reserve(labeled_counters_.size());
  for (const auto& [key, instrument] : labeled_counters_) {
    LabeledCounterSnapshot snap;
    snap.name = key.substr(0, key.find(kFamilySep));
    snap.labels = instrument->labels;
    snap.value = instrument->counter.value();
    out.push_back(std::move(snap));
  }
  return out;
}

std::vector<LogHistogramSnapshot> MetricsRegistry::LogHistogramSnapshots()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<LogHistogramSnapshot> out;
  out.reserve(log_histograms_.size());
  for (const auto& [key, instrument] : log_histograms_) {
    LogHistogramSnapshot snap;
    snap.name = key.substr(0, key.find(kFamilySep));
    snap.labels = instrument->labels;
    const LogHistogram& h = instrument->histogram;
    snap.total_count = h.total_count();
    snap.sum = h.sum();
    snap.min = h.min();
    snap.max = h.max();
    snap.p50 = h.Quantile(0.5);
    snap.p90 = h.Quantile(0.9);
    snap.p99 = h.Quantile(0.99);
    snap.p999 = h.Quantile(0.999);
    out.push_back(std::move(snap));
  }
  return out;
}

}  // namespace pdm::obs
