#include "engine/plan_cache.h"

#include <algorithm>

namespace pdm {

namespace {

bool SameOptions(const BinderOptions& a, const BinderOptions& b) {
  return a.predicate_pushdown == b.predicate_pushdown &&
         a.use_index_join == b.use_index_join;
}

}  // namespace

PlanCache::EntryPtr PlanCache::Prepare(BoundSelect bound,
                                       std::vector<Value> params,
                                       uint64_t schema_epoch,
                                       const BinderOptions& options) {
  auto entry = std::make_shared<Entry>();
  const std::vector<bool>& covered = bound.params_bound;
  // A slot beyond `params` means an AST spliced from elsewhere; be safe.
  entry->parameterized =
      covered.size() == params.size() &&
      std::all_of(covered.begin(), covered.end(), [](bool c) { return c; });
  entry->bound = std::move(bound);
  entry->bound_params = std::move(params);
  entry->schema_epoch = schema_epoch;
  entry->binder_options = options;
  return entry;
}

PlanCache::EntryPtr PlanCache::Lookup(const std::string& key,
                                      const std::vector<Value>& params,
                                      uint64_t schema_epoch,
                                      const BinderOptions& options) {
  std::lock_guard<std::mutex> cache_lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    stats_.misses++;
    return nullptr;
  }
  const EntryPtr& entry = it->second->second;
  if (entry->schema_epoch != schema_epoch ||
      !SameOptions(entry->binder_options, options)) {
    EraseLocked(key);
    stats_.invalidations++;
    stats_.misses++;
    return nullptr;
  }
  // Exact-match only: some parameter is folded into plan structure.
  if (!entry->parameterized && params != entry->bound_params) {
    stats_.misses++;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  stats_.hits++;
  return entry;
}

void PlanCache::Insert(const std::string& key, EntryPtr entry) {
  std::lock_guard<std::mutex> cache_lock(mutex_);
  EraseLocked(key);
  lru_.emplace_front(key, std::move(entry));
  index_[key] = lru_.begin();
  EvictToCapacityLocked();
}

void PlanCache::Flush() {
  std::lock_guard<std::mutex> cache_lock(mutex_);
  stats_.invalidations += index_.size();
  index_.clear();
  lru_.clear();
}

void PlanCache::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> cache_lock(mutex_);
  capacity_ = capacity;
  EvictToCapacityLocked();
}

size_t PlanCache::capacity() const {
  std::lock_guard<std::mutex> cache_lock(mutex_);
  return capacity_;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> cache_lock(mutex_);
  return index_.size();
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> cache_lock(mutex_);
  return stats_;
}

void PlanCache::ResetStats() {
  std::lock_guard<std::mutex> cache_lock(mutex_);
  stats_.Reset();
}

void PlanCache::EraseLocked(const std::string& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return;
  lru_.erase(it->second);
  index_.erase(it);
}

void PlanCache::EvictToCapacityLocked() {
  while (index_.size() > capacity_ && !lru_.empty()) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    stats_.evictions++;
  }
}

}  // namespace pdm
