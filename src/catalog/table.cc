#include "catalog/table.h"

#include <algorithm>

namespace pdm {

void TableUndo::Rollback() {
  // Reverse order: a statement that killed and then appended restores
  // the pre-statement picture exactly.
  for (auto it = appended.rbegin(); it != appended.rend(); ++it) {
    VersionMeta& m = it->table->versions_.meta(it->pos);
    // end == begin: invisible to every snapshot (begin <= ts < end is
    // unsatisfiable) and prunable by the next GC regardless of horizon.
    m.end_ts.store(m.begin_ts, std::memory_order_release);
    it->table->live_rows_.fetch_sub(1, std::memory_order_relaxed);
  }
  for (auto it = killed.rbegin(); it != killed.rend(); ++it) {
    it->table->versions_.meta(it->pos).end_ts.store(
        kMaxCommitTs, std::memory_order_release);
    it->table->live_rows_.fetch_add(1, std::memory_order_relaxed);
  }
  appended.clear();
  killed.clear();
}

Status Table::Insert(Row row, uint64_t begin_ts) {
  PDM_RETURN_NOT_OK(schema_.ValidateRow(row).WithContext(
      "insert into table '" + name_ + "'"));
  AppendVersion(std::move(row), begin_ts, nullptr);
  return Status::OK();
}

size_t Table::AppendVersion(Row row, uint64_t begin_ts, TableUndo* undo) {
  const size_t pos = AppendUnpublished(std::move(row), begin_ts);
  Publish(pos, undo);
  return pos;
}

size_t Table::AppendUnpublished(Row row, uint64_t begin_ts) {
  const size_t pos = versions_.Append(std::move(row), begin_ts);
  // Index maintenance happens before the position is published: a
  // concurrent index lookup may already surface `pos`, but VisibleAt
  // rejects positions at or past the published bound.
  MaintainIndexesForAppend(pos);
  return pos;
}

void Table::Publish(size_t pos, TableUndo* undo) {
  published_.store(pos + 1, std::memory_order_release);
  live_rows_.fetch_add(1, std::memory_order_relaxed);
  if (undo != nullptr) undo->appended.push_back({this, pos});
}

bool Table::KillVersion(size_t pos, uint64_t end_ts, TableUndo* undo) {
  VersionMeta& m = versions_.meta(pos);
  // First writer wins: a version killed by a writer that committed
  // after the caller's snapshot stays killed; the caller loses.
  uint64_t open = kMaxCommitTs;
  if (!m.end_ts.compare_exchange_strong(open, end_ts,
                                        std::memory_order_acq_rel)) {
    return false;
  }
  live_rows_.fetch_sub(1, std::memory_order_relaxed);
  if (undo != nullptr) undo->killed.push_back({this, pos});
  return true;
}

std::vector<Row> Table::SnapshotRows(uint64_t ts) const {
  std::vector<Row> rows;
  rows.reserve(num_rows());
  ForEachVisible(ts, [&rows](const Row& row) { rows.push_back(row); });
  return rows;
}

size_t Table::PruneVersions(uint64_t horizon) {
  // Exclusive by contract: no readers, no writers. Everything dead at
  // or before the horizon — plus rolled-back versions, whose end ==
  // begin makes them invisible to any snapshot — goes away. Counting
  // pass first: a no-op pass must not rebuild the fragment store.
  const size_t bound = versions_.size();
  size_t pruned = 0;
  for (size_t pos = 0; pos < bound; ++pos) {
    const VersionMeta& m = versions_.meta(pos);
    const uint64_t end = m.end_ts.load(std::memory_order_relaxed);
    if (end <= horizon || end <= m.begin_ts) ++pruned;
  }
  if (pruned == 0) return 0;
  FragmentStore kept(versions_.num_columns());
  Row scratch;
  for (size_t pos = 0; pos < bound; ++pos) {
    const VersionMeta& m = versions_.meta(pos);
    const uint64_t end = m.end_ts.load(std::memory_order_relaxed);
    if (end <= horizon || end <= m.begin_ts) continue;
    versions_.MaterializeRow(pos, &scratch);
    const size_t new_pos = kept.Append(std::move(scratch), m.begin_ts);
    kept.meta(new_pos).end_ts.store(end, std::memory_order_relaxed);
  }
  versions_ = std::move(kept);
  published_.store(versions_.size(), std::memory_order_release);
  InvalidateIndexes();  // survivor positions shifted
  return pruned;
}

void Table::CachedIndex::Add(const ColumnFragment& col, size_t slot,
                             size_t pos) {
  const auto kind = static_cast<ValueKind>(col.kinds[slot]);
  if (kind == ValueKind::kNull) return;  // equality never matches NULL
  if (int64_keys) {
    if (kind == ValueKind::kInt64) {
      const auto x = static_cast<int64_t>(col.fixed[slot]);
      if (IsExactInt64Key(x)) {
        ints[x].push_back(pos);
        return;
      }
    }
    // First key outside the int64 domain: demote. Positions are added
    // in ascending order, so every moved list stays ascending.
    values.reserve(ints.size());
    for (auto& [key, positions] : ints) {
      values.emplace(Value::Int64(key), std::move(positions));
    }
    ints = {};
    int64_keys = false;
  }
  values[col.Load(slot)].push_back(pos);
}

const std::vector<size_t>* Table::CachedIndex::Find(const Value& key) const {
  if (int64_keys) {
    int64_t x = 0;
    if (!ExactInt64ProbeKey(key, &x)) return nullptr;
    auto it = ints.find(x);
    return it == ints.end() ? nullptr : &it->second;
  }
  if (key.is_null()) return nullptr;
  auto it = values.find(key);
  return it == values.end() ? nullptr : &it->second;
}

void Table::MaintainIndexesForAppend(size_t pos) {
  std::lock_guard<std::mutex> lock(index_mutex_);
  const uint64_t old_version = version_++;
  indexed_bound_ = pos + 1;
  for (auto& [column, cached] : indexes_) {
    if (cached.built_version != old_version) continue;  // already stale
    if (column < versions_.num_columns()) {
      cached.Add(versions_.fragment(pos >> kFragmentShift).cols[column],
                 pos & kFragmentMask, pos);
    }
    cached.built_version = version_;
  }
}

void Table::InvalidateIndexes() {
  std::lock_guard<std::mutex> lock(index_mutex_);
  ++version_;
  indexed_bound_ = versions_.size();
}

Table::CachedIndex& Table::EnsureIndexLocked(size_t column) const {
  CachedIndex& cached = indexes_[column];
  if (cached.built_version != version_) {
    cached = CachedIndex();
    if (column < versions_.num_columns()) {
      cached.ints.reserve(indexed_bound_);
      for (size_t base = 0; base < indexed_bound_; base += kFragmentRows) {
        const ColumnFragment& col =
            versions_.fragment(base >> kFragmentShift).cols[column];
        const size_t rows = std::min(kFragmentRows, indexed_bound_ - base);
        for (size_t slot = 0; slot < rows; ++slot) {
          cached.Add(col, slot, base + slot);
        }
      }
    }
    cached.built_version = version_;
  }
  return cached;
}

void Table::IndexLookup(size_t column, std::span<const Value> keys,
                        std::vector<size_t>* out) const {
  out->clear();
  {
    std::lock_guard<std::mutex> lock(index_mutex_);
    const CachedIndex& index = EnsureIndexLocked(column);
    for (const Value& key : keys) {
      if (const std::vector<size_t>* hits = index.Find(key)) {
        out->insert(out->end(), hits->begin(), hits->end());
      }
    }
  }
  // One key's list is ascending already; several keys' lists interleave
  // (and two keys equal under ValueEq, like 5 and 5.0, share one).
  if (keys.size() > 1) {
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
  }
}

std::optional<size_t> Table::FreshIndexCount(
    size_t column, std::span<const Value> keys) const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  auto it = indexes_.find(column);
  if (it == indexes_.end() || it->second.built_version != version_) {
    return std::nullopt;
  }
  size_t count = 0;
  for (const Value& key : keys) {
    if (const std::vector<size_t>* hits = it->second.Find(key)) {
      count += hits->size();
    }
  }
  return count;
}

bool Table::HasFreshIndex(size_t column) const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  auto it = indexes_.find(column);
  return it != indexes_.end() && it->second.built_version == version_;
}

}  // namespace pdm
