#ifndef PDM_OBS_LOG_HISTOGRAM_H_
#define PDM_OBS_LOG_HISTOGRAM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace pdm::obs {

/// HDR-style log-linear histogram over [0, ~73 minutes] of seconds with
/// bounded relative error — the registry's one histogram type
/// (DESIGN.md 5k).
///
/// Layout: observations are converted to integer nanoseconds and binned
/// into octaves of 2^kSubBits = 128 linear sub-buckets each. Values
/// below 128 ns get one exact bucket per nanosecond; above, a bucket
/// spans value/128, so any recorded value is reproduced by its bucket's
/// midpoint within a relative error of 1/256 (< 0.4%); Quantile() is
/// therefore accurate to kMaxRelativeError = 1/128 (< 1%) for every
/// value >= 1 ns, documented loosely as "1% over ns..minutes". Values
/// past the last octave (~2^42 ns) clamp into the final bucket.
///
/// Concurrency: Observe() is lock-free — one relaxed fetch_add on the
/// bucket, a double-bits CAS on the sum and CAS min/max updates — so it
/// is safe on the engine's hot paths and under TSan. Readers
/// (Quantile/total_count/sum) take relaxed snapshots; they are exact
/// whenever no writer is concurrent, and self-consistent enough for
/// monitoring otherwise. Reset() zeroes in place: references stay valid
/// (the MetricsRegistry stability contract).
class LogHistogram {
 public:
  static constexpr int kSubBits = 7;           // 128 sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBits;
  static constexpr int kMaxShift = 34;         // top octave ~2^42 ns (~73 min)
  static constexpr size_t kNumBuckets =
      static_cast<size_t>(kMaxShift + 2) * kSubBuckets;  // 4608
  /// Documented quantile accuracy: |Quantile(q) - exact| <= bound *
  /// exact for every recorded value (bucket width over bucket floor).
  static constexpr double kMaxRelativeError = 1.0 / kSubBuckets;

  LogHistogram();

  /// Records `value_seconds` (negative values clamp to 0).
  void Observe(double value_seconds);

  uint64_t total_count() const;
  double sum() const;  // exact double accumulation (no nanounit overflow)
  /// Smallest / largest recorded value in nanosecond resolution,
  /// clamped to the trackable range like the buckets. 0 when empty.
  double min() const;
  double max() const;

  /// The q-quantile (q in [0, 1]) by nearest rank: the representative
  /// value of the bucket holding element ceil(q * count) of the sorted
  /// observations. 0 when empty. Accuracy: kMaxRelativeError.
  double Quantile(double q) const;

  /// Adds `other`'s buckets, sum and min/max into this histogram.
  void Merge(const LogHistogram& other);

  void Reset();

  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Bucket index for a value in nanoseconds (exposed for tests).
  static size_t BucketIndex(uint64_t nanos);
  /// Representative (midpoint) value of bucket `index`, in nanoseconds.
  static double BucketRepresentativeNanos(size_t index);

 private:
  // unique_ptr keeps the 36 KB bucket array off the stack of
  // by-value-constructed registries and makes the object movable-free.
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> sum_bits_;  // bit_cast of the double sum
  std::atomic<uint64_t> min_nanos_;
  std::atomic<uint64_t> max_nanos_;
};

}  // namespace pdm::obs

#endif  // PDM_OBS_LOG_HISTOGRAM_H_
