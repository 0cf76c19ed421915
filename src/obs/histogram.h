// Log-linear latency histogram (HDR-style): nanosecond granularity,
// fixed memory, exactly mergeable.
//
// Values are bucketed into power-of-two octaves split into kSub linear
// sub-buckets each, giving a bounded relative error of 1/kSub (~3%)
// across the full int64 nanosecond range with a few KB of counters.
// Merging is element-wise addition, so merging per-worker shards gives
// byte-identical state to recording the concatenated stream — the
// property sharded telemetry relies on (tests/test_obs.cpp
// LatencyHistogram.MergedShardsEqualSingleStream).
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace rb::obs {

class LatencyHistogram {
 public:
  static constexpr int kSubBits = 5;          // 32 sub-buckets per octave
  static constexpr int kSub = 1 << kSubBits;  // relative error <= 1/32
  // Octave levels for values up to 2^62 ns plus the linear 0..kSub-1 run.
  static constexpr int kLevels = 64 - kSubBits;
  static constexpr int kBuckets = (kLevels + 1) * kSub;

  void record(std::int64_t v, std::uint64_t n = 1) {
    if (v < 0) v = 0;
    counts_[std::size_t(index_of(std::uint64_t(v)))] += n;
    count_ += n;
    sum_ += std::uint64_t(v) * n;
    if (count_ == n || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  /// Element-wise merge; merge-of-shards == single-stream, exactly.
  void merge(const LatencyHistogram& o) {
    for (int i = 0; i < kBuckets; ++i) counts_[std::size_t(i)] += o.counts_[std::size_t(i)];
    if (o.count_ > 0) {
      if (count_ == 0 || o.min_ < min_) min_ = o.min_;
      if (o.max_ > max_) max_ = o.max_;
    }
    count_ += o.count_;
    sum_ += o.sum_;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::int64_t min() const { return count_ ? min_ : 0; }
  std::int64_t max() const { return max_; }
  double mean() const { return count_ ? double(sum_) / double(count_) : 0.0; }

  /// Value at percentile p in [0,100]: the lower bound of the bucket
  /// holding the target rank (deterministic, never interpolated).
  std::int64_t percentile(double p) const {
    if (count_ == 0) return 0;
    if (p < 0) p = 0;
    if (p > 100) p = 100;
    const std::uint64_t target =
        std::uint64_t(double(count_) * p / 100.0 + 0.5);
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += counts_[std::size_t(i)];
      if (seen >= target && seen > 0) return lower_bound(i);
    }
    return max_;
  }

  /// Visit every non-empty bucket as (lower, upper, count), ascending.
  template <typename F>
  void for_each_bucket(F&& f) const {
    for (int i = 0; i < kBuckets; ++i) {
      if (counts_[std::size_t(i)] == 0) continue;
      f(lower_bound(i), upper_bound(i), counts_[std::size_t(i)]);
    }
  }

  friend bool operator==(const LatencyHistogram&,
                         const LatencyHistogram&) = default;

  static int index_of(std::uint64_t v) {
    if (v < std::uint64_t(kSub)) return int(v);
    const int msb = std::bit_width(v) - 1;  // >= kSubBits
    const int level = msb - kSubBits + 1;
    const int shift = msb - kSubBits;
    return level * kSub + int((v >> shift) & std::uint64_t(kSub - 1));
  }

  static std::int64_t lower_bound(int idx) {
    const int level = idx >> kSubBits;
    const int sub = idx & (kSub - 1);
    if (level == 0) return sub;
    return std::int64_t(std::uint64_t(kSub + sub) << (level - 1));
  }

  static std::int64_t upper_bound(int idx) {
    const int level = idx >> kSubBits;
    if (level == 0) return lower_bound(idx);
    return lower_bound(idx) + (std::int64_t(1) << (level - 1)) - 1;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace rb::obs
