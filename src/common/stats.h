#ifndef DATACRON_COMMON_STATS_H_
#define DATACRON_COMMON_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace datacron {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
/// O(1) memory; suitable for per-operator metrics on unbounded streams.
class RunningStats {
 public:
  void Add(double x);

  /// Merges another accumulator into this one (parallel reduction).
  void Merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than 2 samples.
  double variance() const { return count_ > 1 ? m2_ / count_ : 0.0; }
  double stddev() const;
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double sum() const { return mean_ * count_; }

  std::string ToString() const;

  bool operator==(const RunningStats&) const = default;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact-percentile collector: stores all samples, sorts on demand (and
/// again after any Add). Use for latency distributions in benchmarks
/// (bounded sample counts).
class PercentileTracker {
 public:
  void Add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  std::size_t count() const { return samples_.size(); }

  /// p in [0, 100]. Returns 0 when empty. Linear interpolation between
  /// the two closest ranks (rank = p/100 * (count - 1)).
  double Percentile(double p) const;

  double p50() const { return Percentile(50); }
  double p95() const { return Percentile(95); }
  double p99() const { return Percentile(99); }
  double Max() const { return Percentile(100); }

  void Clear() { samples_.clear(); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

/// Mergeable log2-bucketed histogram of nonnegative values (operator
/// latencies in nanoseconds). O(1) memory and O(1) Add, so it can run on
/// the hot path of an unbounded stream; per-shard copies fold together
/// with Merge. Percentile answers with the arithmetic midpoint of the
/// bucket holding the rank — ~±25% relative error, plenty for p50/p99
/// latency reporting.
class LogHistogram {
 public:
  /// Records `n` samples of value `x`.
  void Add(double x, std::size_t n = 1);
  void Merge(const LogHistogram& other);

  std::size_t count() const { return total_; }

  /// p in [0, 100]; nearest-rank over the bucket counts. 0 when empty.
  double Percentile(double p) const;
  double p50() const { return Percentile(50); }
  double p99() const { return Percentile(99); }

  /// Raw bucket access for (de)serialization: a histogram rebuilt by
  /// feeding every bucket_count(b) through AddBucketCount merges exactly
  /// like the original. Before these existed, per-shard histograms could
  /// only merge within one process — the cluster metrics path needs them.
  static constexpr std::size_t num_buckets() { return kBuckets; }
  std::size_t bucket_count(std::size_t b) const {
    return b < kBuckets ? counts_[b] : 0;
  }
  void AddBucketCount(std::size_t b, std::size_t n) {
    if (b >= kBuckets || n == 0) return;
    counts_[b] += n;
    total_ += n;
  }

  bool operator==(const LogHistogram&) const = default;

 private:
  /// Bucket b>0 covers [2^(b-1), 2^b); bucket 0 holds zeros.
  static constexpr std::size_t kBuckets = 64;
  std::array<std::size_t, kBuckets> counts_{};
  std::size_t total_ = 0;
};

/// Fixed-width histogram over [lo, hi) with `bins` buckets plus
/// underflow/overflow counters. Used for density rasters and latency
/// summaries where exact samples would be too many.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void Add(double x);
  std::size_t TotalCount() const { return total_; }
  std::size_t BinCount(std::size_t i) const { return counts_[i]; }
  std::size_t bins() const { return counts_.size(); }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  double BinLow(std::size_t i) const { return lo_ + i * width_; }
  double BinHigh(std::size_t i) const { return lo_ + (i + 1) * width_; }

  /// Multi-line ASCII rendering with proportional bars.
  std::string ToString(int bar_width = 40) const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace datacron

#endif  // DATACRON_COMMON_STATS_H_
