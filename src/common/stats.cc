#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace datacron {

void RunningStats::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / count_;
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const std::size_t n = count_ + other.count_;
  const double delta = other.mean_ - mean_;
  const double new_mean = mean_ + delta * other.count_ / n;
  m2_ += other.m2_ +
         delta * delta * (static_cast<double>(count_) * other.count_) / n;
  mean_ = new_mean;
  count_ = n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

std::string RunningStats::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%zu mean=%.4g stddev=%.4g min=%.4g max=%.4g", count_,
                mean(), stddev(), min(), max());
  return buf;
}

double PercentileTracker::Percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (p <= 0) return samples_.front();
  if (p >= 100) return samples_.back();
  const double rank = p / 100.0 * (samples_.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double frac = rank - lo;
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

void LogHistogram::Add(double x, std::size_t n) {
  const auto v = x <= 0.0 ? std::uint64_t{0} : static_cast<std::uint64_t>(x);
  const std::size_t b =
      v == 0 ? 0
             : std::min<std::size_t>(kBuckets - 1,
                                     64 - std::countl_zero(v));
  counts_[b] += n;
  total_ += n;
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
  total_ += other.total_;
}

double LogHistogram::Percentile(double p) const {
  if (total_ == 0) return 0.0;
  const double want = p / 100.0 * static_cast<double>(total_);
  std::size_t rank = static_cast<std::size_t>(std::ceil(want));
  rank = std::min(std::max<std::size_t>(rank, 1), total_);
  std::size_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen >= rank) {
      if (b == 0) return 0.0;
      const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
      return lo * 1.5;  // midpoint of [2^(b-1), 2^b)
    }
  }
  return 0.0;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / static_cast<double>(bins)), counts_(bins) {}

void Histogram::Add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  const std::size_t i = static_cast<std::size_t>((x - lo_) / width_);
  if (i >= counts_.size()) {
    ++overflow_;
    return;
  }
  ++counts_[i];
}

std::string Histogram::ToString(int bar_width) const {
  std::size_t max_count = 1;
  for (std::size_t c : counts_) max_count = std::max(max_count, c);
  std::string out;
  char line[256];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const int bar =
        static_cast<int>(static_cast<double>(counts_[i]) / max_count *
                         bar_width);
    std::snprintf(line, sizeof(line), "[%10.4g, %10.4g) %8zu ", BinLow(i),
                  BinHigh(i), counts_[i]);
    out += line;
    out.append(static_cast<std::size_t>(bar), '#');
    out += '\n';
  }
  if (underflow_ || overflow_) {
    std::snprintf(line, sizeof(line), "underflow=%zu overflow=%zu\n",
                  underflow_, overflow_);
    out += line;
  }
  return out;
}

}  // namespace datacron
