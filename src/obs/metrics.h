#ifndef DATACRON_OBS_METRICS_H_
#define DATACRON_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/stats.h"

namespace datacron {
namespace obs {

/// Process-wide named counters/gauges/histograms. One registry serves the
/// whole process (MetricsRegistry::Global()); every subsystem publishes
/// under a dotted name ("net.tx_bytes", "pool.queue_ns" — see
/// docs/OBSERVABILITY.md for the naming rules). Instruments are created on
/// first lookup and never destroyed, so hot paths cache the returned
/// pointer in a function-local static and pay only the instrument's own
/// (lock-free) update cost per event.

/// Monotonic counter. Adds are relaxed fetch_adds on one of kCells
/// cache-line-padded cells chosen per thread, so concurrent writers on
/// different threads rarely share a line; Value() folds the cells.
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    cells_[CellIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const Cell& c : cells_) {
      total += c.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr std::size_t kCells = 16;
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };

  static std::size_t CellIndex();

  std::array<Cell, kCells> cells_;
};

/// Last-write-wins signed value (queue depths, in-flight windows).
class Gauge {
 public:
  void Set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Thread-safe log2-bucketed histogram with the same bucket layout as
/// LogHistogram (bucket 0 holds zeros, bucket b>0 covers [2^(b-1), 2^b)).
/// Observe is two relaxed fetch_adds; Snapshot() converts to the plain
/// mergeable LogHistogram for reports.
class AtomicLogHistogram {
 public:
  void Observe(double x);
  std::uint64_t Count() const {
    return total_.load(std::memory_order_relaxed);
  }
  LogHistogram Snapshot() const;

 private:
  static constexpr std::size_t kBuckets = LogHistogram::num_buckets();
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> total_{0};
};

/// A point-in-time copy of a registry or of one engine
/// (DatacronEngine::MetricsSnapshot). Snapshots merge across shards, nodes
/// and processes, and dump to a stable sorted text table or JSON object.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, LogHistogram> histograms;

  void AddCounter(const std::string& name, std::uint64_t v) {
    counters[name] += v;
  }
  void AddGauge(const std::string& name, std::int64_t v) {
    gauges[name] = v;
  }
  void AddHistogram(const std::string& name, const LogHistogram& h) {
    histograms[name].Merge(h);
  }

  /// Folds `other` in: counters add, gauges last-write-wins, histograms
  /// merge bucket-wise. Deterministic: merge order never changes the
  /// result for counters/histograms.
  void Merge(const MetricsSnapshot& other);

  /// "name value" lines sorted by name; histograms report count/p50/p99.
  std::string ToText() const;

  /// {"counters":{...},"gauges":{...},"histograms":{...}} with histogram
  /// buckets as [bucket, count] pairs (round-trippable via
  /// LogHistogram::AddBucketCount).
  std::string ToJson() const;

  bool operator==(const MetricsSnapshot&) const = default;
};

class MetricsRegistry {
 public:
  /// The process-wide registry.
  static MetricsRegistry& Global();

  /// Find-or-create; returned pointers are stable for the registry's
  /// lifetime (instruments are never removed).
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  AtomicLogHistogram* histogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<AtomicLogHistogram>, std::less<>>
      histograms_;
};

}  // namespace obs
}  // namespace datacron

#endif  // DATACRON_OBS_METRICS_H_
