#include "obs/metrics.h"

#include <bit>
#include <cstdio>

namespace datacron {
namespace obs {

std::size_t Counter::CellIndex() {
  // Dense per-thread index; threads spread over the cells round-robin so
  // a fixed worker set gets distinct cells up to kCells threads.
  static std::atomic<std::size_t> next{0};
  thread_local std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kCells;
  return slot;
}

void AtomicLogHistogram::Observe(double x) {
  // Same bucketing as LogHistogram::Add so snapshots merge exactly.
  const auto v =
      x <= 0.0 ? std::uint64_t{0} : static_cast<std::uint64_t>(x);
  const std::size_t b =
      v == 0 ? 0
             : std::min<std::size_t>(kBuckets - 1, 64 - std::countl_zero(v));
  counts_[b].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
}

LogHistogram AtomicLogHistogram::Snapshot() const {
  LogHistogram h;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    h.AddBucketCount(b, counts_[b].load(std::memory_order_relaxed));
  }
  return h;
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] = v;
  for (const auto& [name, h] : other.histograms) histograms[name].Merge(h);
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  char line[256];
  for (const auto& [name, v] : counters) {
    std::snprintf(line, sizeof(line), "%-40s %20llu\n", name.c_str(),
                  static_cast<unsigned long long>(v));
    out += line;
  }
  for (const auto& [name, v] : gauges) {
    std::snprintf(line, sizeof(line), "%-40s %20lld\n", name.c_str(),
                  static_cast<long long>(v));
    out += line;
  }
  for (const auto& [name, h] : histograms) {
    std::snprintf(line, sizeof(line),
                  "%-40s n=%-10zu p50=%-12.0f p99=%.0f\n", name.c_str(),
                  h.count(), h.p50(), h.p99());
    out += line;
  }
  return out;
}

namespace {
void AppendJsonKey(std::string* out, const std::string& name, bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  // Metric names are code-chosen dotted identifiers; escape the two
  // characters that could break the quoting anyway.
  for (char c : name) {
    if (c == '"' || c == '\\') *out += '\\';
    *out += c;
  }
  *out += "\":";
}
}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  char buf[128];
  bool first = true;
  for (const auto& [name, v] : counters) {
    AppendJsonKey(&out, name, &first);
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    out += buf;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    AppendJsonKey(&out, name, &first);
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    out += buf;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    AppendJsonKey(&out, name, &first);
    std::snprintf(buf, sizeof(buf),
                  "{\"count\":%zu,\"p50\":%.0f,\"p99\":%.0f,\"buckets\":[",
                  h.count(), h.p50(), h.p99());
    out += buf;
    bool first_bucket = true;
    for (std::size_t b = 0; b < LogHistogram::num_buckets(); ++b) {
      if (h.bucket_count(b) == 0) continue;
      std::snprintf(buf, sizeof(buf), "%s[%zu,%zu]",
                    first_bucket ? "" : ",", b, h.bucket_count(b));
      out += buf;
      first_bucket = false;
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* r = new MetricsRegistry();
  return *r;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return it->second.get();
}

AtomicLogHistogram* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<AtomicLogHistogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace(name, c->Value());
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace(name, g->Value());
  }
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace(name, h->Snapshot());
  }
  return snap;
}

}  // namespace obs
}  // namespace datacron
