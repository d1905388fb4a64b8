// Benchmark driver: arrival-to-emit latency under a fixed offered load
// and saturated throughput of the datacron engine, on three workloads.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (inputs come from --seed; the engine sees only the generated
// reports and query texts):
//   live-fleet     in-process sharded DatacronEngine fed by an open-loop
//                  AIS fleet generator through an AdmissionQueue.
//   cluster-alert  two-node LocalCluster (loopback transport) with
//                  standing geofence/proximity/hotspot subscriptions;
//                  delta batches are pushed through a SubscriptionBroker
//                  to subscriber clients on their own threads.
//   store-query    text queries against the partitioned RDF store built
//                  from an ingested fleet.
//
// A run of --seconds is a sequence of rounds. Each round is
//   a latency slice  one second of open-loop load at a fixed offered rate
//                    on the long-lived system. Requests fall due in bursts
//                    and are timed from when they were due, so generator
//                    stalls and queueing count against the system;
//   throughput reps  saturated runs of a fixed input on a fresh system,
//                    until the round's share of the run is used.
// Latency metrics are medians over slices of each slice's quantile;
// throughput is input size over the first quartile of the repetition
// times (see RepThroughput). Interleaving spreads both over the whole
// run, so a passing burst of outside load moves only a few samples.
// Set-up (system construction and warm-up)
// runs kSetupRepeats times and setup_s is its median.
//
// --trace 0 prints the end-to-end rows. --trace 1 prints the per-layer
// rows and switches the program's trace spans on during the latency
// slices only, to split each request's time into per-span busy and self
// time; its latencies include the tracing overhead, so they are not
// the end-to-end figures.
//
// Outputs are checked against a reference computation (a serial
// single-shard engine; a brute-force query evaluator). Progress goes to
// stderr; the last stdout line is the JSON result.
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/local_cluster.h"
#include "common/thread_pool.h"
#include "datacron/engine.h"
#include "net/sub_channel.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/partitioned_store.h"
#include "partition/partitioner.h"
#include "query/engine.h"
#include "query/parser.h"
#include "rdf/vocab.h"
#include "sources/ais_generator.h"
#include "stream/admission.h"

namespace datacron {
namespace {

// --- workload constants ---------------------------------------------------

/// Open-loop arrival schedule: `burst` requests fall due together every
/// `interval_ns` (a receiver or gateway flushing what it buffered), so
/// the offered rate is fixed and independent of how fast the system runs.
struct Schedule {
  std::size_t burst = 1;
  std::int64_t interval_ns = 1000000;

  double rate_per_s() const {
    return 1e9 * static_cast<double>(burst) /
           static_cast<double>(interval_ns);
  }
  std::int64_t Due(std::int64_t begin_ns, std::size_t i) const {
    return begin_ns + static_cast<std::int64_t>(i / burst) * interval_ns;
  }
  /// Requests offered over `seconds`.
  std::size_t Count(double seconds) const {
    return static_cast<std::size_t>(rate_per_s() * seconds);
  }
};

constexpr std::size_t kPoolThreads = 2;
constexpr int kSetupRepeats = 7;
/// Epochs an ingest call may hold (the engines' default in-flight
/// window); a live consumer pops up to this many epochs per call.
constexpr std::size_t kInFlight = 4;
constexpr double kSliceSeconds = 1.0;

// Offered rates. Each rate keeps the long-lived system busy a sixth to a
// quarter of the time (engine_busy_share 0.15-0.25, measured on a
// 4-vCPU x86-64 VM): below the latency knee, so emit_p50 is the service
// time of a burst rather than queueing behind earlier bursts. Doubling
// the cluster-alert rate to 20k/s raised its emit_p50 there from ~7 to
// ~18 ms, so that rate sits within 2x of its knee. Busy share, not the
// fresh-system throughput_per_s, is the basis: an open-loop call of one
// burst pays per-call costs (node round trips, epoch flush) that a
// saturated run amortises, so the offered rates are about a tenth of
// throughput_per_s (live-fleet ~240k reports/s, cluster-alert ~100k,
// store-query ~2.3k queries/s). Every run reports both
// engine_busy_share and offered_load_share (offered rate over its own
// throughput_per_s), which record where the rate sat on the machine that
// ran it.

// live-fleet
constexpr std::size_t kLiveVessels = 500;
constexpr std::size_t kLiveShards = 4;
constexpr std::size_t kLiveEpoch = 256;
constexpr Schedule kLiveLoad = {600, 25000000};  // 24k reports/s
constexpr std::size_t kLiveWarm = 40000;
constexpr std::size_t kLiveChunk = 20000;

// cluster-alert
constexpr std::size_t kClusterVessels = 500;
constexpr std::size_t kClusterNodes = 2;
constexpr std::size_t kClusterEpoch = 512;
constexpr Schedule kClusterLoad = {250, 25000000};  // 10k reports/s
constexpr std::size_t kClusterWarm = 10000;
constexpr std::size_t kClusterChunk = 15000;
/// Standing queries: the smallest registry of the EXPERIMENTS E13 sweep,
/// with its mix (see MakeSubMix) over the same 500-vessel fleet size.
constexpr std::size_t kSubscriptions = 10000;
constexpr SubscriberId kSubscribers[] = {1, 2};

// store-query
constexpr std::size_t kStoreVessels = 200;
constexpr std::size_t kStoreReports = 60000;
constexpr std::size_t kStoreShards = 2;
constexpr int kStorePartitions = 8;
constexpr std::size_t kQueries = 384;
constexpr Schedule kQueryLoad = {6, 20000000};  // 300 queries/s

/// The program's trace spans the --trace 1 rows break time down by.
constexpr std::array<const char*, 18> kSpans = {
    "shard.route",           "shard.drain",
    "shard.barrier",         "shard.global",
    "engine.term_merge_epoch", "engine.global_cep_epoch",
    "cep.cpa_pairs",         "sub.eval_epoch",
    "cluster.epoch_send",    "cluster.node_batch",
    "cluster.delta_export",  "cluster.epoch_recv",
    "cluster.epoch_absorb",  "cluster.delta_import",
    "query.plan",            "query.scan",
    "query.join",            "query.filter"};

const BoundingBox kRegion = BoundingBox::Of(35.0, 23.0, 39.0, 27.0);

// --- time and statistics ----------------------------------------------------

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Sec(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Latency quantiles per slice; a run reports their medians.
struct SliceQuantiles {
  std::vector<double> p50;
  std::vector<double> p90;
  /// Every sample of every slice, for the pooled p99.
  std::vector<double> all;

  void Add(const std::vector<double>& samples) {
    if (samples.empty()) return;
    p50.push_back(Quantile(samples, 0.5));
    p90.push_back(Quantile(samples, 0.9));
    all.insert(all.end(), samples.begin(), samples.end());
  }
};

/// Registry counters the ingest workloads report, summed over the
/// latency slices (Start/Stop around each). Counters are process-wide
/// and cumulative.
class PhaseCounters {
 public:
  static constexpr std::array<const char*, 7> kNames = {
      "shard.epochs", "shard.mailbox_enqueues", "engine.merge_terms",
      "cep.cpa_pairs", "sub.deltas", "sub.push_batches", "net.tx_bytes"};

  PhaseCounters() {
    for (std::size_t i = 0; i < kNames.size(); ++i) {
      counters_[i] = obs::MetricsRegistry::Global().counter(kNames[i]);
    }
  }
  void Start() {
    for (std::size_t i = 0; i < kNames.size(); ++i) {
      start_[i] = counters_[i]->Value();
    }
  }
  void Stop() {
    for (std::size_t i = 0; i < kNames.size(); ++i) {
      total_[i] += static_cast<double>(counters_[i]->Value() - start_[i]);
    }
  }
  double total(std::size_t i) const { return total_[i]; }

 private:
  std::array<obs::Counter*, kNames.size()> counters_ = {};
  std::array<std::uint64_t, kNames.size()> start_ = {};
  std::array<double, kNames.size()> total_ = {};
};

// --- result ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every per-layer row, in print order. A workload sets the rows of the
/// layers it runs; the others print as 0.
std::vector<Metric> LayerRows() {
  std::vector<Metric> rows;
  for (const char* name :
       {"emit_p90_ms", "emit_p99_ms", "admit_wait_p50_ms",
        "generator_late_p99_ms", "engine_call_p50_ms"}) {
    rows.push_back({name, 0.0, "ms"});
  }
  rows.push_back({"engine_busy_share", 0.0, "ratio"});
  rows.push_back({"offered_load_share", 0.0, "ratio"});
  for (const char* name :
       {"reports_per_call", "shard_epochs", "mailbox_enqueues", "merge_terms",
        "cpa_pairs", "events_emitted", "sub_deltas", "push_batches"}) {
    rows.push_back({name, 0.0, "count"});
  }
  rows.push_back({"net_tx_bytes", 0.0, "bytes"});
  rows.push_back({"serial_throughput_per_s", 0.0, "1/s"});
  rows.push_back({"query_rows_mean", 0.0, "count"});
  rows.push_back({"partitions_scanned_mean", 0.0, "count"});
  for (const char* name :
       {"query_parse_ms_mean", "query_plan_ms_mean", "query_scan_ms_mean",
        "query_join_ms_mean", "query_filter_ms_mean"}) {
    rows.push_back({name, 0.0, "ms"});
  }
  for (const char* span : kSpans) {
    rows.push_back({std::string(span) + ".busy_us", 0.0, "us/req"});
    rows.push_back({std::string(span) + ".self_us", 0.0, "us/req"});
  }
  rows.push_back({"trace_spans_dropped", 0.0, "count"});
  return rows;
}

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer = LayerRows();

  void Check(bool ok, const char* what) {
    if (ok) return;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what);
    correct = false;
  }
  void E2e(const char* name, double value, const char* unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value) {
    for (Metric& m : per_layer) {
      if (m.name == name) {
        m.value = value;
        return;
      }
    }
    std::fprintf(stderr, "unknown layer row %s\n", name.c_str());
    std::abort();
  }
  /// The end-to-end rows every workload reports.
  void EndToEnd(const SliceQuantiles& emit, double throughput_per_s,
                double setup_s, double offered_per_s) {
    E2e("emit_p50_ms", Quantile(emit.p50, 0.5), "ms");
    E2e("throughput_per_s", throughput_per_s, "1/s");
    E2e("setup_s", setup_s, "s");
    // Tails move with outside load on a shared machine far more than the
    // median does, so they are reported with the layer rows, ungated.
    Layer("emit_p90_ms", Quantile(emit.p90, 0.5));
    Layer("emit_p99_ms", Quantile(emit.all, 0.99));
    Layer("offered_load_share", offered_per_s / throughput_per_s);
  }
};

/// Busy and self time per span name of the program's trace spans,
/// recorded only during the latency slices of a --trace 1 run (a
/// --trace 0 run never switches tracing on).
class SpanTable {
 public:
  explicit SpanTable(bool on) : on_(on) {}

  void Start() {
    if (!on_) return;
    obs::TraceCollector::Discard();
    obs::EnableTracing(true);
  }

  /// Ends a traced slice that served `requests` reports or queries.
  void Stop(std::size_t requests) {
    if (!on_) return;
    obs::EnableTracing(false);
    requests_ += requests;
    std::vector<obs::TraceSpanRecord> spans = obs::TraceCollector::Drain();
    // A span's children are the later spans of its thread that end inside
    // it; its self time is its duration less its direct children's.
    std::sort(spans.begin(), spans.end(),
              [](const obs::TraceSpanRecord& a, const obs::TraceSpanRecord& b) {
                return std::make_tuple(a.tid, a.start_ns, -a.dur_ns) <
                       std::make_tuple(b.tid, b.start_ns, -b.dur_ns);
              });
    auto end = [&](std::size_t i) {
      return spans[i].start_ns + spans[i].dur_ns;
    };
    std::vector<std::int64_t> children(spans.size(), 0);
    std::vector<std::size_t> open;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      while (!open.empty() && (spans[open.back()].tid != spans[i].tid ||
                               end(open.back()) <= spans[i].start_ns)) {
        open.pop_back();
      }
      if (!open.empty() && end(i) <= end(open.back())) {
        children[open.back()] += spans[i].dur_ns;
      }
      open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      Totals& t = totals_[spans[i].name];
      t.busy_ns += spans[i].dur_ns;
      t.self_ns += spans[i].dur_ns - children[i];
    }
  }

  /// Sets the span rows: microseconds per request, summed over threads.
  void AddRows(RunResult* r) const {
    if (!on_) return;
    const double per = 1e3 * static_cast<double>(std::max<std::size_t>(
                                 1, requests_));
    for (const char* span : kSpans) {
      auto it = totals_.find(span);
      if (it == totals_.end()) continue;
      r->Layer(std::string(span) + ".busy_us",
               static_cast<double>(it->second.busy_ns) / per);
      r->Layer(std::string(span) + ".self_us",
               static_cast<double>(it->second.self_ns) / per);
    }
    r->Layer("trace_spans_dropped",
             static_cast<double>(obs::TraceCollector::DroppedCount()));
  }

 private:
  struct Totals {
    std::int64_t busy_ns = 0;
    std::int64_t self_ns = 0;
  };
  bool on_;
  std::size_t requests_ = 0;
  std::map<std::string, Totals> totals_;
};

void PrintResult(const RunResult& r, bool trace) {
  const std::vector<Metric>& metrics = trace ? r.per_layer : r.end_to_end;
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Runs `setup` kSetupRepeats times (each builds the system from
/// scratch) and returns the median wall time in seconds. `teardown`
/// destroys the previous repeat's system before the clock starts.
double MedianSetupSeconds(const std::function<void()>& teardown,
                          const std::function<void()>& setup) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    teardown();
    const std::int64_t t0 = NowNs();
    setup();
    times.push_back(Sec(NowNs() - t0));
  }
  return Quantile(times, 0.5);
}

/// Rounds in a run of `seconds`: one latency slice plus throughput reps
/// each.
int RoundsFor(double seconds) {
  return std::max(3, static_cast<int>(seconds * 0.7));
}

/// Runs `rounds` rounds over `seconds`: each calls `slice(k)`, then
/// `rep(i)` (returning the seconds its timed part took) at least once and
/// again while the round's share of the run lasts. Returns the rep times.
std::vector<double> RunRounds(double seconds, int rounds,
                              const std::function<void(int)>& slice,
                              const std::function<double(int)>& rep) {
  const std::int64_t start = NowNs();
  std::vector<double> rep_s;
  for (int k = 0; k < rounds; ++k) {
    const std::int64_t round_end =
        start + static_cast<std::int64_t>(seconds * 1e9 * (k + 1) / rounds);
    slice(k);
    do {
      rep_s.push_back(rep(static_cast<int>(rep_s.size())));
    } while (NowNs() < round_end);
  }
  std::fprintf(stderr, "%zu throughput reps: p10 %.4f p50 %.4f p90 %.4f s\n",
               rep_s.size(), Quantile(rep_s, 0.1), Quantile(rep_s, 0.5),
               Quantile(rep_s, 0.9));
  return rep_s;
}

/// Requests per second of reps that each served `size` requests, from the
/// first quartile of the rep times. Outside stalls on a shared host (vCPU
/// steal) only ever lengthen a rep, and a cross-thread workload such as
/// the cluster saw stall spells cover more than half of a run's reps;
/// the first quartile still reads the system's own speed while up to
/// three quarters of the reps are slowed.
double RepThroughput(std::size_t size, const std::vector<double>& rep_s) {
  return static_cast<double>(size) / Quantile(rep_s, 0.25);
}

// --- inputs -----------------------------------------------------------------

/// A time-ordered AIS fleet stream of at least ~`min_reports` reports
/// (fixed 10 s reporting cadence; drop/gap noise as the observation model
/// defaults).
std::vector<PositionReport> FleetStream(std::uint64_t seed,
                                        std::size_t vessels,
                                        std::size_t min_reports) {
  const auto per_vessel = static_cast<std::int64_t>(
      1.3 * static_cast<double>(min_reports) / static_cast<double>(vessels));
  AisGeneratorConfig fleet;
  fleet.region = kRegion;
  fleet.num_vessels = vessels;
  fleet.duration = (per_vessel + 12) * 10 * kSecond;
  fleet.seed = seed;
  ObservationConfig obs;
  obs.fixed_interval_ms = 10 * kSecond;
  obs.seed = seed * 0x9E3779B97F4A7C15ULL + 7;
  return ObserveFleet(GenerateAisFleet(fleet), obs);
}

std::vector<EntityId> Entities(std::span<const PositionReport> stream) {
  std::vector<EntityId> ids;
  for (const PositionReport& r : stream) ids.push_back(r.entity_id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// Random box of side in [min_deg, max_deg] inside kRegion.
BoundingBox RandomBox(std::mt19937_64* rng, double min_deg, double max_deg) {
  std::uniform_real_distribution<double> side(min_deg, max_deg);
  const double h = side(*rng);
  const double w = side(*rng);
  std::uniform_real_distribution<double> lat(kRegion.min_lat,
                                             kRegion.max_lat - h);
  std::uniform_real_distribution<double> lon(kRegion.min_lon,
                                             kRegion.max_lon - w);
  const double la = lat(*rng);
  const double lo = lon(*rng);
  return BoundingBox::Of(la, lo, la + h, lo + w);
}

DatacronEngine::Config FleetEngineConfig(std::size_t shards,
                                         std::size_t epoch) {
  DatacronEngine::Config cfg;
  cfg.region = kRegion;
  cfg.areas.push_back(NamedArea{
      "zone_a", Polygon::Rectangle(BoundingBox::Of(35.5, 23.5, 36.5, 24.5))});
  cfg.areas.push_back(NamedArea{
      "zone_b", Polygon::Rectangle(BoundingBox::Of(37.0, 25.0, 38.0, 26.0))});
  cfg.num_shards = shards;
  cfg.epoch_size = epoch;
  return cfg;
}

// --- open-loop ingest -------------------------------------------------------

/// Per-report and per-call timestamps of one open-loop slice.
struct OpenLoopTrace {
  std::vector<std::int64_t> due_ns;
  std::vector<std::int64_t> push_ns;
  std::vector<std::int64_t> pop_ns;
  std::vector<std::int64_t> emit_ns;
  /// Reports per ingest call, in call order (the reference replays them).
  std::vector<std::size_t> call_sizes;
  std::vector<double> call_ms;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t busy_ns = 0;
  std::uint64_t failed = 0;

  std::vector<double> EmitMs() const { return Since(emit_ns); }
  std::vector<double> WaitMs() const { return Since(pop_ns); }
  std::vector<double> LateMs() const { return Since(push_ns); }

 private:
  std::vector<double> Since(const std::vector<std::int64_t>& at) const {
    std::vector<double> v;
    for (std::size_t i = 0; i < due_ns.size(); ++i) {
      v.push_back(Ms(at[i] - due_ns[i]));
    }
    return v;
  }
};

/// Offers `reports` on `load` from a generator thread through a bounded
/// blocking AdmissionQueue. The calling thread pops what has been released
/// (at most `max_batch`) and hands it to `ingest`, which returns false
/// when the call failed. A report is emitted when the call that carried
/// it returns.
OpenLoopTrace RunOpenLoop(
    std::span<const PositionReport> reports, const Schedule& load,
    std::size_t max_batch,
    const std::function<bool(std::span<const PositionReport>)>& ingest) {
  const std::size_t n = reports.size();
  OpenLoopTrace t;
  t.due_ns.resize(n);
  t.push_ns.resize(n);
  t.pop_ns.resize(n);
  t.emit_ns.resize(n);

  AdmissionQueue<PositionReport>::Options qopts;
  qopts.capacity = 4 * max_batch;
  qopts.policy = AdmissionPolicy::kBlock;
  AdmissionQueue<PositionReport> queue(qopts);

  t.begin_ns = NowNs() + 1000000;
  for (std::size_t i = 0; i < n; ++i) t.due_ns[i] = load.Due(t.begin_ns, i);

  // The generator releases whole bursts: the consumer pops only what was
  // released, so a burst is never split by racing the generator's pushes.
  std::mutex mu;
  std::condition_variable released_cv;
  std::size_t released = 0;
  bool done = false;
  auto release = [&](std::size_t upto, bool last) {
    {
      std::lock_guard<std::mutex> lk(mu);
      released = upto;
      done = last;
    }
    released_cv.notify_one();
  };

  std::thread generator([&] {
    // Default timer slack (50 us) would blur the latencies being
    // measured; ask for precise wake-ups.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    std::size_t i = 0;
    while (i < n) {
      const std::int64_t now = NowNs();
      if (now < t.due_ns[i]) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(t.due_ns[i] - now));
        continue;
      }
      const std::size_t from = i;
      while (i < n && t.due_ns[i] <= now) {
        if (!queue.Push(reports[i])) break;
        ++i;
      }
      const std::int64_t pushed = NowNs();
      for (std::size_t k = from; k < i; ++k) t.push_ns[k] = pushed;
      if (i < n && t.due_ns[i] <= now) break;  // queue closed
      release(i, false);
    }
    queue.Close();
    release(i, true);
  });

  std::size_t next = 0;
  try {
    for (;;) {
      std::size_t avail = 0;
      {
        std::unique_lock<std::mutex> lk(mu);
        released_cv.wait(lk, [&] { return released > next || done; });
        avail = released - next;
      }
      if (avail == 0) break;
      const std::vector<PositionReport> batch =
          queue.PopBatch(std::min(max_batch, avail));
      if (batch.empty()) break;
      const std::int64_t pop = NowNs();
      const bool ok = ingest(batch);
      const std::int64_t emit = NowNs();
      if (!ok) t.failed += batch.size();
      for (std::size_t k = 0; k < batch.size(); ++k) {
        t.pop_ns[next + k] = pop;
        t.emit_ns[next + k] = emit;
      }
      next += batch.size();
      t.busy_ns += emit - pop;
      t.call_sizes.push_back(batch.size());
      t.call_ms.push_back(Ms(emit - pop));
    }
  } catch (...) {
    queue.Close();
    generator.join();
    throw;
  }
  generator.join();
  t.end_ns = NowNs();
  return t;
}

/// Per-layer rows of the ingest workloads, pooled over the slices.
void AddIngestLayers(const std::vector<OpenLoopTrace>& slices,
                     const PhaseCounters& c, std::size_t events,
                     double serial_per_s, RunResult* r) {
  std::vector<double> wait;
  std::vector<double> late;
  std::vector<double> call_ms;
  std::int64_t busy = 0;
  std::int64_t span = 0;
  std::size_t reports = 0;
  std::size_t calls = 0;
  for (const OpenLoopTrace& t : slices) {
    const std::vector<double> w = t.WaitMs();
    const std::vector<double> l = t.LateMs();
    wait.insert(wait.end(), w.begin(), w.end());
    late.insert(late.end(), l.begin(), l.end());
    call_ms.insert(call_ms.end(), t.call_ms.begin(), t.call_ms.end());
    busy += t.busy_ns;
    span += t.end_ns - t.begin_ns;
    reports += t.due_ns.size();
    calls += t.call_sizes.size();
  }
  r->Layer("admit_wait_p50_ms", Quantile(wait, 0.5));
  r->Layer("generator_late_p99_ms", Quantile(late, 0.99));
  r->Layer("engine_call_p50_ms", Quantile(call_ms, 0.5));
  r->Layer("engine_busy_share",
           static_cast<double>(busy) /
               static_cast<double>(std::max<std::int64_t>(1, span)));
  r->Layer("reports_per_call",
           static_cast<double>(reports) /
               static_cast<double>(std::max<std::size_t>(1, calls)));
  r->Layer("shard_epochs", c.total(0));
  r->Layer("mailbox_enqueues", c.total(1));
  r->Layer("merge_terms", c.total(2));
  r->Layer("cpa_pairs", c.total(3));
  r->Layer("events_emitted", static_cast<double>(events));
  r->Layer("sub_deltas", c.total(4));
  r->Layer("push_batches", c.total(5));
  r->Layer("net_tx_bytes", c.total(6));
  r->Layer("serial_throughput_per_s", serial_per_s);
}

// --- live-fleet -------------------------------------------------------------

struct EngineOutputs {
  std::vector<Event> events;
  std::vector<Triple> triples;
  std::vector<Episode> episodes;
  std::size_t critical_points = 0;

  bool operator==(const EngineOutputs&) const = default;
};

/// Finishes `engine` and snapshots everything the determinism contract
/// compares.
EngineOutputs FinishOutputs(DatacronEngine* engine,
                            std::vector<Event> events) {
  const std::vector<Event> fin = engine->Finish();
  events.insert(events.end(), fin.begin(), fin.end());
  EngineOutputs out;
  out.events = std::move(events);
  out.triples = engine->triples();
  out.episodes = engine->episodes();
  out.critical_points = engine->critical_points();
  return out;
}

/// The serial single-shard engine's outputs for `reports`; `per_s`
/// receives its ingest rate.
EngineOutputs SerialOutputs(std::span<const PositionReport> reports,
                            double* per_s) {
  DatacronEngine serial(FleetEngineConfig(1, kLiveEpoch));
  const std::int64_t t0 = NowNs();
  std::vector<Event> events = serial.IngestBatch(reports, nullptr);
  if (per_s != nullptr) {
    *per_s = static_cast<double>(reports.size()) / Sec(NowNs() - t0);
  }
  return FinishOutputs(&serial, std::move(events));
}

RunResult RunLiveFleet(std::uint64_t seed, double seconds, bool trace) {
  RunResult r;
  const int rounds = RoundsFor(seconds);
  const std::size_t per_slice = kLiveLoad.Count(kSliceSeconds);
  const DatacronEngine::Config cfg =
      FleetEngineConfig(kLiveShards, kLiveEpoch);
  const std::vector<PositionReport> stream =
      FleetStream(seed, kLiveVessels, kLiveWarm + rounds * per_slice);
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<DatacronEngine> engine;
  std::vector<Event> events;

  const double setup_s = MedianSetupSeconds(
      [&] {
        engine.reset();
        pool.reset();
      },
      [&] {
        pool = std::make_unique<ThreadPool>(kPoolThreads);
        engine = std::make_unique<DatacronEngine>(cfg);
        events = engine->IngestBatch(
            std::span<const PositionReport>(stream).first(kLiveWarm),
            pool.get());
      });
  const std::span<const PositionReport> all(stream);
  const std::span<const PositionReport> chunk =
      all.first(std::min(kLiveChunk, all.size()));
  std::fprintf(stderr, "live-fleet: %zu reports, %d slices of %zu at %.0f/s\n",
               all.size(), rounds, per_slice, kLiveLoad.rate_per_s());

  std::size_t offset = kLiveWarm;
  std::vector<OpenLoopTrace> slices;
  PhaseCounters counters;
  SpanTable spans(trace);
  SliceQuantiles emit;
  std::size_t slice_events = 0;
  EngineOutputs chunk_out;
  const std::vector<double> rep_s = RunRounds(
      seconds, rounds,
      [&](int) {
        const std::size_t n = std::min(per_slice, all.size() - offset);
        if (n == 0) return;
        counters.Start();
        spans.Start();
        slices.push_back(RunOpenLoop(
            all.subspan(offset, n), kLiveLoad, kLiveEpoch * kInFlight,
            [&](std::span<const PositionReport> b) {
              const std::vector<Event> evs = engine->IngestBatch(b, pool.get());
              events.insert(events.end(), evs.begin(), evs.end());
              slice_events += evs.size();
              return true;
            }));
        spans.Stop(n);
        counters.Stop();
        offset += n;
        emit.Add(slices.back().EmitMs());
      },
      [&](int rep) {
        DatacronEngine fresh(cfg);
        const std::int64_t t0 = NowNs();
        std::vector<Event> evs = fresh.IngestBatch(chunk, pool.get());
        const double s = Sec(NowNs() - t0);
        if (rep == 0) chunk_out = FinishOutputs(&fresh, std::move(evs));
        return s;
      });
  r.attempted = (offset - kLiveWarm) + rep_s.size() * chunk.size();

  double serial_per_s = 0.0;
  r.Check(FinishOutputs(engine.get(), std::move(events)) ==
              SerialOutputs(all.first(offset), &serial_per_s),
          "live-fleet: sharded open-loop output differs from serial engine");
  r.Check(chunk_out == SerialOutputs(chunk, nullptr),
          "live-fleet: throughput output differs from serial engine");
  r.Check(!chunk_out.events.empty() && !chunk_out.triples.empty(),
          "live-fleet: engine emitted no events or triples");

  r.EndToEnd(emit,
             RepThroughput(chunk.size(), rep_s),
             setup_s, kLiveLoad.rate_per_s());
  AddIngestLayers(slices, counters, slice_events, serial_per_s, &r);
  spans.AddRows(&r);
  return r;
}

// --- cluster-alert ---------------------------------------------------------

struct SubMix {
  std::vector<SubscriptionSpec> specs;
  std::vector<SubscriberId> owners;
};

/// The standing-query mix of EXPERIMENTS E13: 70% per-vessel geofences
/// (a quarter with a 5-minute dwell alarm), 10% fleet-wide geofences,
/// 10% proximity watches (half rate-limited to one alarm per 5 minutes)
/// and 10% hotspot thresholds, on boxes of 0.05-0.25 degrees, split
/// across the subscribers.
SubMix MakeSubMix(std::uint64_t seed, std::span<const PositionReport> stream) {
  std::mt19937_64 rng(seed ^ 0x5EEDF00DULL);
  const std::vector<EntityId> ids = Entities(stream);
  std::uniform_int_distribution<std::size_t> pick(0, ids.size() - 1);
  std::uniform_int_distribution<int> roll(0, 9);
  std::bernoulli_distribution quarter(0.25);
  std::bernoulli_distribution half(0.5);
  std::uniform_real_distribution<double> threshold(1.0, 21.0);
  std::uniform_int_distribution<std::uint32_t> window(1, 4);
  SubMix mix;
  for (std::size_t i = 0; i < kSubscriptions; ++i) {
    const int kind = roll(rng);
    GeofenceSpec g;
    g.bbox = RandomBox(&rng, 0.05, 0.25);
    if (kind < 7) {
      g.entity = ids[pick(rng)];
      if (quarter(rng)) g.dwell_ms = 5 * kMinute;
      mix.specs.push_back(SubscriptionSpec::Geofence(g));
    } else if (kind < 8) {
      g.all_entities = true;
      mix.specs.push_back(SubscriptionSpec::Geofence(g));
    } else if (kind < 9) {
      mix.specs.push_back(SubscriptionSpec::Proximity(
          {ids[pick(rng)], half(rng) ? DurationMs{0} : 5 * kMinute}));
    } else {
      mix.specs.push_back(
          SubscriptionSpec::Hotspot({g.bbox, threshold(rng), window(rng)}));
    }
    mix.owners.push_back(kSubscribers[i % std::size(kSubscribers)]);
  }
  return mix;
}

/// A running cluster with its subscriber channels: the coordinator's
/// delta sink pushes through the broker to one client per subscriber,
/// each draining its transport on its own thread.
class ClusterRig {
 public:
  struct Received {
    DeltaBatch batch;
    std::int64_t at_ns = 0;
  };

  ClusterRig() = default;
  ~ClusterRig() { Stop(); }
  ClusterRig(const ClusterRig&) = delete;
  ClusterRig& operator=(const ClusterRig&) = delete;

  Status Start(const SubMix& mix) {
    LocalCluster::Options opts;
    opts.engine = FleetEngineConfig(1, kClusterEpoch);
    opts.num_nodes = kClusterNodes;
    opts.wire = LocalCluster::Wire::kLoopback;
    Result<std::unique_ptr<LocalCluster>> cluster = LocalCluster::Start(opts);
    if (!cluster.ok()) return cluster.status();
    cluster_ = std::move(cluster).value();

    broker_ =
        std::make_unique<SubscriptionBroker>(SubscriptionBroker::Hooks{});
    received_.resize(std::size(kSubscribers));
    for (const SubscriberId sub : kSubscribers) {
      auto [server_side, client_side] = LoopbackTransport::CreatePair();
      broker_->Attach(sub, std::move(server_side));
      clients_.push_back(
          std::make_unique<SubscriberClient>(sub, std::move(client_side)));
    }
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      readers_.emplace_back([this, i] {
        for (;;) {
          Result<DeltaBatch> b = clients_[i]->NextBatch();
          if (!b.ok()) return;
          received_[i].push_back({std::move(b).value(), NowNs()});
        }
      });
    }
    for (std::size_t i = 0; i < mix.specs.size(); ++i) {
      Result<SubscriptionId> id =
          engine().Subscribe(mix.owners[i], mix.specs[i]);
      if (!id.ok()) return id.status();
    }
    engine().subscriptions()->SetDeltaSink(
        [this](const DeltaBatch& b) { broker_->PushBatch(b); });
    return Status::OK();
  }

  ClusterEngine& engine() { return cluster_->engine(); }

  /// Stops the fleet, closes the subscriber channels and joins the
  /// readers; received() is stable afterwards.
  Status Stop() {
    Status s = Status::OK();
    if (cluster_ != nullptr) {
      s = cluster_->Stop();
      cluster_.reset();
    }
    if (broker_ != nullptr) broker_->CloseAll();
    for (std::thread& t : readers_) t.join();
    readers_.clear();
    for (auto& c : clients_) c->Close();
    return s;
  }

  const std::vector<std::vector<Received>>& received() const {
    return received_;
  }

 private:
  std::unique_ptr<LocalCluster> cluster_;
  std::unique_ptr<SubscriptionBroker> broker_;
  std::vector<std::unique_ptr<SubscriberClient>> clients_;
  /// received_[i] is written only by readers_[i] until Stop() joins it.
  std::vector<std::vector<Received>> received_;
  std::vector<std::thread> readers_;
};

/// What a reference engine emitted for the same batches.
struct ReferenceRun {
  std::vector<Event> events;
  std::vector<DeltaBatch> batches;
  double seconds = 0.0;
};

/// Replays `stream` through a serial single-process engine carrying the
/// same subscriptions, cut into the same ingest calls as the cluster run
/// (epochs are cut per call, so deltas line up batch for batch).
ReferenceRun ReferenceDeltas(std::span<const PositionReport> stream,
                             const std::vector<std::size_t>& calls,
                             const SubMix& mix) {
  DatacronEngine engine(FleetEngineConfig(1, kClusterEpoch));
  for (std::size_t i = 0; i < mix.specs.size(); ++i) {
    engine.subscriptions()->Subscribe(mix.owners[i], mix.specs[i]);
  }
  ReferenceRun ref;
  const std::int64_t t0 = NowNs();
  std::size_t off = 0;
  for (const std::size_t n : calls) {
    const std::vector<Event> evs =
        engine.IngestBatch(stream.subspan(off, n), nullptr);
    ref.events.insert(ref.events.end(), evs.begin(), evs.end());
    off += n;
  }
  ref.seconds = Sec(NowNs() - t0);
  ref.batches = engine.subscriptions()->TakeBatches();
  return ref;
}

/// True when every subscriber received exactly its reference batches, in
/// order.
bool SameDeltas(const ClusterRig& rig, const std::vector<DeltaBatch>& ref) {
  for (std::size_t i = 0; i < std::size(kSubscribers); ++i) {
    std::vector<DeltaBatch> want;
    for (const DeltaBatch& b : ref) {
      if (b.subscriber == kSubscribers[i]) want.push_back(b);
    }
    const auto& got = rig.received()[i];
    if (got.size() != want.size()) return false;
    for (std::size_t k = 0; k < got.size(); ++k) {
      if (!(got[k].batch == want[k])) return false;
    }
  }
  return true;
}

RunResult RunClusterAlert(std::uint64_t seed, double seconds, bool trace) {
  RunResult r;
  const int rounds = RoundsFor(seconds);
  const std::size_t per_slice = kClusterLoad.Count(kSliceSeconds);
  const std::vector<PositionReport> stream =
      FleetStream(seed, kClusterVessels, kClusterWarm + rounds * per_slice);
  const SubMix mix = MakeSubMix(seed, stream);
  std::unique_ptr<ClusterRig> rig;
  std::vector<Event> events;
  bool setup_ok = true;

  const double setup_s = MedianSetupSeconds(
      [&] { rig.reset(); },
      [&] {
        rig = std::make_unique<ClusterRig>();
        const Status s = rig->Start(mix);
        Result<std::vector<Event>> warm =
            s.ok() ? rig->engine().IngestBatch(
                         std::span<const PositionReport>(stream).first(
                             kClusterWarm))
                   : Result<std::vector<Event>>(s);
        if (!warm.ok()) {
          std::fprintf(stderr, "cluster set-up failed: %s\n",
                       warm.status().ToString().c_str());
          setup_ok = false;
          return;
        }
        events = std::move(warm).value();
      });
  r.Check(setup_ok, "cluster-alert: set-up failed");
  if (!setup_ok) return r;
  const std::span<const PositionReport> all(stream);
  const std::span<const PositionReport> chunk =
      all.first(std::min(kClusterChunk, all.size()));
  std::fprintf(stderr,
               "cluster-alert: %zu reports, %d slices of %zu at %.0f/s, "
               "%zu subscriptions\n",
               all.size(), rounds, per_slice, kClusterLoad.rate_per_s(),
               mix.specs.size());

  std::size_t offset = kClusterWarm;
  std::vector<OpenLoopTrace> slices;
  PhaseCounters counters;
  SpanTable spans(trace);
  std::size_t slice_events = 0;
  bool chunk_ok = true;
  // Throughput reps ingest the chunk one epoch per call. One call of the
  // whole chunk keeps several epochs in flight across the nodes and runs
  // 2-3x faster with four free cores, but drops to the one-core rate when
  // the host takes cores away, which lasted whole 20 s runs on a shared
  // 4-vCPU VM; epoch-sized calls stay within 1.3x between one and four
  // cores.
  std::vector<std::size_t> chunk_calls;
  for (std::size_t off = 0; off < chunk.size(); off += kClusterEpoch) {
    chunk_calls.push_back(std::min(kClusterEpoch, chunk.size() - off));
  }
  const std::vector<double> rep_s = RunRounds(
      seconds, rounds,
      [&](int) {
        const std::size_t n = std::min(per_slice, all.size() - offset);
        if (n == 0) return;
        counters.Start();
        spans.Start();
        slices.push_back(RunOpenLoop(
            all.subspan(offset, n), kClusterLoad, kClusterEpoch * kInFlight,
            [&](std::span<const PositionReport> b) {
              Result<std::vector<Event>> evs = rig->engine().IngestBatch(b);
              if (!evs.ok()) return false;
              events.insert(events.end(), evs.value().begin(),
                            evs.value().end());
              slice_events += evs.value().size();
              return true;
            }));
        spans.Stop(n);
        counters.Stop();
        offset += n;
      },
      [&](int rep) {
        ClusterRig fresh;
        bool ok = fresh.Start(mix).ok();
        std::vector<Event> evs;
        const std::int64_t t0 = NowNs();
        std::size_t off = 0;
        for (const std::size_t n : chunk_calls) {
          if (!ok) break;
          Result<std::vector<Event>> e =
              fresh.engine().IngestBatch(chunk.subspan(off, n));
          ok = e.ok();
          if (ok) evs.insert(evs.end(), e.value().begin(), e.value().end());
          off += n;
        }
        const double secs = Sec(NowNs() - t0);
        if (!ok || !fresh.Stop().ok()) {
          ++r.failed;
          chunk_ok = false;
        } else if (rep == 0) {
          const ReferenceRun ref = ReferenceDeltas(chunk, chunk_calls, mix);
          chunk_ok = ref.events == evs && SameDeltas(fresh, ref.batches);
        }
        return secs;
      });
  r.Check(rig->Stop().ok(), "cluster-alert: node serve error");
  r.attempted = (offset - kClusterWarm) + rep_s.size() * chunk.size();
  for (const OpenLoopTrace& t : slices) r.failed += t.failed;

  // Reference: serial in-process engine with the same subscriptions, cut
  // into the same calls (warm-up, then every open-loop call).
  std::vector<std::size_t> calls = {kClusterWarm};
  for (const OpenLoopTrace& t : slices) {
    calls.insert(calls.end(), t.call_sizes.begin(), t.call_sizes.end());
  }
  const ReferenceRun ref = ReferenceDeltas(all.first(offset), calls, mix);
  r.Check(ref.events == events,
          "cluster-alert: cluster events differ from serial engine");
  r.Check(SameDeltas(*rig, ref.batches),
          "cluster-alert: pushed delta batches differ from serial engine");
  r.Check(chunk_ok, "cluster-alert: throughput run differs from serial engine");

  // Arrival-to-push: a geofence delta is stamped with its triggering
  // report (entity, time); time it from that report's due time to the
  // subscriber's receipt of the batch carrying it, per slice.
  std::map<std::pair<EntityId, TimestampMs>, std::pair<std::int64_t, int>>
      due;
  {
    std::size_t off = kClusterWarm;
    for (std::size_t k = 0; k < slices.size(); ++k) {
      for (std::size_t i = 0; i < slices[k].due_ns.size(); ++i) {
        const PositionReport& rep = all[off + i];
        due[{rep.entity_id, rep.timestamp}] = {slices[k].due_ns[i],
                                               static_cast<int>(k)};
      }
      off += slices[k].due_ns.size();
    }
  }
  std::vector<std::vector<double>> push_ms(slices.size());
  std::size_t timed = 0;
  for (const auto& per_client : rig->received()) {
    for (const ClusterRig::Received& got : per_client) {
      for (const SubDelta& d : got.batch.deltas) {
        if (d.kind != DeltaKind::kEnter && d.kind != DeltaKind::kExit &&
            d.kind != DeltaKind::kDwell) {
          continue;
        }
        auto it = due.find({d.entity, d.time});
        if (it == due.end()) continue;
        push_ms[it->second.second].push_back(
            Ms(got.at_ns - it->second.first));
        ++timed;
      }
    }
  }
  SliceQuantiles emit;
  for (const std::vector<double>& v : push_ms) emit.Add(v);
  std::fprintf(stderr, "cluster-alert: %zu timed geofence deltas\n", timed);
  r.Check(timed >= 100 * slices.size(),
          "cluster-alert: too few geofence deltas to time");

  r.EndToEnd(emit,
             RepThroughput(chunk.size(), rep_s),
             setup_s, kClusterLoad.rate_per_s());
  AddIngestLayers(slices, counters, slice_events,
                  static_cast<double>(offset) / ref.seconds, &r);
  spans.AddRows(&r);
  return r;
}

// --- store-query -----------------------------------------------------------

struct QuerySpec {
  std::string text;
  /// Cross-partition joins need the global strategy; subject-star
  /// queries run partition-local.
  bool global = false;
};

/// Query texts in the repository's dialect: vessel-track lookups (star,
/// spatial + temporal filter), spatial range scans and two-hop
/// next-node paths, all anchored on data the stream produced.
std::vector<QuerySpec> MakeQueries(std::uint64_t seed,
                                   std::span<const PositionReport> stream) {
  std::mt19937_64 rng(seed ^ 0x0DDBA11ULL);
  const std::vector<EntityId> ids = Entities(stream);
  std::uniform_int_distribution<std::size_t> pick(0, ids.size() - 1);
  const TimestampMs t_lo = stream.front().timestamp;
  const TimestampMs t_hi = stream.back().timestamp;
  auto window = [&](double min_share, double max_share) {
    std::uniform_real_distribution<double> share(min_share, max_share);
    const auto len = static_cast<TimestampMs>(
        share(rng) * static_cast<double>(t_hi - t_lo));
    std::uniform_int_distribution<TimestampMs> begin(t_lo, t_hi - len);
    const TimestampMs b = begin(rng);
    return std::make_pair(b, b + len);
  };
  std::vector<QuerySpec> out;
  char buf[512];
  for (std::size_t i = 0; i < kQueries; ++i) {
    switch (i % 3) {
      case 0: {
        const BoundingBox box = RandomBox(&rng, 1.0, 2.0);
        const auto [b, e] = window(0.2, 0.5);
        std::snprintf(buf, sizeof(buf),
                      "SELECT ?node ?speed WHERE { ?node "
                      "<dc:ofMovingObject> <%s> . ?node <dc:hasSpeed> "
                      "?speed . } WITHIN %.4f %.4f %.4f %.4f ON ?node "
                      "DURING %lld %lld ON ?node",
                      EntityIri(ids[pick(rng)]).c_str(), box.min_lat,
                      box.min_lon, box.max_lat, box.max_lon,
                      static_cast<long long>(b), static_cast<long long>(e));
        out.push_back({buf, false});
        break;
      }
      case 1: {
        const BoundingBox box = RandomBox(&rng, 0.3, 0.6);
        const auto [b, e] = window(0.1, 0.2);
        std::snprintf(buf, sizeof(buf),
                      "SELECT ?node WHERE { ?node <rdf:type> "
                      "<dc:PositionNode> . } WITHIN %.4f %.4f %.4f %.4f ON "
                      "?node DURING %lld %lld ON ?node",
                      box.min_lat, box.min_lon, box.max_lat, box.max_lon,
                      static_cast<long long>(b), static_cast<long long>(e));
        out.push_back({buf, false});
        break;
      }
      default: {
        const auto [b, e] = window(0.2, 0.5);
        std::snprintf(buf, sizeof(buf),
                      "SELECT ?a ?b ?v WHERE { ?a <dc:ofMovingObject> <%s> "
                      ". ?a <dc:hasNextNode> ?b . ?b <dc:hasSpeed> ?v . } "
                      "DURING %lld %lld ON ?a",
                      EntityIri(ids[pick(rng)]).c_str(),
                      static_cast<long long>(b), static_cast<long long>(e));
        out.push_back({buf, true});
        break;
      }
    }
  }
  return out;
}

/// Brute-force BGP evaluation over the engine's triples and node
/// geometry: the reference the query engine's answers are checked
/// against. Rows are full bindings, sorted.
class ReferenceEvaluator {
 public:
  ReferenceEvaluator(std::vector<Triple> triples,
                     const std::unordered_map<TermId, NodeGeo>& geo)
      : geo_(geo) {
    auto key = [](const Triple& t) { return std::tie(t.p, t.s, t.o); };
    std::sort(triples.begin(), triples.end(),
              [&](const Triple& a, const Triple& b) {
                return key(a) < key(b);
              });
    triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
    for (const Triple& t : triples) {
      by_p_[t.p].push_back(t);
      by_ps_[{t.p, t.s}].push_back(t.o);
    }
  }

  std::vector<Binding> Eval(const Query& q) const {
    std::vector<Binding> out;
    Binding b(static_cast<std::size_t>(q.num_vars), kInvalidTermId);
    Extend(q, 0, &b, &out);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  void Extend(const Query& q, std::size_t i, Binding* b,
              std::vector<Binding>* out) const {
    if (i == q.bgp.size()) {
      if (Satisfies(q, *b)) out->push_back(*b);
      return;
    }
    const QueryTriple& qt = q.bgp[i];
    auto val = [&](const QueryTerm& t) {
      return t.IsVar() ? (*b)[t.var] : t.term;
    };
    const TermId s = val(qt.s);
    const TermId p = val(qt.p);
    const TermId o = val(qt.o);
    auto visit = [&](const Triple& t) {
      if ((s != kInvalidTermId && t.s != s) ||
          (p != kInvalidTermId && t.p != p) ||
          (o != kInvalidTermId && t.o != o)) {
        return;
      }
      const Binding saved = *b;
      if (Bind(qt.s, t.s, b) && Bind(qt.p, t.p, b) && Bind(qt.o, t.o, b)) {
        Extend(q, i + 1, b, out);
      }
      *b = saved;
    };
    // Every query MakeQueries writes binds the predicate of each pattern.
    if (s != kInvalidTermId) {
      auto it = by_ps_.find({p, s});
      if (it == by_ps_.end()) return;
      for (const TermId obj : it->second) visit(Triple{s, p, obj});
    } else {
      auto it = by_p_.find(p);
      if (it == by_p_.end()) return;
      for (const Triple& t : it->second) visit(t);
    }
  }

  static bool Bind(const QueryTerm& qt, TermId value, Binding* b) {
    if (!qt.IsVar()) return true;
    TermId& slot = (*b)[qt.var];
    if (slot != kInvalidTermId) return slot == value;
    slot = value;
    return true;
  }

  bool Satisfies(const Query& q, const Binding& b) const {
    for (const SpatialConstraint& c : q.spatial) {
      auto it = geo_.find(b[c.var]);
      if (it == geo_.end() ||
          !c.box.Contains(LatLon{it->second.lat_deg, it->second.lon_deg})) {
        return false;
      }
    }
    for (const TemporalConstraint& c : q.temporal) {
      auto it = geo_.find(b[c.var]);
      if (it == geo_.end() || it->second.timestamp < c.t_min ||
          it->second.timestamp > c.t_max) {
        return false;
      }
    }
    return true;
  }

  struct PairHash {
    std::size_t operator()(const std::pair<TermId, TermId>& k) const {
      return std::hash<TermId>()(k.first * 0x9E3779B97F4A7C15ULL ^ k.second);
    }
  };

  const std::unordered_map<TermId, NodeGeo>& geo_;
  std::unordered_map<TermId, std::vector<Triple>> by_p_;
  std::unordered_map<std::pair<TermId, TermId>, std::vector<TermId>, PairHash>
      by_ps_;
};

/// The queried system: a fleet history ingested into the engine and
/// loaded into the partitioned store. Members are declared in dependency
/// order, so destruction releases users before what they point into.
struct StoreRig {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<DatacronEngine> engine;
  std::unique_ptr<PartitionScheme> scheme;
  std::unique_ptr<PartitionedRdfStore> store;
  std::unique_ptr<QueryEngine> queries;
};

RunResult RunStoreQuery(std::uint64_t seed, double seconds, bool trace) {
  RunResult r;
  const std::vector<PositionReport> stream =
      FleetStream(seed, kStoreVessels, kStoreReports);
  std::unique_ptr<StoreRig> rig;

  const double setup_s = MedianSetupSeconds(
      [&] { rig.reset(); },
      [&] {
        rig = std::make_unique<StoreRig>();
        rig->pool = std::make_unique<ThreadPool>(kPoolThreads);
        rig->engine = std::make_unique<DatacronEngine>(
            FleetEngineConfig(kStoreShards, 1024));
        rig->engine->IngestBatch(stream, rig->pool.get());
        rig->engine->Finish();
        const Rdfizer& rdf = *rig->engine->rdfizer();
        rig->scheme = HilbertPartitioner::Build(kStorePartitions,
                                                &rdf.tags(), rdf.grid());
        rig->store = std::make_unique<PartitionedRdfStore>();
        rig->store->Load(rig->engine->triples(), *rig->scheme, rdf.grid(),
                         rig->engine->vocab().p_next_node, rig->pool.get());
        rig->queries = std::make_unique<QueryEngine>(rig->store.get(), &rdf,
                                                     rig->pool.get());
      });

  const std::vector<QuerySpec> specs = MakeQueries(seed, stream);
  TermDictionary* dict = rig->engine->dictionary();
  std::vector<std::vector<Binding>> expected;
  {
    const ReferenceEvaluator ref(rig->engine->triples(),
                                 rig->engine->rdfizer()->node_geo());
    for (const QuerySpec& q : specs) {
      Result<ParsedQuery> pq = ParseQuery(q.text, dict);
      r.Check(pq.ok(), "store-query: query text does not parse");
      expected.push_back(pq.ok() ? ref.Eval(pq.value().query)
                                 : std::vector<Binding>{});
    }
  }
  std::size_t nonempty = 0;
  for (const auto& rows : expected) nonempty += rows.empty() ? 0 : 1;
  std::fprintf(stderr,
               "store-query: %zu reports, %zu triples, %zu queries (%zu "
               "with rows), offered at %.0f/s\n",
               stream.size(), rig->engine->triples().size(), specs.size(),
               nonempty, kQueryLoad.rate_per_s());
  r.Check(nonempty * 2 >= specs.size(), "store-query: most queries empty");

  std::vector<double> call_ms;
  std::vector<double> rows;
  std::vector<double> scanned;
  // Per-stage times of every request: parse, then the query engine's own
  // plan/scan/join/filter split (QueryStats).
  std::array<std::vector<double>, 5> stage_ms;
  std::size_t executed = 0;
  std::size_t mismatches = 0;
  // Answers wait here until the timed part they belong to is over.
  std::vector<std::pair<std::size_t, std::vector<Binding>>> answers;
  auto check_answers = [&] {
    for (auto& [q, got] : answers) {
      std::sort(got.begin(), got.end());
      if (got != expected[q]) ++mismatches;
    }
    answers.clear();
  };
  // One request: parse the text and execute it. Returns the finish time.
  auto run_query = [&](std::size_t i) {
    const QuerySpec& q = specs[i % specs.size()];
    ++executed;
    const std::int64_t t0 = NowNs();
    Result<ParsedQuery> pq = ParseQuery(q.text, dict);
    const std::int64_t parsed = NowNs();
    if (!pq.ok()) {
      ++r.failed;
      return parsed;
    }
    ResultSet rs = q.global ? rig->queries->ExecuteGlobal(pq.value().query)
                            : rig->queries->ExecuteLocal(pq.value().query);
    const std::int64_t t1 = NowNs();
    call_ms.push_back(Ms(t1 - t0));
    rows.push_back(static_cast<double>(rs.rows.size()));
    scanned.push_back(rs.stats.partitions_scanned);
    stage_ms[0].push_back(Ms(parsed - t0));
    stage_ms[1].push_back(rs.stats.plan_ms);
    stage_ms[2].push_back(rs.stats.scan_ms);
    stage_ms[3].push_back(rs.stats.join_ms);
    stage_ms[4].push_back(rs.stats.filter_ms);
    answers.emplace_back(i % specs.size(), std::move(rs.rows));
    return t1;
  };

  // Latency slices: open loop with one server; query i of a slice is due
  // at the schedule's time and is timed from then.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const int rounds = RoundsFor(seconds);
  const std::size_t per_slice = kQueryLoad.Count(kSliceSeconds);
  std::size_t next_query = 0;
  SliceQuantiles emit;
  SpanTable spans(trace);
  std::vector<double> wait_ms;
  std::int64_t busy_ns = 0;
  std::int64_t span_ns = 0;
  const std::vector<double> rep_s = RunRounds(
      seconds, rounds,
      [&](int) {
        std::vector<double> slice_ms;
        spans.Start();
        const std::int64_t begin = NowNs() + 1000000;
        for (std::size_t i = 0; i < per_slice; ++i) {
          const std::int64_t due = kQueryLoad.Due(begin, i);
          std::int64_t now = NowNs();
          if (now < due) {
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
            now = NowNs();
          }
          const std::int64_t done = run_query(next_query++);
          busy_ns += done - now;
          wait_ms.push_back(Ms(now - due));
          slice_ms.push_back(Ms(done - due));
        }
        span_ns += NowNs() - begin;
        spans.Stop(per_slice);
        emit.Add(slice_ms);
        check_answers();
      },
      [&](int rep) {
        const std::int64_t t0 = NowNs();
        for (std::size_t i = 0; i < specs.size(); ++i) {
          run_query(static_cast<std::size_t>(rep) + i);
        }
        const double secs = Sec(NowNs() - t0);
        check_answers();
        return secs;
      });
  r.attempted = executed;
  r.Check(mismatches == 0, "store-query: query rows differ from reference");

  // Serial baseline for the layer table: one pass without the pool.
  double serial_per_s = 0.0;
  {
    const QueryEngine serial(rig->store.get(), rig->engine->rdfizer(),
                             nullptr);
    const std::int64_t t0 = NowNs();
    for (const QuerySpec& q : specs) {
      Result<ParsedQuery> pq = ParseQuery(q.text, dict);
      if (!pq.ok()) continue;
      if (q.global) {
        serial.ExecuteGlobal(pq.value().query);
      } else {
        serial.ExecuteLocal(pq.value().query);
      }
    }
    serial_per_s = static_cast<double>(specs.size()) / Sec(NowNs() - t0);
  }

  r.EndToEnd(emit,
             RepThroughput(specs.size(), rep_s),
             setup_s, kQueryLoad.rate_per_s());
  r.Layer("admit_wait_p50_ms", Quantile(wait_ms, 0.5));
  r.Layer("generator_late_p99_ms", Quantile(wait_ms, 0.99));
  r.Layer("engine_call_p50_ms", Quantile(call_ms, 0.5));
  r.Layer("engine_busy_share",
          static_cast<double>(busy_ns) /
              static_cast<double>(std::max<std::int64_t>(1, span_ns)));
  r.Layer("serial_throughput_per_s", serial_per_s);
  r.Layer("query_rows_mean", Mean(rows));
  r.Layer("partitions_scanned_mean", Mean(scanned));
  r.Layer("query_parse_ms_mean", Mean(stage_ms[0]));
  r.Layer("query_plan_ms_mean", Mean(stage_ms[1]));
  r.Layer("query_scan_ms_mean", Mean(stage_ms[2]));
  r.Layer("query_join_ms_mean", Mean(stage_ms[3]));
  r.Layer("query_filter_ms_mean", Mean(stage_ms[4]));
  spans.AddRows(&r);
  return r;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "<live-fleet|cluster-alert|store-query> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace
}  // namespace datacron

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else {
      return datacron::Usage();
    }
  }
  if (!(seconds > 0.0)) return datacron::Usage();

  datacron::RunResult result;
  if (workload == "live-fleet") {
    result = datacron::RunLiveFleet(seed, seconds, trace);
  } else if (workload == "cluster-alert") {
    result = datacron::RunClusterAlert(seed, seconds, trace);
  } else if (workload == "store-query") {
    result = datacron::RunStoreQuery(seed, seconds, trace);
  } else {
    return datacron::Usage();
  }
  datacron::PrintResult(result, trace);
  return 0;
}
