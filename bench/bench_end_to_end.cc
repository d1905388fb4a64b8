// E10 — End-to-end architecture latency: the "operational latency
// requirements (i.e. in ms)" claim of Section 4.
//
// Runs the full DatacronEngine (synopses -> transform -> trajectory ->
// CEP) over a fleet stream and prints the per-stage and total per-tuple
// latency distribution, plus sustained throughput, then closes the loop
// with a query over the produced store.
//
// E10b sweeps the sharded runtime (IngestBatch) over 1/2/4/8 shards with
// a matching thread pool, plus 4 shards on a 2-thread pool (shards
// outnumber workers, as on a live feed), enforcing the determinism
// contract — events, triples and episodes must be byte-identical to the
// serial Ingest loop at every shard count (nonzero exit on violation) —
// and prints the merged per-operator metrics table. Emits
// BENCH_engine.json; `--quick` shrinks the fleet for CI smoke runs (still
// ≥ 100 ms per sweep row).
//
// E10c repeats the sweep on the cluster runtime: 1/2/4 ClusterNodes over
// the in-process loopback transport behind a ClusterEngine coordinator,
// with the same byte-identity guard against the serial loop, and emits
// BENCH_cluster.json.
//
// Both sweeps run every row kReps times, interleaved with the serial loop
// and its traced twin in each repetition; the JSON records each row's
// median wall time and speedup with their interquartile ranges.
//
// E11 isolates the global CEP stage: a dense-fleet ProximityDetector
// sweep (serial per-report loop vs epoch-batched cell-parallel
// ProcessBatch at 1/2/4/8 pool threads, byte-identity enforced) and the
// CapacityMonitor incremental-vs-rescan comparison at two fleet sizes.
// Emits BENCH_cep.json.
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cep/capacity_oracle.h"
#include "cep/detectors.h"

#include "cluster/local_cluster.h"
#include "common/thread_pool.h"
#include "common/time_utils.h"
#include "datacron/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/partitioned_store.h"
#include "partition/partitioner.h"
#include "query/engine.h"
#include "sources/ais_generator.h"
#include "bench_nproc.h"

namespace datacron {
namespace {

/// One per-report stage histogram of an engine snapshot, in ms. Stage
/// percentiles are log2-bucket midpoints, so each reads to within about
/// ±25%.
void PrintStage(const char* name, const obs::MetricsSnapshot& snap,
                const char* histogram) {
  const LogHistogram& ns = snap.histograms.at(histogram);
  std::printf("  %-14s p50 %8.4f ms   p95 %8.4f ms   p99 %8.4f ms   max "
              "%8.3f ms\n",
              name, ns.Percentile(50) / 1e6, ns.Percentile(95) / 1e6,
              ns.p99() / 1e6, ns.Percentile(100) / 1e6);
}

DatacronEngine::Config EngineConfig(std::size_t num_shards) {
  DatacronEngine::Config cfg;
  cfg.areas.push_back(NamedArea{
      "zone_a", Polygon::Rectangle(BoundingBox::Of(35.5, 23.5, 36.5, 24.5))});
  cfg.areas.push_back(NamedArea{
      "zone_b", Polygon::Rectangle(BoundingBox::Of(37.0, 25.0, 38.0, 26.0))});
  cfg.num_shards = num_shards;
  return cfg;
}

/// Repetitions of every sweep row.
constexpr int kReps = 5;

/// Median and interquartile range of one row's repetitions.
struct Spread {
  double median = 0.0;
  double iqr = 0.0;
};

Spread SpreadOf(const std::vector<double>& samples) {
  PercentileTracker t;
  for (const double x : samples) t.Add(x);
  return {t.p50(), t.Percentile(75) - t.Percentile(25)};
}

/// One measured cell of the JSON report. threads == 0 means the serial
/// report-by-report Ingest loop (no pool, no batch API).
struct BenchRecord {
  int shards = 1;
  int threads = 0;
  double wall_s = 0.0;  // median over the repetitions
  double wall_s_iqr = 0.0;
  double reports_per_s = 0.0;  // at the median wall time
  double speedup = 1.0;  // median of the per-repetition speedups
  double speedup_iqr = 0.0;
  bool identical = true;  // every repetition
  // Epoch-coalescing stats (registry counter deltas for this run; the
  // serial row has epochs == 0 and omits them from the table).
  std::uint64_t epochs = 0;
  std::uint64_t mailbox_msgs = 0;
  std::uint64_t driver_drains = 0;  // shard-epochs the driver drained
  int placed_workers = 0;  // pool workers placed on a CPU (WorkerCpus)
  double reports_per_epoch = 0.0;
  double terms_per_merge = 0.0;
  std::size_t dict_terms = 0;  // dictionary entries after the run
};

/// Pool workers the constructor placed on a CPU (ThreadPool::WorkerCpus).
int PlacedWorkers(const ThreadPool& pool) {
  int placed = 0;
  for (int cpu : pool.WorkerCpus()) placed += cpu >= 0 ? 1 : 0;
  return placed;
}

std::vector<BenchRecord> g_records;
double g_trace_overhead_pct = 0.0;

void WriteJson(const char* path, std::size_t reports) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"experiment\": \"E10_engine\",\n");
  std::fprintf(f, "  \"nproc\": %u,\n", Nproc());
  std::fprintf(f, "  \"trace_overhead_pct\": %.2f,\n", g_trace_overhead_pct);
  std::fprintf(f, "  \"reps\": %d,\n", kReps);
  std::fprintf(f, "  \"reports\": %zu,\n  \"records\": [\n", reports);
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const BenchRecord& r = g_records[i];
    std::fprintf(f,
                 "    {\"shards\": %d, \"threads\": %d, \"wall_s\": %.4f, "
                 "\"wall_s_iqr\": %.4f, \"reports_per_s\": %.0f, "
                 "\"speedup\": %.3f, \"speedup_iqr\": %.3f, "
                 "\"identical\": %s, \"epochs\": %llu, "
                 "\"mailbox_msgs\": %llu, \"driver_drains\": %llu, "
                 "\"placed_workers\": %d, \"reports_per_epoch\": %.1f, "
                 "\"terms_per_merge\": %.1f, \"dict_terms\": %zu}%s\n",
                 r.shards, r.threads, r.wall_s, r.wall_s_iqr, r.reports_per_s,
                 r.speedup, r.speedup_iqr, r.identical ? "true" : "false",
                 static_cast<unsigned long long>(r.epochs),
                 static_cast<unsigned long long>(r.mailbox_msgs),
                 static_cast<unsigned long long>(r.driver_drains),
                 r.placed_workers, r.reports_per_epoch, r.terms_per_merge,
                 r.dict_terms,
                 i + 1 < g_records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu records)\n", path, g_records.size());
}

/// Everything the determinism contract compares between two engine runs.
struct RunOutputs {
  std::vector<Event> events;
  std::vector<Triple> triples;
  std::vector<Episode> episodes;
  std::size_t critical_points = 0;

  bool operator==(const RunOutputs&) const = default;
};

RunOutputs Snapshot(const DatacronEngine& engine, std::vector<Event> events) {
  RunOutputs out;
  out.events = std::move(events);
  out.triples = engine.triples();
  out.episodes = engine.episodes();
  out.critical_points = engine.critical_points();
  return out;
}

/// One measured cell of the cluster sweep (BENCH_cluster.json).
/// Medians and IQRs over the repetitions, as in BenchRecord.
struct ClusterRecord {
  int nodes = 1;
  double wall_s = 0.0;
  double wall_s_iqr = 0.0;
  double reports_per_s = 0.0;
  double speedup = 1.0;
  double speedup_iqr = 0.0;
  bool identical = true;
  std::size_t dict_terms = 0;  // coordinator dictionary entries
};

std::vector<ClusterRecord> g_cluster_records;

void WriteClusterJson(const char* path, std::size_t reports) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"experiment\": \"E10c_cluster\",\n");
  std::fprintf(f, "  \"nproc\": %u,\n", Nproc());
  std::fprintf(f, "  \"transport\": \"loopback\",\n");
  std::fprintf(f, "  \"reps\": %d,\n", kReps);
  std::fprintf(f, "  \"reports\": %zu,\n  \"records\": [\n", reports);
  for (std::size_t i = 0; i < g_cluster_records.size(); ++i) {
    const ClusterRecord& r = g_cluster_records[i];
    std::fprintf(f,
                 "    {\"nodes\": %d, \"wall_s\": %.4f, "
                 "\"wall_s_iqr\": %.4f, \"reports_per_s\": %.0f, "
                 "\"speedup\": %.3f, \"speedup_iqr\": %.3f, "
                 "\"identical\": %s, \"dict_terms\": %zu}%s\n",
                 r.nodes, r.wall_s, r.wall_s_iqr, r.reports_per_s, r.speedup,
                 r.speedup_iqr, r.identical ? "true" : "false", r.dict_terms,
                 i + 1 < g_cluster_records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu records)\n", path, g_cluster_records.size());
}

/// Accumulated "name": {snapshot} pairs for BENCH_engine_metrics.json.
/// Each phase folds its engine-local snapshot with a checkpoint of the
/// process-wide registry (registry counters are cumulative across phases).
std::string g_metrics_phases;

void AddMetricsPhase(const char* name, obs::MetricsSnapshot snap) {
  snap.Merge(obs::MetricsRegistry::Global().Snapshot());
  if (!g_metrics_phases.empty()) g_metrics_phases += ",\n";
  g_metrics_phases += "    \"";
  g_metrics_phases += name;
  g_metrics_phases += "\": ";
  g_metrics_phases += snap.ToJson();
}

/// One cell of the E11 proximity sweep. threads == 0 is the serial
/// per-report Process loop; threads >= 1 is epoch-batched ProcessBatch
/// on a pool of that width.
struct CepProximityRecord {
  int threads = 0;
  double wall_s = 0.0;
  double reports_per_s = 0.0;
  std::uint64_t cpa_pairs = 0;
  double cpa_pairs_per_s = 0.0;
  std::size_t events = 0;
  double events_per_s = 0.0;
  double speedup = 1.0;
  bool identical = true;
};

/// One cell of the E11 capacity comparison: incremental vs full-rescan
/// CapacityMonitor over the same stream at one fleet size.
struct CepCapacityRecord {
  std::size_t fleet = 0;
  std::size_t reports = 0;
  double rescan_wall_s = 0.0;
  double incremental_wall_s = 0.0;
  double speedup = 1.0;
  double incremental_ns_per_report = 0.0;
  bool identical = true;
};

std::vector<CepProximityRecord> g_cep_prox_records;
std::vector<CepCapacityRecord> g_cep_cap_records;

void WriteCepJson(const char* path, std::size_t reports) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"experiment\": \"E11_global_cep\",\n");
  std::fprintf(f, "  \"nproc\": %u,\n", Nproc());
  std::fprintf(f, "  \"reports\": %zu,\n  \"proximity\": [\n", reports);
  for (std::size_t i = 0; i < g_cep_prox_records.size(); ++i) {
    const CepProximityRecord& r = g_cep_prox_records[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"wall_s\": %.4f, "
                 "\"reports_per_s\": %.0f, \"cpa_pairs\": %llu, "
                 "\"cpa_pairs_per_s\": %.0f, \"events\": %zu, "
                 "\"events_per_s\": %.0f, \"speedup\": %.3f, "
                 "\"identical\": %s}%s\n",
                 r.threads, r.wall_s, r.reports_per_s,
                 static_cast<unsigned long long>(r.cpa_pairs),
                 r.cpa_pairs_per_s, r.events, r.events_per_s, r.speedup,
                 r.identical ? "true" : "false",
                 i + 1 < g_cep_prox_records.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"capacity\": [\n");
  for (std::size_t i = 0; i < g_cep_cap_records.size(); ++i) {
    const CepCapacityRecord& r = g_cep_cap_records[i];
    std::fprintf(f,
                 "    {\"fleet\": %zu, \"reports\": %zu, "
                 "\"rescan_wall_s\": %.4f, \"incremental_wall_s\": %.4f, "
                 "\"speedup\": %.3f, \"incremental_ns_per_report\": %.0f, "
                 "\"identical\": %s}%s\n",
                 r.fleet, r.reports, r.rescan_wall_s, r.incremental_wall_s,
                 r.speedup, r.incremental_ns_per_report,
                 r.identical ? "true" : "false",
                 i + 1 < g_cep_cap_records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu proximity, %zu capacity records)\n", path,
              g_cep_prox_records.size(), g_cep_cap_records.size());
}

void WriteMetricsJson(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\n  \"experiment\": \"E10_metrics\",\n"
               "  \"note\": \"registry counters are cumulative process "
               "checkpoints; engine.* rows are per-phase instances\",\n"
               "  \"phases\": {\n%s\n  }\n}\n",
               g_metrics_phases.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

/// Dense fleet in a small box so the proximity blocking grid produces a
/// heavy CPA pair load (the global stage dominates, not the keyed ones).
std::vector<PositionReport> DenseCepStream(std::size_t vessels,
                                           DurationMs duration) {
  AisGeneratorConfig fleet;
  fleet.region = BoundingBox::Of(36.0, 24.0, 36.5, 24.5);
  fleet.num_vessels = vessels;
  fleet.duration = duration;
  ObservationConfig obs;
  obs.fixed_interval_ms = 10 * kSecond;
  std::vector<PositionReport> reports =
      ObserveFleet(GenerateAisFleet(fleet), obs);
  std::sort(reports.begin(), reports.end(), ReportTimeOrder());
  return reports;
}

ProximityDetector::Config CepProximityConfig() {
  ProximityDetector::Config cfg;
  cfg.region = BoundingBox::Of(36.0, 24.0, 36.5, 24.5);
  return cfg;
}

std::vector<CapacityMonitor::Sector> CepSectors() {
  // 4x4 sector grid over the dense box: rescan pays O(fleet) per sector.
  std::vector<CapacityMonitor::Sector> sectors;
  for (int iy = 0; iy < 4; ++iy) {
    for (int ix = 0; ix < 4; ++ix) {
      const double lat0 = 36.0 + 0.125 * iy;
      const double lon0 = 24.0 + 0.125 * ix;
      sectors.push_back(CapacityMonitor::Sector{
          "s" + std::to_string(iy * 4 + ix),
          Polygon::Rectangle(
              BoundingBox::Of(lat0, lon0, lat0 + 0.125, lon0 + 0.125)),
          8});
    }
  }
  return sectors;
}

/// E11: the global CEP stage in isolation. Returns false on a
/// determinism violation (batch output differing from the serial loop).
bool RunE11(bool quick) {
  const std::size_t vessels = quick ? 120 : 300;
  const DurationMs duration = quick ? 10 * kMinute : 30 * kMinute;
  const auto stream = DenseCepStream(vessels, duration);
  obs::Counter* pairs_ctr =
      obs::MetricsRegistry::Global().counter("cep.cpa_pairs");
  bool ok = true;

  std::printf("\nE11: global CEP stage (%zu vessels in 0.5x0.5 deg, %zu "
              "reports%s)\n",
              vessels, stream.size(), quick ? ", quick" : "");
  std::printf("  proximity: serial per-report loop vs epoch-batched "
              "cell-parallel ProcessBatch\n");
  std::printf("%8s %10s %14s %14s %12s %9s %10s\n", "threads", "wall_s",
              "reports_per_s", "cpa_pairs_per_s", "events_per_s", "speedup",
              "identical");

  std::vector<Event> serial_events;
  double serial_s = 0.0;
  {
    ProximityDetector serial(CepProximityConfig());
    const std::uint64_t pairs0 = pairs_ctr->Value();
    Stopwatch timer;
    for (const PositionReport& r : stream) serial.Process(r, &serial_events);
    serial_s = timer.ElapsedSeconds();
    const std::uint64_t pairs = pairs_ctr->Value() - pairs0;
    g_cep_prox_records.push_back(
        {0, serial_s, stream.size() / serial_s, pairs, pairs / serial_s,
         serial_events.size(), serial_events.size() / serial_s, 1.0, true});
    std::printf("%8s %10.3f %14.0f %14.0f %12.0f %9s %10s\n", "serial",
                serial_s, stream.size() / serial_s, pairs / serial_s,
                serial_events.size() / serial_s, "1.0x", "-");
  }

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    ProximityDetector batch(CepProximityConfig());
    std::vector<Event> events;
    events.reserve(serial_events.size());
    constexpr std::size_t kEpoch = 1024;
    const std::uint64_t pairs0 = pairs_ctr->Value();
    Stopwatch timer;
    for (std::size_t i = 0; i < stream.size(); i += kEpoch) {
      const std::size_t len = std::min(kEpoch, stream.size() - i);
      batch.ProcessBatch(
          std::span<const PositionReport>(stream.data() + i, len), &pool,
          &events, nullptr);
    }
    const double wall_s = timer.ElapsedSeconds();
    const std::uint64_t pairs = pairs_ctr->Value() - pairs0;
    const bool identical = events == serial_events;
    if (!identical) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: batched proximity differs from "
                   "serial at %zu pool threads\n",
                   threads);
      ok = false;
    }
    g_cep_prox_records.push_back({static_cast<int>(threads), wall_s,
                                  stream.size() / wall_s, pairs,
                                  pairs / wall_s, events.size(),
                                  events.size() / wall_s, serial_s / wall_s,
                                  identical});
    std::printf("%8zu %10.3f %14.0f %14.0f %12.0f %8.1fx %10s\n", threads,
                wall_s, stream.size() / wall_s, pairs / wall_s,
                events.size() / wall_s, serial_s / wall_s,
                identical ? "yes" : "NO");
  }

  std::printf("\n  capacity: incremental per-sector deltas vs full "
              "O(fleet x sectors) rescan (16 sectors)\n");
  std::printf("%8s %10s %14s %16s %9s %14s %10s\n", "fleet", "reports",
              "rescan_wall_s", "incr_wall_s", "speedup", "incr_ns/rpt",
              "identical");
  for (const std::size_t cap_fleet :
       {quick ? 100u : 250u, quick ? 400u : 1000u}) {
    const auto cap_stream = DenseCepStream(cap_fleet, quick ? 10 * kMinute
                                                            : 15 * kMinute);
    CapacityRescanOracle rescan(CepSectors(), CapacityMonitor::Config{});
    std::vector<Event> rescan_events;
    Stopwatch rescan_timer;
    for (const PositionReport& r : cap_stream) {
      rescan.Process(r, &rescan_events);
    }
    const double rescan_s = rescan_timer.ElapsedSeconds();

    CapacityMonitor incremental(CepSectors(), CapacityMonitor::Config{});
    std::vector<Event> inc_events;
    Stopwatch inc_timer;
    for (const PositionReport& r : cap_stream) {
      incremental.Process(r, &inc_events);
    }
    const double inc_s = inc_timer.ElapsedSeconds();

    const bool identical = inc_events == rescan_events;
    if (!identical) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: incremental capacity differs "
                   "from rescan at fleet %zu\n",
                   cap_fleet);
      ok = false;
    }
    const double ns_per_report = 1e9 * inc_s / cap_stream.size();
    g_cep_cap_records.push_back({cap_fleet, cap_stream.size(), rescan_s,
                                 inc_s, rescan_s / inc_s, ns_per_report,
                                 identical});
    std::printf("%8zu %10zu %14.3f %16.3f %8.1fx %14.0f %10s\n", cap_fleet,
                cap_stream.size(), rescan_s, inc_s, rescan_s / inc_s,
                ns_per_report, identical ? "yes" : "NO");
  }
  if (g_cep_cap_records.size() == 2) {
    std::printf("  incremental ns/report ratio (large/small fleet): %.2f "
                "(~1.0 = fleet-size independent)\n",
                g_cep_cap_records[1].incremental_ns_per_report /
                    g_cep_cap_records[0].incremental_ns_per_report);
  }

  WriteCepJson("BENCH_cep.json", stream.size());
  return ok;
}

/// The serial Ingest loop plus Finish; returns its wall time.
double TimeSerial(const std::vector<PositionReport>& stream) {
  DatacronEngine engine(EngineConfig(1));
  Stopwatch timer;
  for (const auto& r : stream) engine.Ingest(r);
  engine.Finish();
  return timer.ElapsedSeconds();
}

/// One run of a cluster sweep row; false (after printing why) if the
/// cluster failed. `metrics`, when set, receives the fleet snapshot.
bool TimeCluster(const std::vector<PositionReport>& stream, std::size_t nodes,
                 double* wall_s, RunOutputs* outputs,
                 std::size_t* dict_terms, obs::MetricsSnapshot* metrics) {
  LocalCluster::Options copts;
  copts.engine = EngineConfig(1);
  copts.num_nodes = nodes;
  copts.wire = LocalCluster::Wire::kLoopback;
  Result<std::unique_ptr<LocalCluster>> cluster = LocalCluster::Start(copts);
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster start failed at %zu nodes: %s\n", nodes,
                 cluster.status().ToString().c_str());
    return false;
  }
  Stopwatch timer;
  Result<std::vector<Event>> evs =
      cluster.value()->engine().IngestBatch(stream);
  Result<std::vector<Event>> fin = cluster.value()->engine().Finish();
  if (!evs.ok() || !fin.ok()) {
    std::fprintf(stderr, "cluster ingest failed at %zu nodes: %s\n", nodes,
                 (evs.ok() ? fin.status() : evs.status()).ToString().c_str());
    return false;
  }
  *wall_s = timer.ElapsedSeconds();
  std::vector<Event> events = std::move(evs).value();
  events.insert(events.end(), fin.value().begin(), fin.value().end());
  const DatacronEngine& engine = cluster.value()->engine().engine();
  *outputs = Snapshot(engine, std::move(events));
  *dict_terms = engine.dictionary().size();
  if (metrics != nullptr) {
    Result<obs::MetricsSnapshot> snap =
        cluster.value()->engine().MetricsSnapshot();
    if (!snap.ok()) {
      std::fprintf(stderr, "cluster metrics failed: %s\n",
                   snap.status().ToString().c_str());
      return false;
    }
    std::printf("\n  fleet metrics (%zu nodes, node snapshots merged across "
                "the transport):\n%s",
                nodes, engine.MetricsReport(snap.value()).c_str());
    *metrics = std::move(snap).value();
  }
  const Status stop = cluster.value()->Stop();
  if (!stop.ok()) {
    std::fprintf(stderr, "cluster stop failed at %zu nodes: %s\n", nodes,
                 stop.ToString().c_str());
    return false;
  }
  return true;
}

}  // namespace

int Run(bool quick, const char* trace_out) {
  AisGeneratorConfig fleet;
  fleet.num_vessels = quick ? 120 : 200;
  fleet.duration = quick ? 2 * kHour : 4 * kHour;
  const auto traces = GenerateAisFleet(fleet);
  ObservationConfig obs;
  obs.fixed_interval_ms = 10 * kSecond;
  const auto stream = ObserveFleet(traces, obs);

  // --- E10: serial per-tuple latency (the baseline). -----------------
  DatacronEngine engine(EngineConfig(1));
  Stopwatch total_timer;
  std::vector<Event> serial_events;
  for (const auto& r : stream) {
    const auto evs = engine.Ingest(r);
    serial_events.insert(serial_events.end(), evs.begin(), evs.end());
  }
  const auto final_events = engine.Finish();
  serial_events.insert(serial_events.end(), final_events.begin(),
                       final_events.end());
  const double reference_s = total_timer.ElapsedSeconds();
  const RunOutputs serial = Snapshot(engine, std::move(serial_events));

  std::printf("E10: end-to-end pipeline latency (%zu vessels, %zu reports, "
              "%zu events, %zu critical points, %zu triples, %zu dictionary "
              "terms%s)\n\n",
              fleet.num_vessels, stream.size(), serial.events.size(),
              engine.critical_points(), engine.triples().size(),
              engine.dictionary()->size(), quick ? ", quick" : "");

  const obs::MetricsSnapshot serial_snap = engine.MetricsSnapshot();
  PrintStage("synopses", serial_snap, "engine.synopses_ns");
  PrintStage("transform", serial_snap, "engine.transform_ns");
  PrintStage("trajectory", serial_snap, "engine.trajectory_ns");
  PrintStage("cep", serial_snap, "engine.cep_ns");
  PrintStage("TOTAL", serial_snap, "engine.report_ns");
  std::printf("\n  sustained throughput: %.0f reports/s (%.2f s wall for "
              "%lld min of simulated traffic => %.0fx real time)\n",
              stream.size() / reference_s, reference_s,
              static_cast<long long>(fleet.duration / kMinute),
              (fleet.duration / 1000.0) / reference_s);
  AddMetricsPhase("serial", serial_snap);

  // --- E10b/E10c: the interleaved sweep. -------------------------------
  // Each repetition runs every row once: the serial loop, the same loop
  // with spans recording (the tracing overhead), the sharded engine at
  // 1/2/4/8 shards (one pool thread per shard, and 4 shards on 2 threads)
  // and the loopback cluster at 1/2/4 nodes. A row's
  // speedup in a repetition is that repetition's serial wall time over
  // the row's, so host noise lands on both alike. Every run is checked
  // against the serial outputs.
  struct ShardRow {
    std::size_t shards;
    std::size_t threads;
  };
  const ShardRow shard_rows[] = {{1, 1}, {2, 2}, {4, 4}, {4, 2}, {8, 8}};
  const std::size_t node_counts[] = {1, 2, 4};
  std::vector<double> serial_walls;
  std::vector<double> trace_overheads;
  std::vector<std::vector<double>> shard_walls(std::size(shard_rows));
  std::vector<std::vector<double>> shard_speedups(std::size(shard_rows));
  std::vector<std::vector<double>> node_walls(std::size(node_counts));
  std::vector<std::vector<double>> node_speedups(std::size(node_counts));
  std::vector<BenchRecord> shard_records(std::size(shard_rows));
  std::vector<ClusterRecord> node_records(std::size(node_counts));
  bool ok = true;
  obs::Counter* epochs_ctr =
      obs::MetricsRegistry::Global().counter("shard.epochs");
  obs::Counter* mbox_ctr =
      obs::MetricsRegistry::Global().counter("shard.mailbox_enqueues");
  obs::Counter* driver_drains_ctr =
      obs::MetricsRegistry::Global().counter("shard.driver_drains");
  obs::Counter* merge_terms_ctr =
      obs::MetricsRegistry::Global().counter("engine.merge_terms");
  for (int rep = 0; rep < kReps; ++rep) {
    const double serial_s = TimeSerial(stream);
    serial_walls.push_back(serial_s);
    obs::EnableTracing(true);
    const double traced_s = TimeSerial(stream);
    obs::EnableTracing(false);
    obs::TraceCollector::Discard();
    trace_overheads.push_back(100.0 * (traced_s - serial_s) / serial_s);

    for (std::size_t i = 0; i < std::size(shard_rows); ++i) {
      const std::size_t shards = shard_rows[i].shards;
      DatacronEngine sharded(EngineConfig(shards));
      ThreadPool pool(shard_rows[i].threads);
      const std::uint64_t epochs0 = epochs_ctr->Value();
      const std::uint64_t mbox0 = mbox_ctr->Value();
      const std::uint64_t helped0 = driver_drains_ctr->Value();
      const std::uint64_t terms0 = merge_terms_ctr->Value();
      Stopwatch timer;
      std::vector<Event> events = sharded.IngestBatch(stream, &pool);
      const auto fin = sharded.Finish();
      events.insert(events.end(), fin.begin(), fin.end());
      const double wall_s = timer.ElapsedSeconds();
      shard_walls[i].push_back(wall_s);
      shard_speedups[i].push_back(serial_s / wall_s);
      BenchRecord& rec = shard_records[i];
      if (Snapshot(sharded, std::move(events)) != serial) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: sharded run differs from serial "
                     "at %zu shards on %zu threads\n",
                     shards, pool.num_threads());
        rec.identical = false;
        ok = false;
      }
      if (rep > 0) continue;
      // Epoch-coalescing stats (the same in every repetition): one
      // coalesced term merge and one mailbox message per shard per
      // epoch, so terms/merge and messages scale with epochs rather than
      // with reports.
      rec.shards = static_cast<int>(shards);
      rec.threads = static_cast<int>(pool.num_threads());
      rec.epochs = epochs_ctr->Value() - epochs0;
      rec.mailbox_msgs = mbox_ctr->Value() - mbox0;
      rec.driver_drains = driver_drains_ctr->Value() - helped0;
      rec.placed_workers = PlacedWorkers(pool);
      const std::uint64_t merge_terms = merge_terms_ctr->Value() - terms0;
      rec.reports_per_epoch =
          rec.epochs > 0 ? static_cast<double>(stream.size()) / rec.epochs
                         : 0.0;
      rec.terms_per_merge =
          rec.epochs > 0 ? static_cast<double>(merge_terms) / rec.epochs
                         : 0.0;
      rec.dict_terms = sharded.dictionary()->size();
      if (shards == 8) {
        std::printf("\n  per-operator metrics (8 shards, keyed rows merged "
                    "across shards):\n");
        std::printf("%s", sharded.MetricsReport().c_str());
        obs::MetricsSnapshot snap = sharded.MetricsSnapshot();
        snap.AddHistogram("pool.queue_ns", pool.QueueWaitNanos());
        snap.AddCounter("pool.placed_workers",
                        static_cast<std::uint64_t>(PlacedWorkers(pool)));
        AddMetricsPhase("sharded_8", std::move(snap));
      }
    }

    for (std::size_t i = 0; i < std::size(node_counts); ++i) {
      const std::size_t nodes = node_counts[i];
      ClusterRecord& rec = node_records[i];
      double wall_s = 0.0;
      RunOutputs outputs;
      obs::MetricsSnapshot snap;
      const bool report = rep == 0 && nodes == 4;
      if (!TimeCluster(stream, nodes, &wall_s, &outputs, &rec.dict_terms,
                       report ? &snap : nullptr)) {
        return 1;
      }
      if (report) AddMetricsPhase("cluster_4", std::move(snap));
      node_walls[i].push_back(wall_s);
      node_speedups[i].push_back(serial_s / wall_s);
      rec.nodes = static_cast<int>(nodes);
      if (outputs != serial) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: cluster run differs from serial "
                     "at %zu nodes\n",
                     nodes);
        rec.identical = false;
        ok = false;
      }
    }
  }

  const Spread serial_wall = SpreadOf(serial_walls);
  const Spread overhead = SpreadOf(trace_overheads);
  g_trace_overhead_pct = overhead.median;
  g_records.push_back({1, 0, serial_wall.median, serial_wall.iqr,
                       stream.size() / serial_wall.median, 1.0, 0.0, true});
  g_records.back().dict_terms = engine.dictionary()->size();
  std::printf("\nE10b: sharded IngestBatch sweep (byte-identical to the "
              "serial loop at every shard count; medians of %d interleaved "
              "repetitions, IQR in brackets)\n",
              kReps);
  std::printf("%8s %8s %18s %14s %16s %10s %8s %9s %11s %11s %11s %7s\n",
              "shards", "threads", "wall_s", "reports_per_s", "speedup",
              "identical", "epochs", "rpt/epoch", "terms/merge", "mbox_msgs",
              "drv_drains", "placed");
  std::printf(
      "%8s %8d %9.3f [%6.3f] %14.0f %16s %10s %8s %9s %11s %11s %11s %7s\n",
      "serial", 0, serial_wall.median, serial_wall.iqr,
      stream.size() / serial_wall.median, "1.0x", "-", "-", "-", "-", "-",
      "-", "-");
  for (std::size_t i = 0; i < std::size(shard_rows); ++i) {
    BenchRecord& rec = shard_records[i];
    const Spread wall = SpreadOf(shard_walls[i]);
    const Spread speedup = SpreadOf(shard_speedups[i]);
    rec.wall_s = wall.median;
    rec.wall_s_iqr = wall.iqr;
    rec.reports_per_s = stream.size() / wall.median;
    rec.speedup = speedup.median;
    rec.speedup_iqr = speedup.iqr;
    g_records.push_back(rec);
    std::printf("%8d %8d %9.3f [%6.3f] %14.0f %8.2fx [%5.2f] %10s %8llu "
                "%9.1f %11.1f %11llu %11llu %7d\n",
                rec.shards, rec.threads, rec.wall_s, rec.wall_s_iqr,
                rec.reports_per_s, rec.speedup, rec.speedup_iqr,
                rec.identical ? "yes" : "NO",
                static_cast<unsigned long long>(rec.epochs),
                rec.reports_per_epoch, rec.terms_per_merge,
                static_cast<unsigned long long>(rec.mailbox_msgs),
                static_cast<unsigned long long>(rec.driver_drains),
                rec.placed_workers);
  }
  std::printf("\n  tracing overhead: %+.2f%% [IQR %.2f] (traced vs untraced "
              "serial loop, same repetition)\n",
              overhead.median, overhead.iqr);

  std::printf("\nE10c: cluster IngestBatch sweep (loopback transport, "
              "byte-identical to the serial loop at every node count; "
              "medians of %d interleaved repetitions)\n",
              kReps);
  std::printf("%8s %18s %14s %16s %10s\n", "nodes", "wall_s",
              "reports_per_s", "speedup", "identical");
  for (std::size_t i = 0; i < std::size(node_counts); ++i) {
    ClusterRecord& rec = node_records[i];
    const Spread wall = SpreadOf(node_walls[i]);
    const Spread speedup = SpreadOf(node_speedups[i]);
    rec.wall_s = wall.median;
    rec.wall_s_iqr = wall.iqr;
    rec.reports_per_s = stream.size() / wall.median;
    rec.speedup = speedup.median;
    rec.speedup_iqr = speedup.iqr;
    g_cluster_records.push_back(rec);
    std::printf("%8d %9.3f [%6.3f] %14.0f %8.2fx [%5.2f] %10s\n", rec.nodes,
                rec.wall_s, rec.wall_s_iqr, rec.reports_per_s, rec.speedup,
                rec.speedup_iqr, rec.identical ? "yes" : "NO");
  }

  // --- The trace: one traced 4-shard and one traced 2-node run over the
  // stream's first kTracedReports reports (so the span rings do not
  // overflow), then E11, all recording spans; the sweep ran untraced.
  constexpr std::size_t kTracedReports = 4096;
  const std::vector<PositionReport> traced_stream(
      stream.begin(),
      stream.begin() + std::min(stream.size(), kTracedReports));
  std::vector<obs::TraceSpanRecord> all_spans;
  obs::TraceCollector::Discard();
  const std::uint64_t dropped0 = obs::TraceCollector::DroppedCount();
  obs::EnableTracing(true);
  {
    DatacronEngine sharded(EngineConfig(4));
    ThreadPool pool(4);
    sharded.IngestBatch(traced_stream, &pool);
    sharded.Finish();
    std::vector<obs::TraceSpanRecord> spans = obs::TraceCollector::Drain();
    all_spans.insert(all_spans.end(), spans.begin(), spans.end());
    double wall_s = 0.0;
    RunOutputs outputs;
    std::size_t dict_terms = 0;
    if (!TimeCluster(traced_stream, 2, &wall_s, &outputs, &dict_terms,
                     nullptr)) {
      return 1;
    }
    spans = obs::TraceCollector::Drain();
    all_spans.insert(all_spans.end(), spans.begin(), spans.end());
  }
  WriteClusterJson("BENCH_cluster.json", stream.size());

  // --- E11: global CEP stage (cell-parallel CPA + incremental capacity).
  if (!RunE11(quick)) ok = false;

  {
    std::vector<obs::TraceSpanRecord> spans = obs::TraceCollector::Drain();
    all_spans.insert(all_spans.end(), spans.begin(), spans.end());
  }
  obs::EnableTracing(false);
  if (trace_out != nullptr) {
    const std::string json = obs::ChromeTraceJson(all_spans);
    std::FILE* f = std::fopen(trace_out, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_out);
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s (%zu spans, %llu dropped to ring overflow)\n",
                trace_out, all_spans.size(),
                static_cast<unsigned long long>(
                    obs::TraceCollector::DroppedCount() - dropped0));
  }

  // --- Close the loop: partition + query what the pipeline produced. --
  auto scheme = HilbertPartitioner::Build(4, &engine.rdfizer()->tags(),
                                          engine.rdfizer()->grid());
  PartitionedRdfStore store;
  Stopwatch load_timer;
  store.Load(engine.triples(), *scheme, engine.rdfizer()->grid(),
             engine.vocab().p_next_node);
  const double load_ms = load_timer.ElapsedMillis();

  QueryEngine qe(&store, engine.rdfizer());
  QueryBuilder qb;
  qb.Pattern(QueryTerm::Var(qb.Var("node")),
             QueryTerm::Bound(engine.vocab().p_type),
             QueryTerm::Bound(engine.vocab().c_position_node));
  qb.Within("node", BoundingBox::Of(36, 24, 37, 25));
  Stopwatch query_timer;
  const auto rs = qe.ExecuteLocal(qb.Build());
  std::printf("\n  store: %zu triples partitioned in %.1f ms; spatial query "
              "-> %zu rows in %.2f ms (%s)\n",
              store.TotalTriples(), load_ms, rs.rows.size(),
              query_timer.ElapsedMillis(), rs.stats.ToString().c_str());

  WriteJson("BENCH_engine.json", stream.size());
  WriteMetricsJson("BENCH_engine_metrics.json");
  return ok ? 0 : 1;
}

}  // namespace datacron

int main(int argc, char** argv) {
  bool quick = false;
  const char* trace_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    }
  }
  return datacron::Run(quick, trace_out);
}
