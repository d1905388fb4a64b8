// Ablations of design choices called out in DESIGN.md:
//
//  A1  sequence links (dc:hasNextNode) on/off — store size vs. path-query
//      capability (the cost of making trajectories graph-traversable).
//  A2  link-discovery blocking-frame width — candidate explosion vs.
//      verification cost.
//  A3  window allowed-lateness — dropped tuples vs. buffered state under
//      an out-of-order stream.
//  A4  synopses-then-transform vs. transform-everything — end-to-end
//      engine throughput and store volume (the architecture's core bet).
//  E12 SIMD kernel layer — per-kernel scalar-vs-native dispatch timings
//      with bitwise identity checks, plus an E11-style end-to-end engine
//      rerun on the vectorized hot paths. Emits BENCH_simd.json.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "cep/cpa.h"
#include "cep/fleet_snapshot.h"
#include "common/rng.h"
#include "common/simd/simd.h"
#include "common/time_utils.h"
#include "datacron/engine.h"
#include "forecast/kalman.h"
#include "geo/bbox.h"
#include "geo/kernels.h"
#include "link/link_discovery.h"
#include "partition/partitioned_store.h"
#include "partition/partitioner.h"
#include "query/engine.h"
#include "rdf/rdfizer.h"
#include "sources/ais_generator.h"
#include "stream/window.h"
#include "bench_nproc.h"

namespace datacron {
namespace {

std::vector<PositionReport> Fleet(std::size_t vessels, DurationMs dur,
                                  DurationMs jitter = 0) {
  AisGeneratorConfig cfg;
  cfg.num_vessels = vessels;
  cfg.duration = dur;
  ObservationConfig obs;
  obs.fixed_interval_ms = 10 * kSecond;
  obs.out_of_order_jitter_ms = jitter;
  return ObserveFleet(GenerateAisFleet(cfg), obs);
}

void AblationSequenceLinks() {
  std::printf("A1: sequence links on/off (60 vessels x 1 h)\n");
  std::printf("%-14s %12s %12s %14s\n", "seq_links", "triples",
              "store_MB~", "2hop_rows");
  const auto stream = Fleet(60, kHour);
  for (bool seq : {true, false}) {
    TermDictionary dict;
    Vocab vocab(&dict);
    Rdfizer::Config rcfg;
    rcfg.emit_sequence_links = seq;
    Rdfizer rdfizer(rcfg, &dict, &vocab);
    std::vector<Triple> triples;
    for (const auto& r : stream) {
      const auto ts = rdfizer.TransformReport(r);
      triples.insert(triples.end(), ts.begin(), ts.end());
    }
    HashPartitioner one(1, &rdfizer.tags());
    PartitionedRdfStore store;
    store.Load(triples, one, rdfizer.grid());
    QueryEngine qe(&store, &rdfizer);
    QueryBuilder qb;
    qb.WhereVar("a", vocab.p_next_node, "b");
    qb.WhereVar("b", vocab.p_next_node, "c");
    const auto rs = qe.ExecuteLocal(qb.Build());
    // Rough in-memory estimate: 3 permutations x 24 bytes per triple.
    std::printf("%-14s %12zu %12.1f %14zu\n", seq ? "on" : "off",
                triples.size(), triples.size() * 3 * 24 / 1e6,
                rs.rows.size());
  }
}

void AblationBlockingFrame() {
  std::printf("\nA2: link-discovery time-frame width (80 vessels x 30 min, "
              "threshold 2 km)\n");
  std::printf("%-14s %12s %12s\n", "tolerance_s", "links", "blocked_ms");
  const auto stream = Fleet(80, 30 * kMinute);
  for (DurationMs tol : {10 * kSecond, 30 * kSecond, 60 * kSecond,
                         120 * kSecond}) {
    LinkDiscovery::Config cfg;
    cfg.time_tolerance = tol;
    LinkDiscovery link(cfg);
    Stopwatch timer;
    const auto links = link.DiscoverProximity(stream);
    std::printf("%-14lld %12zu %12.1f\n",
                static_cast<long long>(tol / 1000), links.size(),
                timer.ElapsedMillis());
  }
}

void AblationLateness() {
  std::printf("\nA3: window allowed-lateness under 60 s ooo-jitter "
              "(40 vessels x 30 min)\n");
  std::printf("%-14s %12s %12s\n", "lateness_s", "windows", "dropped");
  const auto stream = Fleet(40, 30 * kMinute, /*jitter=*/60 * kSecond);
  for (DurationMs lateness : {0 * kSecond, 15 * kSecond, 30 * kSecond,
                              60 * kSecond, 120 * kSecond}) {
    using Win = TumblingWindowOperator<PositionReport, EntityId, double>;
    Win win(
        "count", kMinute, lateness,
        [](const PositionReport& r) { return r.entity_id; },
        [](const PositionReport& r) { return r.timestamp; },
        [](double* acc, const PositionReport&) { *acc += 1; });
    std::vector<Win::Out> out;
    for (const auto& r : stream) win.ProcessCounted(r, &out);
    win.Flush(&out);
    std::printf("%-14lld %12zu %12zu\n",
                static_cast<long long>(lateness / 1000), out.size(),
                win.dropped_late());
  }
}

void AblationSynopsesPath() {
  std::printf("\nA4: synopses-then-transform vs transform-everything "
              "(100 vessels x 1 h, full engine)\n");
  std::printf("%-16s %12s %12s %14s %12s\n", "path", "triples",
              "reports/s", "p99_ms", "dict_terms");
  const auto stream = Fleet(100, kHour);
  for (bool all : {false, true}) {
    DatacronEngine::Config cfg;
    cfg.rdfize_all_reports = all;
    DatacronEngine engine(cfg);
    Stopwatch timer;
    for (const auto& r : stream) engine.Ingest(r);
    engine.Finish();
    const double secs = timer.ElapsedSeconds();
    std::printf("%-16s %12zu %12.0f %14.4f %12zu\n",
                all ? "all_reports" : "synopses", engine.triples().size(),
                stream.size() / secs,
                engine.MetricsSnapshot().histograms.at("engine.report_ns")
                        .p99() / 1e6,
                engine.dictionary()->size());
  }
}

// ------------------------------------------------------------------ E12

struct KernelRecord {
  std::string kernel;
  std::size_t lanes = 0;
  double scalar_ns = 0;  // per lane
  double simd_ns = 0;    // per lane
  bool identical = false;
  double speedup() const {
    return simd_ns > 0 ? scalar_ns / simd_ns : 0.0;
  }
};

bool BitsEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Times `fn(dispatch, out)` per dispatch path over `reps` runs and
/// checks the two output columns for bitwise equality.
template <typename Fn>
KernelRecord TimeKernel(const char* name, std::size_t lanes, int reps,
                        const Fn& fn) {
  KernelRecord rec;
  rec.kernel = name;
  rec.lanes = lanes;
  std::vector<double> out_scalar(lanes), out_native(lanes);
  // Warm both paths (page in the columns, settle the clocks).
  fn(SimdDispatch::kScalarOnly, &out_scalar);
  fn(SimdDispatch::kNative, &out_native);
  rec.identical = BitsEqual(out_scalar, out_native);
  Stopwatch timer;
  for (int r = 0; r < reps; ++r) fn(SimdDispatch::kScalarOnly, &out_scalar);
  rec.scalar_ns = timer.ElapsedSeconds() * 1e9 / (reps * lanes);
  timer = Stopwatch();
  for (int r = 0; r < reps; ++r) fn(SimdDispatch::kNative, &out_native);
  rec.simd_ns = timer.ElapsedSeconds() * 1e9 / (reps * lanes);
  return rec;
}

std::vector<KernelRecord> BenchKernels() {
  constexpr std::size_t kLanes = 4096;
  constexpr int kReps = 200;
  Rng rng(12012);
  std::vector<KernelRecord> records;

  // Shared random columns in the Aegean box the fleet benches use.
  std::vector<double> a_lat(kLanes), a_lon(kLanes), a_alt(kLanes),
      a_ts(kLanes), b_lat(kLanes), b_lon(kLanes), b_alt(kLanes), b_ts(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    a_lat[i] = rng.Uniform(35, 39);
    a_lon[i] = rng.Uniform(22, 27);
    a_alt[i] = rng.Uniform(0, 10000);
    a_ts[i] = 0.0;
    b_lat[i] = a_lat[i] + rng.Uniform(-0.1, 0.1);
    b_lon[i] = a_lon[i] + rng.Uniform(-0.1, 0.1);
    b_alt[i] = a_alt[i] + rng.Uniform(-500, 500);
    b_ts[i] = 600000.0;
  }

  records.push_back(TimeKernel(
      "haversine", kLanes, kReps,
      [&](SimdDispatch d, std::vector<double>* out) {
        HaversineMetersBatch(a_lat.data(), a_lon.data(), b_lat.data(),
                             b_lon.data(), kLanes, out->data(), d);
      }));

  const double cos_ref = std::cos(37.0 * kDegToRad);
  records.push_back(TimeKernel(
      "equirectangular", kLanes, kReps,
      [&](SimdDispatch d, std::vector<double>* out) {
        EquirectangularMetersBatch(cos_ref, a_lat.data(), a_lon.data(),
                                   b_lat.data(), b_lon.data(), kLanes,
                                   out->data(), d);
      }));

  const LatLon seg_a{37.0, 24.0}, seg_b{37.4, 24.6};
  records.push_back(TimeKernel(
      "point_to_segment", kLanes, kReps,
      [&](SimdDispatch d, std::vector<double>* out) {
        PointToSegmentMetersBatch(seg_a, seg_b, a_lat.data(), a_lon.data(),
                                  kLanes, out->data(), d);
      }));

  std::vector<double> p_ts(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) p_ts[i] = rng.Uniform(0, 600000);
  records.push_back(TimeKernel(
      "sed", kLanes, kReps, [&](SimdDispatch d, std::vector<double>* out) {
        SedMetersBatch(37.0, 24.0, 0.0, 0.0, 37.4, 24.6, 0.0, 600000.0,
                       a_lat.data(), a_lon.data(), a_alt.data(), p_ts.data(),
                       kLanes, out->data(), d);
      }));

  // CPA over a dense snapshot: random row pairs, timed through the full
  // batch entry point (gather + kernel + scatter).
  FleetSnapshot fleet;
  for (std::size_t i = 0; i < 512; ++i) {
    PositionReport r;
    r.entity_id = static_cast<EntityId>(i + 1);
    r.timestamp = 1000000;
    r.position = {rng.Uniform(35, 39), rng.Uniform(22, 27), 0};
    r.speed_mps = rng.Uniform(0, 15);
    r.course_deg = rng.Uniform(0, 360);
    fleet.Append(r);
  }
  std::vector<CpaPair> pairs(kLanes);
  for (auto& p : pairs) {
    p.a_row = static_cast<std::uint32_t>(rng.UniformInt(0, 511));
    p.b_row = static_cast<std::uint32_t>(rng.UniformInt(0, 511));
  }
  std::vector<CpaResult> cpa_out(kLanes);
  records.push_back(TimeKernel(
      "cpa_batch", kLanes, kReps,
      [&](SimdDispatch d, std::vector<double>* out) {
        ComputeCpaBatch(fleet, pairs.data(), kLanes, cpa_out.data(), d);
        for (std::size_t i = 0; i < kLanes; ++i) {
          (*out)[i] = cpa_out[i].d_cpa_m;
        }
      }));

  // Bbox containment: one point against a sector grid of boxes.
  BboxSoa boxes;
  constexpr std::size_t kBoxes = 256;
  for (std::size_t i = 0; i < kBoxes; ++i) {
    const double lat0 = rng.Uniform(35, 38.5);
    const double lon0 = rng.Uniform(22, 26.5);
    boxes.Add(BoundingBox::Of(lat0, lon0, lat0 + 0.5, lon0 + 0.5));
  }
  std::vector<std::uint8_t> hits(kBoxes);
  records.push_back(TimeKernel(
      "bbox_contains", kBoxes, kReps * 16,
      [&](SimdDispatch d, std::vector<double>* out) {
        BboxContainsBatch(boxes, {a_lat[0], a_lon[0]}, hits.data(), d);
        for (std::size_t i = 0; i < kBoxes; ++i) (*out)[i] = hits[i];
      }));

  return records;
}

/// Kalman backend comparison: same stream through the native and the
/// forced-scalar filter; identity is the bitwise equality of every
/// entity's final estimate.
KernelRecord BenchKalman() {
  Rng rng(12013);
  constexpr std::size_t kEntities = 64;
  constexpr int kSteps = 400;
  std::vector<PositionReport> stream;
  stream.reserve(kEntities * kSteps);
  for (int s = 0; s < kSteps; ++s) {
    for (std::size_t e = 0; e < kEntities; ++e) {
      PositionReport r;
      r.entity_id = static_cast<EntityId>(e + 1);
      r.timestamp = static_cast<TimestampMs>(s) * 10000;
      r.position = {36.0 + 0.001 * s + 0.01 * static_cast<double>(e),
                    24.0 + 0.001 * s, 0};
      r.speed_mps = 8.0 + rng.Uniform(-1, 1);
      r.course_deg = 45.0 + rng.Uniform(-3, 3);
      stream.push_back(r);
    }
  }
  KernelRecord rec;
  rec.kernel = "kalman_observe";
  rec.lanes = stream.size();
  auto run = [&stream](bool force_scalar) {
    KalmanPredictor::Config cfg;
    cfg.force_scalar_simd = force_scalar;
    KalmanPredictor filter(cfg);
    filter.ObserveBatch(std::span<const PositionReport>(stream));
    return filter;
  };
  {
    Stopwatch timer;
    KalmanPredictor scalar = run(true);
    rec.scalar_ns = timer.ElapsedSeconds() * 1e9 / stream.size();
    Stopwatch timer2;
    KalmanPredictor native = run(false);
    rec.simd_ns = timer2.ElapsedSeconds() * 1e9 / stream.size();
    rec.identical = true;
    for (std::size_t e = 1; e <= kEntities; ++e) {
      GeoPoint pn, ps;
      double ven, vnn, ves, vns;
      if (!native.CurrentEstimate(e, &pn, &ven, &vnn) ||
          !scalar.CurrentEstimate(e, &ps, &ves, &vns) ||
          std::memcmp(&pn, &ps, sizeof(pn)) != 0 || ven != ves ||
          vnn != vns) {
        rec.identical = false;
      }
    }
  }
  return rec;
}

void WriteSimdJson(const char* path, const std::vector<KernelRecord>& records,
                   double geomean, std::size_t e2e_reports, double e2e_rps,
                   std::size_t e2e_events) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"experiment\": \"E12_simd_kernels\",\n");
  std::fprintf(f, "  \"nproc\": %u,\n", Nproc());
  std::fprintf(f, "  \"backend\": \"%s\",\n  \"native_width\": %d,\n",
               simd::NativeBackendName(), simd::kNativeWidth);
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const KernelRecord& r = records[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"lanes\": %zu, "
                 "\"scalar_ns_per_lane\": %.2f, \"simd_ns_per_lane\": %.2f, "
                 "\"speedup\": %.3f, \"identical\": %s}%s\n",
                 r.kernel.c_str(), r.lanes, r.scalar_ns, r.simd_ns,
                 r.speedup(), r.identical ? "true" : "false",
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"geomean_speedup\": %.3f,\n", geomean);
  std::fprintf(f,
               "  \"end_to_end\": {\"reports\": %zu, \"reports_per_s\": "
               "%.0f, \"events\": %zu}\n}\n",
               e2e_reports, e2e_rps, e2e_events);
  std::fclose(f);
}

void SimdKernelSection() {
  std::printf("\nE12: SIMD kernel layer (backend=%s, width=%d)\n",
              simd::NativeBackendName(), simd::kNativeWidth);
  std::printf("%-18s %10s %14s %14s %10s %10s\n", "kernel", "lanes",
              "scalar_ns", "simd_ns", "speedup", "identical");
  std::vector<KernelRecord> records = BenchKernels();
  records.push_back(BenchKalman());
  double log_sum = 0.0;
  for (const KernelRecord& r : records) {
    std::printf("%-18s %10zu %14.2f %14.2f %9.2fx %10s\n", r.kernel.c_str(),
                r.lanes, r.scalar_ns, r.simd_ns, r.speedup(),
                r.identical ? "yes" : "NO");
    log_sum += std::log(r.speedup());
  }
  const double geomean = std::exp(log_sum / records.size());
  std::printf("geometric-mean speedup: %.2fx\n", geomean);

  // E11-style end-to-end rerun: the full engine over a fleet hour, now
  // with every numeric hot path on the batched kernels.
  const auto stream = Fleet(100, kHour);
  DatacronEngine engine((DatacronEngine::Config()));
  std::size_t events = 0;
  Stopwatch timer;
  for (const auto& r : stream) events += engine.Ingest(r).size();
  events += engine.Finish().size();
  const double rps = stream.size() / timer.ElapsedSeconds();
  std::printf("end-to-end engine: %zu reports, %.0f reports/s, %zu events\n",
              stream.size(), rps, events);

  WriteSimdJson("BENCH_simd.json", records, geomean, stream.size(), rps,
                events);
}

}  // namespace

void Run() {
  AblationSequenceLinks();
  AblationBlockingFrame();
  AblationLateness();
  AblationSynopsesPath();
  SimdKernelSection();
}

}  // namespace datacron

int main() {
  datacron::Run();
  return 0;
}
