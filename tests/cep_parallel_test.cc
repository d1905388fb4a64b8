// The cell-parallel epoch-batched global CEP stage: ComputeCpa units
// (scalar + struct-of-arrays overload), ProximityDetector batch/serial
// byte-equality at several pool widths, CapacityMonitor incremental vs
// rescan equivalence + the fast-mover prefilter regression, detector
// state bounds under eviction, and full-engine byte-identity across a
// pool-threads x shards matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "cep/capacity_oracle.h"
#include "cep/cpa.h"
#include "cep/detectors.h"
#include "cep/fleet_snapshot.h"
#include "cep/hotspot.h"
#include "common/thread_pool.h"
#include "datacron/engine.h"
#include "sources/adsb_generator.h"
#include "sources/ais_generator.h"

namespace datacron {
namespace {

constexpr TimestampMs kT0 = 1490000000000;  // 2017-03-20, project era

PositionReport Report(EntityId id, double lat, double lon, double speed_mps,
                      double course_deg, TimestampMs ts,
                      Domain domain = Domain::kMaritime, double alt_m = 0.0,
                      double vrate_mps = 0.0) {
  PositionReport r;
  r.entity_id = id;
  r.domain = domain;
  r.timestamp = ts;
  r.position = {lat, lon, alt_m};
  r.speed_mps = speed_mps;
  r.course_deg = course_deg;
  r.vertical_rate_mps = vrate_mps;
  return r;
}

// ---------------------------------------------------------------------
// ComputeCpa units
// ---------------------------------------------------------------------

TEST(ComputeCpaTest, ZeroRelativeMotionKeepsCurrentSeparation) {
  // Same course and speed: separation never changes, CPA is "now".
  const auto a = Report(1, 36.0, 24.0, 8.0, 90.0, kT0);
  const auto b = Report(2, 36.0, 24.05, 8.0, 90.0, kT0);
  const CpaResult cpa = ComputeCpa(a, b);
  EXPECT_DOUBLE_EQ(cpa.t_cpa_s, 0.0);
  EXPECT_DOUBLE_EQ(cpa.d_cpa_m, cpa.d_now_m);
  EXPECT_GT(cpa.d_now_m, 4000.0);
  EXPECT_LT(cpa.d_now_m, 5000.0);
}

TEST(ComputeCpaTest, CoLocatedReportsHaveZeroSeparation) {
  const auto a = Report(1, 36.0, 24.0, 5.0, 0.0, kT0);
  const auto b = Report(2, 36.0, 24.0, 5.0, 180.0, kT0);
  const CpaResult cpa = ComputeCpa(a, b);
  EXPECT_DOUBLE_EQ(cpa.d_now_m, 0.0);
  EXPECT_DOUBLE_EQ(cpa.t_cpa_s, 0.0);
  EXPECT_DOUBLE_EQ(cpa.d_cpa_m, 0.0);
}

TEST(ComputeCpaTest, DivergingPairClampsCpaToNow) {
  // b sits east of a and sails further east: closest approach was in the
  // past, so t clamps to 0 and CPA distance equals current distance.
  const auto a = Report(1, 36.0, 24.0, 0.0, 0.0, kT0);
  const auto b = Report(2, 36.0, 24.01, 10.0, 90.0, kT0);
  const CpaResult cpa = ComputeCpa(a, b);
  EXPECT_DOUBLE_EQ(cpa.t_cpa_s, 0.0);
  EXPECT_DOUBLE_EQ(cpa.d_cpa_m, cpa.d_now_m);
}

TEST(ComputeCpaTest, VerticalRateProjectsAltitudeSeparation) {
  // b approaches a horizontally at 10 m/s from ~1 km east while
  // descending through a's level at 10 m/s: at the horizontal CPA
  // (~100 s) the altitude gap has grown from +300 m to ~-700 m.
  const auto a =
      Report(1, 36.0, 24.0, 0.0, 0.0, kT0, Domain::kAviation, 1000.0, 0.0);
  auto b = Report(2, 36.0, 24.0, 10.0, 270.0, kT0, Domain::kAviation,
                  1300.0, -10.0);
  // Place b ~1000 m east of a.
  b.position.lon_deg = 24.0 + 1000.0 / (kEarthRadiusMeters * kDegToRad *
                                        std::cos(36.0 * kDegToRad));
  const CpaResult cpa = ComputeCpa(a, b);
  EXPECT_NEAR(cpa.t_cpa_s, 100.0, 1.0);
  EXPECT_LT(cpa.d_cpa_m, 50.0);
  EXPECT_NEAR(cpa.d_alt_m, 700.0, 15.0);
}

TEST(ComputeCpaTest, EarlierReportIsDeadReckonedToLaterTimestamp) {
  // a reported 60 s before b; the aligned run must differ from the
  // same-timestamp run by a's 60 s of dead reckoning.
  const auto stale = Report(1, 36.0, 24.0, 10.0, 0.0, kT0 - 60 * kSecond);
  const auto fresh = Report(2, 36.02, 24.0, 0.0, 0.0, kT0);
  const CpaResult cpa = ComputeCpa(stale, fresh);
  auto aligned = stale;
  aligned.position =
      DeadReckon(stale.position, stale.course_deg, stale.speed_mps,
                 stale.vertical_rate_mps, 60.0);
  aligned.timestamp = kT0;
  const CpaResult expect = ComputeCpa(aligned, fresh);
  EXPECT_DOUBLE_EQ(cpa.d_now_m, expect.d_now_m);
  EXPECT_DOUBLE_EQ(cpa.t_cpa_s, expect.t_cpa_s);
}

TEST(ComputeCpaTest, SnapshotOverloadIsBitIdenticalToReportOverload) {
  FleetSnapshot fleet;
  const auto a = Report(7, 36.123, 24.456, 7.3, 41.0, kT0 + 1234,
                        Domain::kAviation, 3200.0, 4.5);
  const auto b = Report(9, 36.121, 24.459, 11.9, 222.0, kT0 + 987,
                        Domain::kAviation, 2900.0, -2.25);
  const std::uint32_t ra = fleet.Append(a);
  const std::uint32_t rb = fleet.Append(b);
  EXPECT_EQ(fleet.ReportAt(ra), a);
  EXPECT_EQ(fleet.ReportAt(rb), b);
  const CpaResult scalar = ComputeCpa(a, b);
  const CpaResult soa = ComputeCpa(fleet, ra, rb);
  EXPECT_EQ(scalar.t_cpa_s, soa.t_cpa_s);
  EXPECT_EQ(scalar.d_cpa_m, soa.d_cpa_m);
  EXPECT_EQ(scalar.d_alt_m, soa.d_alt_m);
  EXPECT_EQ(scalar.d_now_m, soa.d_now_m);
}

// ---------------------------------------------------------------------
// ProximityDetector: batch == serial, bounded state
// ---------------------------------------------------------------------

/// Dense fleet in a small box so the blocking grid actually produces
/// candidate pairs.
std::vector<PositionReport> DenseFleet(std::size_t vessels,
                                       DurationMs duration) {
  AisGeneratorConfig fleet;
  fleet.region = BoundingBox::Of(36.0, 24.0, 36.5, 24.5);
  fleet.num_vessels = vessels;
  fleet.duration = duration;
  ObservationConfig obs;
  obs.fixed_interval_ms = 15 * kSecond;
  std::vector<PositionReport> reports =
      ObserveFleet(GenerateAisFleet(fleet), obs);
  std::sort(reports.begin(), reports.end(), ReportTimeOrder());
  return reports;
}

ProximityDetector::Config DenseProximityConfig() {
  ProximityDetector::Config cfg;
  cfg.region = BoundingBox::Of(36.0, 24.0, 36.5, 24.5);
  cfg.evict_sweep_interval = 257;  // off-epoch-boundary on purpose
  return cfg;
}

TEST(ProximityBatchTest, BatchMatchesSerialAtEveryPoolWidth) {
  const auto stream = DenseFleet(30, 30 * kMinute);
  ASSERT_GT(stream.size(), 2000u);

  ProximityDetector serial(DenseProximityConfig());
  std::vector<Event> serial_events;
  for (const PositionReport& r : stream) {
    serial.Process(r, &serial_events);
  }
  ASSERT_FALSE(serial_events.empty());

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    ProximityDetector::Config cfg = DenseProximityConfig();
    cfg.min_parallel_pairs = 1;  // force the pool dispatch path
    ProximityDetector batch(cfg);
    std::vector<Event> batch_events;
    std::vector<std::size_t> offsets;
    constexpr std::size_t kEpoch = 512;
    for (std::size_t i = 0; i < stream.size(); i += kEpoch) {
      const std::size_t len = std::min(kEpoch, stream.size() - i);
      batch.ProcessBatch(
          std::span<const PositionReport>(stream.data() + i, len), &pool,
          &batch_events, &offsets);
      // Offsets slice the epoch's events back per report.
      ASSERT_EQ(offsets.size(), len + 1);
      EXPECT_EQ(offsets.back(), batch_events.size());
    }
    EXPECT_EQ(serial_events, batch_events)
        << "divergence at " << threads << " pool threads";

    const auto ss = serial.Stats();
    const auto bs = batch.Stats();
    EXPECT_EQ(ss.tracked_entities, bs.tracked_entities);
    EXPECT_EQ(ss.occupied_cells, bs.occupied_cells);
    EXPECT_EQ(ss.rate_entries, bs.rate_entries);
  }
}

TEST(ProximityBatchTest, EvictionBoundsStateOnChurningFleet) {
  // 5000 one-shot entities, one report each, 1 s apart: without eviction
  // the detector would track all of them forever.
  ProximityDetector::Config cfg;
  cfg.staleness = 3 * kMinute;
  cfg.evict_sweep_interval = 256;
  ProximityDetector det(cfg);
  std::vector<Event> events;
  for (std::uint32_t i = 0; i < 5000; ++i) {
    det.Process(Report(100000 + i, 36.0 + 0.0001 * (i % 100), 24.0,
                       5.0, 0.0, kT0 + i * kSecond),
                &events);
  }
  const auto stats = det.Stats();
  // Live window is staleness (180 reports at 1 Hz) plus at most one
  // sweep interval of not-yet-evicted entities.
  EXPECT_LE(stats.tracked_entities, 180u + cfg.evict_sweep_interval);
  EXPECT_GE(stats.tracked_entities, 100u);
  // The SoA log compacts; it must not retain all 5000 rows.
  EXPECT_LE(stats.snapshot_rows, 4600u);
  // Rate-limit entries are bounded by pairs alarmed within the re-alarm
  // window (~5 min + one sweep at 1 report/s here), independent of total
  // stream length — far below the ~12.5M all-pairs worst case.
  EXPECT_LE(stats.rate_entries, 160000u);
}

TEST(ProximityBatchTest, UnknownPartnerIdsAreNeverMaterialized) {
  // Two co-located entities; after the first goes stale and is evicted,
  // reports near its old cell must not resurrect it as a blank partner
  // (the old latest_[other_id] default-insert bug).
  ProximityDetector::Config cfg;
  cfg.staleness = 1 * kMinute;
  cfg.evict_sweep_interval = 4;
  ProximityDetector det(cfg);
  std::vector<Event> events;
  det.Process(Report(1, 36.0, 24.0, 5.0, 0.0, kT0), &events);
  for (int i = 0; i < 20; ++i) {
    det.Process(Report(2, 36.0, 24.0, 5.0, 0.0,
                       kT0 + 5 * kMinute + i * kSecond),
                &events);
  }
  EXPECT_EQ(det.Stats().tracked_entities, 1u);
}

// ---------------------------------------------------------------------
// CapacityMonitor: incremental == rescan, prefilter regression
// ---------------------------------------------------------------------

std::vector<CapacityMonitor::Sector> TestSectors() {
  return {
      CapacityMonitor::Sector{
          "west", Polygon::Rectangle(BoundingBox::Of(36.0, 24.0, 36.5, 24.25)),
          3},
      CapacityMonitor::Sector{
          "east", Polygon::Rectangle(BoundingBox::Of(36.0, 24.25, 36.5, 24.5)),
          3},
      CapacityMonitor::Sector{
          "all", Polygon::Rectangle(BoundingBox::Of(36.0, 24.0, 36.5, 24.5)),
          8},
  };
}

TEST(CapacityIncrementalTest, MatchesRescanBaselineEventForEvent) {
  const auto stream = DenseFleet(25, 30 * kMinute);

  CapacityMonitor::Config inc_cfg;
  inc_cfg.compact_interval = 100;  // exercise compaction mid-stream
  CapacityMonitor incremental(TestSectors(), inc_cfg);

  CapacityRescanOracle rescan(TestSectors(), CapacityMonitor::Config{});

  std::vector<Event> inc_events, rescan_events;
  for (const PositionReport& r : stream) {
    incremental.Process(r, &inc_events);
    rescan.Process(r, &rescan_events);
  }
  ASSERT_FALSE(inc_events.empty());
  EXPECT_EQ(inc_events, rescan_events);
}

TEST(CapacityIncrementalTest, StaleEntitiesExpireFromOccupancy) {
  CapacityMonitor::Config cfg;
  cfg.staleness = 2 * kMinute;
  cfg.compact_interval = 8;
  CapacityMonitor monitor(TestSectors(), cfg);
  std::vector<Event> events;
  // 50 one-shot entities at t0, then one entity reporting past the
  // staleness horizon: everyone else must expire.
  for (std::uint32_t i = 0; i < 50; ++i) {
    monitor.Process(Report(i + 1, 36.1, 24.1, 5.0, 0.0, kT0 + i), &events);
  }
  EXPECT_EQ(monitor.tracked_entities(), 50u);
  for (int i = 0; i < 32; ++i) {
    monitor.Process(Report(999, 36.4, 24.4, 5.0, 0.0,
                           kT0 + 5 * kMinute + i * kSecond),
                    &events);
  }
  EXPECT_EQ(monitor.tracked_entities(), 1u);
}

TEST(CapacityIncrementalTest, FastMoverTriggersForecastBeyondLegacyGate) {
  // Entity 0.7 deg west of the sector — outside the legacy fixed
  // 0.5 deg prefilter — doing 120 m/s eastbound with a 10 min horizon
  // (reach ~0.8 deg): it dead-reckons into the sector, so the forecast
  // must fire.
  std::vector<CapacityMonitor::Sector> sectors{CapacityMonitor::Sector{
      "target", Polygon::Rectangle(BoundingBox::Of(36.0, 24.0, 37.0, 25.0)),
      0}};
  CapacityMonitor::Config cfg;
  cfg.forecast_horizon = 10 * kMinute;
  CapacityMonitor monitor(sectors, cfg);
  std::vector<Event> events;
  monitor.Process(Report(42, 36.5, 23.3, 120.0, 90.0, kT0,
                         Domain::kAviation, 9000.0),
                  &events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kCapacityForecast);
  EXPECT_EQ(events[0].label, "target");
}

// ---------------------------------------------------------------------
// Hotspot: density-map detection path
// ---------------------------------------------------------------------

TEST(HotspotDensityTest, DetectFromDensityMatchesBatchDetect) {
  HotspotAnalyzer::Config cfg;
  cfg.region = BoundingBox::Of(36.0, 24.0, 36.5, 24.5);
  cfg.cell_deg = 0.05;
  cfg.zscore_threshold = 2.0;
  HotspotAnalyzer analyzer(cfg);

  std::vector<PositionReport> reports;
  // A concentration of 12 entities in one cell over sparse background.
  for (std::uint32_t i = 0; i < 12; ++i) {
    reports.push_back(Report(i + 1, 36.11, 24.11, 3.0, 0.0, kT0 + i));
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    reports.push_back(Report(100 + i, 36.0 + 0.049 * i, 24.3, 3.0, 0.0,
                             kT0 + i));
  }
  const auto direct = analyzer.Detect(reports);
  const auto via_density =
      analyzer.DetectFromDensity(analyzer.Density(reports));
  ASSERT_FALSE(direct.empty());
  ASSERT_EQ(direct.size(), via_density.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].cell, via_density[i].cell);
    EXPECT_DOUBLE_EQ(direct[i].count, via_density[i].count);
    EXPECT_DOUBLE_EQ(direct[i].zscore, via_density[i].zscore);
  }
}

// ---------------------------------------------------------------------
// Full-engine byte-identity: pool threads x shards matrix
// ---------------------------------------------------------------------

DatacronEngine::Config MatrixConfig(std::size_t shards) {
  DatacronEngine::Config cfg;
  cfg.areas.push_back(NamedArea{
      "port_alpha", Polygon::Rectangle(BoundingBox::Of(36, 24, 36.5, 24.5))});
  cfg.sectors.push_back(CapacityMonitor::Sector{
      "aegean", Polygon::Rectangle(BoundingBox::Of(35.0, 23.0, 39.0, 27.0)),
      5});
  cfg.hotspot_window = 10 * kMinute;
  cfg.hotspot.zscore_threshold = 2.0;
  cfg.num_shards = shards;
  cfg.epoch_size = 128;
  return cfg;
}

std::vector<PositionReport> MatrixStream() {
  AisGeneratorConfig fleet;
  fleet.num_vessels = 10;
  fleet.duration = 30 * kMinute;
  ObservationConfig obs;
  obs.fixed_interval_ms = 15 * kSecond;
  std::vector<PositionReport> merged =
      ObserveFleet(GenerateAisFleet(fleet), obs);

  AdsbGeneratorConfig air;
  air.region = BoundingBox::Of(35.0, 23.0, 39.0, 27.0);
  air.num_airports = 3;
  air.num_flights = 5;
  air.duration = 30 * kMinute;
  air.departure_window = 10 * kMinute;
  ObservationConfig air_obs;
  air_obs.fixed_interval_ms = 10 * kSecond;
  const auto adsb = ObserveFleet(GenerateAdsbTraffic(air), air_obs);
  merged.insert(merged.end(), adsb.begin(), adsb.end());
  std::sort(merged.begin(), merged.end(), ReportTimeOrder());
  return merged;
}

struct MatrixRun {
  std::vector<Event> events;
  std::vector<Triple> triples;
  std::size_t dict_size = 0;
};

MatrixRun RunEngine(const std::vector<PositionReport>& stream,
                    std::size_t shards, ThreadPool* pool) {
  DatacronEngine engine(MatrixConfig(shards));
  MatrixRun run;
  run.events = engine.IngestBatch(stream, pool);
  const auto finish = engine.Finish();
  run.events.insert(run.events.end(), finish.begin(), finish.end());
  run.triples = engine.triples();
  run.dict_size = engine.dictionary()->size();
  return run;
}

TEST(EngineGlobalStageMatrixTest, ByteIdenticalAcrossThreadsAndShards) {
  const auto stream = MatrixStream();
  ASSERT_GT(stream.size(), 1500u);

  // Serial reference: per-report Ingest, no pool, one shard.
  DatacronEngine serial_engine(MatrixConfig(1));
  MatrixRun serial;
  for (const PositionReport& r : stream) {
    const auto evs = serial_engine.Ingest(r);
    serial.events.insert(serial.events.end(), evs.begin(), evs.end());
  }
  const auto finish = serial_engine.Finish();
  serial.events.insert(serial.events.end(), finish.begin(), finish.end());
  serial.triples = serial_engine.triples();
  serial.dict_size = serial_engine.dictionary()->size();

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      const MatrixRun run = RunEngine(stream, shards, &pool);
      ASSERT_EQ(serial.events.size(), run.events.size())
          << threads << " threads, " << shards << " shards";
      EXPECT_TRUE(serial.events == run.events)
          << threads << " threads, " << shards << " shards";
      EXPECT_TRUE(serial.triples == run.triples)
          << threads << " threads, " << shards << " shards";
      EXPECT_EQ(serial.dict_size, run.dict_size);
    }
  }
}

}  // namespace
}  // namespace datacron
