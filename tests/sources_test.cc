#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/time_utils.h"
#include "sources/adsb_generator.h"
#include "sources/ais_generator.h"
#include "sources/codec.h"
#include "sources/model.h"
#include "sources/replay.h"
#include "sources/weather.h"
#include "fuzz_mutations.h"

namespace datacron {
namespace {

AisGeneratorConfig SmallFleet() {
  AisGeneratorConfig cfg;
  cfg.num_vessels = 10;
  cfg.duration = 30 * kMinute;
  return cfg;
}

// --------------------------------------------------------------- truth

TEST(TruthTraceTest, StateAtInterpolates) {
  TruthTrace trace;
  trace.entity_id = 1;
  trace.tick_ms = 1000;
  trace.start_time = 0;
  PositionReport a;
  a.position = {37.0, 24.0, 0};
  a.timestamp = 0;
  a.speed_mps = 10;
  PositionReport b = a;
  b.position = {37.001, 24.0, 0};
  b.timestamp = 1000;
  trace.samples = {a, b};
  PositionReport mid;
  ASSERT_TRUE(trace.StateAt(500, &mid));
  EXPECT_NEAR(mid.position.lat_deg, 37.0005, 1e-9);
  // Clamps outside.
  PositionReport before, after;
  trace.StateAt(-100, &before);
  EXPECT_EQ(before.position.lat_deg, a.position.lat_deg);
  trace.StateAt(99999, &after);
  EXPECT_EQ(after.position.lat_deg, b.position.lat_deg);
}

// --------------------------------------------------------------- AIS

TEST(AisGeneratorTest, Deterministic) {
  const auto a = GenerateAisFleet(SmallFleet());
  const auto b = GenerateAisFleet(SmallFleet());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].samples.size(), b[i].samples.size());
    EXPECT_EQ(a[i].samples.back(), b[i].samples.back());
  }
}

TEST(AisGeneratorTest, FleetShapeAndIds) {
  const auto traces = GenerateAisFleet(SmallFleet());
  ASSERT_EQ(traces.size(), 10u);
  std::set<EntityId> ids;
  for (const auto& t : traces) {
    ids.insert(t.entity_id);
    EXPECT_EQ(t.domain, Domain::kMaritime);
    EXPECT_GE(t.entity_id, 200000000u);
    EXPECT_EQ(t.samples.size(),
              static_cast<std::size_t>(30 * 60 + 1));  // 1 Hz + fencepost
  }
  EXPECT_EQ(ids.size(), 10u);  // unique
}

TEST(AisGeneratorTest, PositionsStayInRegion) {
  AisGeneratorConfig cfg = SmallFleet();
  const auto traces = GenerateAisFleet(cfg);
  const BoundingBox loose = cfg.region.Inflated(0.1);
  for (const auto& t : traces) {
    for (const auto& s : t.samples) {
      EXPECT_TRUE(loose.Contains(s.position.ll()))
          << ToString(s.position);
    }
  }
}

TEST(AisGeneratorTest, KinematicsAreConsistent) {
  // Distance between consecutive samples matches reported speed * dt.
  AisGeneratorConfig cfg = SmallFleet();
  cfg.num_vessels = 3;
  const auto traces = GenerateAisFleet(cfg);
  for (const auto& t : traces) {
    for (std::size_t i = 1; i < t.samples.size(); i += 37) {
      const auto& prev = t.samples[i - 1];
      const auto& cur = t.samples[i];
      const double d =
          HaversineMeters(prev.position.ll(), cur.position.ll());
      EXPECT_NEAR(d, prev.speed_mps * 1.0, 2.0);
    }
  }
}

TEST(AisGeneratorTest, TurnRateRespected) {
  AisGeneratorConfig cfg = SmallFleet();
  cfg.num_vessels = 5;
  const auto traces = GenerateAisFleet(cfg);
  for (const auto& t : traces) {
    for (std::size_t i = 1; i < t.samples.size(); ++i) {
      EXPECT_LE(CourseDifferenceDeg(t.samples[i].course_deg,
                                    t.samples[i - 1].course_deg),
                cfg.max_turn_rate_deg_s + 1e-6);
    }
  }
}

TEST(AisReportIntervalTest, SpeedDependentCadence) {
  EXPECT_EQ(AisReportIntervalMs(0.1), 180 * kSecond);
  EXPECT_EQ(AisReportIntervalMs(10 * kKnotsToMps), 10 * kSecond);
  EXPECT_EQ(AisReportIntervalMs(18 * kKnotsToMps), 6 * kSecond);
  EXPECT_EQ(AisReportIntervalMs(25 * kKnotsToMps), 2 * kSecond);
}

// --------------------------------------------------------------- observe

TEST(ObserveTest, NoiseFreeObservationMatchesTruth) {
  const auto traces = GenerateAisFleet(SmallFleet());
  ObservationConfig obs;
  obs.position_noise_m = 0;
  obs.speed_noise_mps = 0;
  obs.course_noise_deg = 0;
  obs.drop_probability = 0;
  obs.gap_probability = 0;
  obs.fixed_interval_ms = 10 * kSecond;
  const auto reports = Observe(traces[0], obs);
  ASSERT_FALSE(reports.empty());
  for (const auto& r : reports) {
    PositionReport truth;
    traces[0].StateAt(r.timestamp, &truth);
    EXPECT_NEAR(
        HaversineMeters(r.position.ll(), truth.position.ll()), 0, 0.5);
  }
}

TEST(ObserveTest, NoiseMagnitudeAsConfigured) {
  const auto traces = GenerateAisFleet(SmallFleet());
  ObservationConfig obs;
  obs.position_noise_m = 50;
  obs.drop_probability = 0;
  obs.gap_probability = 0;
  obs.fixed_interval_ms = 5 * kSecond;
  const auto reports = Observe(traces[0], obs);
  double total_err = 0;
  for (const auto& r : reports) {
    PositionReport truth;
    traces[0].StateAt(r.timestamp, &truth);
    total_err += HaversineMeters(r.position.ll(), truth.position.ll());
  }
  const double mean_err = total_err / reports.size();
  // |N(0,50)| has mean ~40; allow generous margin.
  EXPECT_GT(mean_err, 15);
  EXPECT_LT(mean_err, 90);
}

TEST(ObserveTest, DropsReduceCount) {
  const auto traces = GenerateAisFleet(SmallFleet());
  ObservationConfig no_drop;
  no_drop.drop_probability = 0;
  no_drop.gap_probability = 0;
  no_drop.fixed_interval_ms = 5 * kSecond;
  ObservationConfig heavy_drop = no_drop;
  heavy_drop.drop_probability = 0.5;
  const auto full = Observe(traces[0], no_drop);
  const auto dropped = Observe(traces[0], heavy_drop);
  EXPECT_LT(dropped.size(), full.size() * 0.7);
  EXPECT_GT(dropped.size(), full.size() * 0.3);
}

TEST(ObserveTest, GapsCreateSilences) {
  const auto traces = GenerateAisFleet(SmallFleet());
  ObservationConfig obs;
  obs.drop_probability = 0;
  obs.gap_probability = 0.05;
  obs.min_gap = 2 * kMinute;
  obs.max_gap = 5 * kMinute;
  obs.fixed_interval_ms = 5 * kSecond;
  const auto reports = Observe(traces[0], obs);
  DurationMs max_silence = 0;
  for (std::size_t i = 1; i < reports.size(); ++i) {
    max_silence = std::max(
        max_silence, reports[i].timestamp - reports[i - 1].timestamp);
  }
  EXPECT_GE(max_silence, 2 * kMinute);
}

TEST(ObserveFleetTest, MergedStreamTimeOrdered) {
  const auto traces = GenerateAisFleet(SmallFleet());
  ObservationConfig obs;
  const auto stream = ObserveFleet(traces, obs);
  for (std::size_t i = 1; i < stream.size(); ++i) {
    EXPECT_LE(stream[i - 1].timestamp, stream[i].timestamp);
  }
}

TEST(ObserveFleetTest, JitterProducesOutOfOrderEventTimes) {
  const auto traces = GenerateAisFleet(SmallFleet());
  ObservationConfig obs;
  obs.out_of_order_jitter_ms = 30 * kSecond;
  const auto stream = ObserveFleet(traces, obs);
  bool any_inversion = false;
  for (std::size_t i = 1; i < stream.size(); ++i) {
    if (stream[i].timestamp < stream[i - 1].timestamp) {
      any_inversion = true;
      break;
    }
  }
  EXPECT_TRUE(any_inversion);
}

// --------------------------------------------------------------- ADS-B

TEST(AdsbGeneratorTest, FlightsClimbCruiseDescend) {
  AdsbGeneratorConfig cfg;
  cfg.num_flights = 10;
  cfg.duration = 90 * kMinute;
  const auto traces = GenerateAdsbTraffic(cfg);
  ASSERT_EQ(traces.size(), 10u);
  int flights_reaching_cruise = 0;
  for (const auto& t : traces) {
    EXPECT_EQ(t.domain, Domain::kAviation);
    double max_alt = 0;
    for (const auto& s : t.samples) {
      max_alt = std::max(max_alt, s.position.alt_m);
      EXPECT_GE(s.position.alt_m, 0.0);
      EXPECT_LE(s.position.alt_m, cfg.cruise_alt_max_m + 1.0);
    }
    if (max_alt >= cfg.cruise_alt_min_m - 1.0) ++flights_reaching_cruise;
    // Starts on the ground.
    EXPECT_LT(t.samples.front().position.alt_m, 50.0);
  }
  EXPECT_GT(flights_reaching_cruise, 5);
}

TEST(AdsbGeneratorTest, VerticalRateSignsMatchPhases) {
  AdsbGeneratorConfig cfg;
  cfg.num_flights = 5;
  const auto traces = GenerateAdsbTraffic(cfg);
  for (const auto& t : traces) {
    for (std::size_t i = 1; i + 1 < t.samples.size(); ++i) {
      const auto& s = t.samples[i];
      if (s.vertical_rate_mps > 1) {
        EXPECT_LT(s.position.alt_m, cfg.cruise_alt_max_m);
      }
    }
  }
}

TEST(AdsbGeneratorTest, Deterministic) {
  AdsbGeneratorConfig cfg;
  cfg.num_flights = 4;
  const auto a = GenerateAdsbTraffic(cfg);
  const auto b = GenerateAdsbTraffic(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].samples.size(), b[i].samples.size());
  }
}

// --------------------------------------------------------------- weather

TEST(WeatherTest, DeterministicAndInBuckets) {
  WeatherSource::Config cfg;
  WeatherSource w1(cfg), w2(cfg);
  const LatLon p{36.5, 24.5};
  const TimestampMs t = cfg.start_time + 3 * kHour + 12345;
  const WeatherSample a = w1.At(p, t);
  const WeatherSample b = w2.At(p, t);
  EXPECT_EQ(a.cell, b.cell);
  EXPECT_DOUBLE_EQ(a.wind_u_mps, b.wind_u_mps);
  EXPECT_DOUBLE_EQ(a.wave_height_m, b.wave_height_m);
  // Bucket snapping.
  EXPECT_EQ(a.bucket_start, cfg.start_time + 3 * kHour);
  const WeatherSample c = w1.At(p, t + 5 * kMinute);
  EXPECT_EQ(c.bucket_start, a.bucket_start);
  EXPECT_DOUBLE_EQ(c.wind_u_mps, a.wind_u_mps);
}

TEST(WeatherTest, NonNegativeWaves) {
  WeatherSource::Config cfg;
  WeatherSource w(cfg);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const WeatherSample s =
        w.At({rng.Uniform(35, 39), rng.Uniform(23, 27)},
             cfg.start_time + rng.UniformInt(0, cfg.duration));
    EXPECT_GE(s.wave_height_m, 0.0);
  }
}

TEST(WeatherTest, MaterializeAllCoversGridTimesBuckets) {
  WeatherSource::Config cfg;
  cfg.duration = 3 * kHour;
  cfg.cell_deg = 1.0;
  WeatherSource w(cfg);
  const auto all = w.MaterializeAll();
  EXPECT_EQ(all.size(), static_cast<std::size_t>(w.grid().CellCount() * 3));
}

// --------------------------------------------------------------- codec

TEST(CodecTest, RoundTripSingle) {
  PositionReport r;
  r.entity_id = 200000123;
  r.domain = Domain::kAviation;
  r.timestamp = 1490054400123;
  r.position = {37.1234567, 24.7654321, 9144.5};
  r.speed_mps = 231.75;
  r.course_deg = 187.25;
  r.vertical_rate_mps = -8.5;
  const auto decoded = DecodeReportCsv(EncodeReportCsv(r));
  ASSERT_TRUE(decoded.ok());
  const PositionReport& d = decoded.value();
  EXPECT_EQ(d.entity_id, r.entity_id);
  EXPECT_EQ(d.domain, r.domain);
  EXPECT_EQ(d.timestamp, r.timestamp);
  EXPECT_NEAR(d.position.lat_deg, r.position.lat_deg, 1e-7);
  EXPECT_NEAR(d.speed_mps, r.speed_mps, 1e-3);
}

TEST(CodecTest, RoundTripBatchWithHeader) {
  const auto traces = GenerateAisFleet(SmallFleet());
  ObservationConfig obs;
  const auto reports = ObserveFleet(traces, obs);
  const std::string csv = EncodeReportsCsv(reports);
  const auto decoded = DecodeReportsCsv(csv);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().size(), reports.size());
  for (std::size_t i = 0; i < reports.size(); i += 101) {
    EXPECT_EQ(decoded.value()[i].entity_id, reports[i].entity_id);
    EXPECT_EQ(decoded.value()[i].timestamp, reports[i].timestamp);
  }
}

TEST(CodecTest, RejectsMalformed) {
  EXPECT_FALSE(DecodeReportCsv("not,enough,fields").ok());
  EXPECT_FALSE(
      DecodeReportCsv("1,maritime,abc,37,24,0,1,2,3").ok());
  EXPECT_FALSE(
      DecodeReportCsv("1,submarine,1000,37,24,0,1,2,3").ok());
  EXPECT_FALSE(
      DecodeReportCsv("1,maritime,1000,999,24,0,1,2,3").ok());  // bad lat
}

TEST(CodecTest, MutatedCsvDocumentsYieldStatusNeverCrash) {
  std::vector<PositionReport> reports(3);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    reports[i].entity_id = 200000000 + i;
    reports[i].domain = i == 1 ? Domain::kAviation : Domain::kMaritime;
    reports[i].timestamp = 1490054400123 + static_cast<TimestampMs>(i);
    reports[i].position = {37.5 - static_cast<double>(i), 24.25, 10.0};
    reports[i].speed_mps = 7.5;
    reports[i].course_deg = 123.25;
  }
  const std::string csv = EncodeReportsCsv(reports);
  ASSERT_TRUE(DecodeReportsCsv(csv).ok());
  const auto check = [&](const std::string& text) {
    const auto decoded = DecodeReportsCsv(text);
    // A corrupt byte can split one line in two, never more.
    if (decoded.ok()) {
      EXPECT_LE(decoded.value().size(), reports.size() + 1);
    }
  };
  ForEachPrefix(csv, check);
  ForEachByteCorruption(csv, check);
}

// --------------------------------------------------------------- replay

TEST(ReplayerTest, DeliversAllInOrder) {
  const auto traces = GenerateAisFleet(SmallFleet());
  ObservationConfig obs;
  obs.out_of_order_jitter_ms = 60 * kSecond;  // scrambled input
  auto reports = ObserveFleet(traces, obs);
  const std::size_t n = reports.size();
  Replayer replayer(std::move(reports));  // as-fast-as-possible
  PositionReport r;
  std::size_t count = 0;
  TimestampMs prev = INT64_MIN;
  while (replayer.Next(&r)) {
    EXPECT_GE(r.timestamp, prev);  // replayer re-sorts
    prev = r.timestamp;
    ++count;
  }
  EXPECT_EQ(count, n);
}

TEST(ReplayerTest, PacedReplayRespectsSpeedup) {
  // 2 simulated seconds at 100x => ~20 ms wall.
  std::vector<PositionReport> reports(3);
  reports[0].timestamp = 0;
  reports[1].timestamp = 1000;
  reports[2].timestamp = 2000;
  Replayer replayer(reports, /*speedup=*/100.0);
  PositionReport r;
  Stopwatch timer;
  while (replayer.Next(&r)) {
  }
  const double wall_ms = timer.ElapsedMillis();
  EXPECT_GE(wall_ms, 15.0);
  EXPECT_LT(wall_ms, 500.0);  // generous upper bound for slow CI
}

TEST(ReplayerTest, ResetRestarts) {
  std::vector<PositionReport> reports(3);
  reports[0].timestamp = 10;
  reports[1].timestamp = 20;
  reports[2].timestamp = 30;
  Replayer replayer(reports);
  PositionReport r;
  EXPECT_TRUE(replayer.Next(&r));
  replayer.Reset();
  std::size_t count = 0;
  while (replayer.Next(&r)) ++count;
  EXPECT_EQ(count, 3u);
}

}  // namespace
}  // namespace datacron
