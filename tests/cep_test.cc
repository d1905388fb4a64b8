#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>

#include "common/rng.h"
#include "geo/kernels.h"

#include "cep/cpa.h"
#include "cep/detectors.h"
#include "cep/event.h"
#include "cep/hotspot.h"
#include "cep/pattern.h"
#include "sources/ais_generator.h"
#include "stream/pipeline.h"

namespace datacron {
namespace {

PositionReport Moving(EntityId id, TimestampMs t, double lat, double lon,
                      double speed, double course) {
  PositionReport r;
  r.entity_id = id;
  r.timestamp = t;
  r.position = {lat, lon, 0};
  r.speed_mps = speed;
  r.course_deg = course;
  return r;
}

int CountKind(const std::vector<Event>& events, EventKind kind) {
  int n = 0;
  for (const Event& e : events) {
    if (e.kind == kind) ++n;
  }
  return n;
}

// ------------------------------------------------------------- CPA

TEST(CpaTest, HeadOnCollisionCourse) {
  // Two vessels 10 km apart closing head-on at 5 m/s each.
  const auto a = Moving(1, 0, 36.5, 24.0, 5, 90);   // eastbound
  const auto b = Moving(2, 0, 36.5, 24.1118, 5, 270);  // ~10 km east, westbound
  const CpaResult cpa = ComputeCpa(a, b);
  EXPECT_NEAR(cpa.d_now_m, 10000, 150);
  EXPECT_NEAR(cpa.t_cpa_s, 1000, 30);  // closing at 10 m/s
  EXPECT_LT(cpa.d_cpa_m, 200);
}

TEST(CpaTest, ParallelCoursesKeepSeparation) {
  const auto a = Moving(1, 0, 36.5, 24.0, 8, 90);
  const auto b = Moving(2, 0, 36.52, 24.0, 8, 90);  // ~2.2 km north
  const CpaResult cpa = ComputeCpa(a, b);
  EXPECT_NEAR(cpa.d_cpa_m, cpa.d_now_m, 20);
}

TEST(CpaTest, DivergingClampsToNow) {
  const auto a = Moving(1, 0, 36.5, 24.0, 8, 270);
  const auto b = Moving(2, 0, 36.5, 24.05, 8, 90);
  const CpaResult cpa = ComputeCpa(a, b);
  EXPECT_DOUBLE_EQ(cpa.t_cpa_s, 0.0);
  EXPECT_NEAR(cpa.d_cpa_m, cpa.d_now_m, 1.0);
}

TEST(CpaTest, DifferentTimestampsAligned) {
  // b reported 60 s earlier; it moves 300 m east in the alignment.
  const auto a = Moving(1, 60000, 36.5, 24.0, 0, 0);
  const auto b = Moving(2, 0, 36.5, 24.01, 5, 90);
  const CpaResult cpa = ComputeCpa(a, b);
  const double expected_now =
      EquirectangularMeters({36.5, 24.0}, {36.5, 24.01}) + 300;
  EXPECT_NEAR(cpa.d_now_m, expected_now, 40);
}

TEST(CpaTest, CrossingTracksAnalytic) {
  // Perpendicular crossing: a northbound, b westbound aimed to cross
  // a's path ahead of it.
  const auto a = Moving(1, 0, 36.0, 24.0, 10, 0);
  const auto b = Moving(2, 0, 36.05, 24.07, 10, 270);
  const CpaResult cpa = ComputeCpa(a, b);
  EXPECT_GT(cpa.t_cpa_s, 0);
  EXPECT_LT(cpa.d_cpa_m, cpa.d_now_m);
}

// ------------------------------------------------------------- proximity

ProximityDetector::Config ProxConfig() {
  ProximityDetector::Config cfg;
  cfg.encounter_m = 2000;
  cfg.danger_cpa_m = 500;
  cfg.cpa_lookahead = 30 * kMinute;
  return cfg;
}

TEST(ProximityDetectorTest, EmitsEncounterWhenClose) {
  ProximityDetector det(ProxConfig());
  std::vector<Event> events;
  det.ProcessCounted(Moving(1, 0, 36.5, 24.0, 5, 90), &events);
  det.ProcessCounted(Moving(2, 1000, 36.505, 24.0, 5, 90), &events);
  EXPECT_EQ(CountKind(events, EventKind::kEncounter), 1);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events[0].entities.size(), 2u);
}

TEST(ProximityDetectorTest, NoEncounterWhenFar) {
  ProximityDetector det(ProxConfig());
  std::vector<Event> events;
  det.ProcessCounted(Moving(1, 0, 36.5, 24.0, 5, 90), &events);
  det.ProcessCounted(Moving(2, 1000, 37.5, 26.0, 5, 90), &events);
  EXPECT_TRUE(events.empty());
}

TEST(ProximityDetectorTest, CollisionForecastOnConvergingCourses) {
  ProximityDetector det(ProxConfig());
  std::vector<Event> events;
  det.ProcessCounted(Moving(1, 0, 36.5, 24.0, 6, 90), &events);
  // 8 km east, heading west: head-on, CPA ~0 within ~11 min.
  det.ProcessCounted(Moving(2, 1000, 36.5, 24.09, 6, 270), &events);
  EXPECT_EQ(CountKind(events, EventKind::kCollisionForecast), 1);
  for (const Event& e : events) {
    if (e.kind == EventKind::kCollisionForecast) {
      EXPECT_GT(e.LeadTime(), 5 * kMinute);
      EXPECT_LT(e.LeadTime(), 20 * kMinute);
      EXPECT_LT(e.attributes.at("cpa_m"), 500);
    }
  }
}

TEST(ProximityDetectorTest, RealarmSuppressed) {
  ProximityDetector det(ProxConfig());
  std::vector<Event> events;
  for (int i = 0; i < 10; ++i) {
    det.ProcessCounted(Moving(1, i * 10000, 36.5, 24.0, 0.1, 90), &events);
    det.ProcessCounted(Moving(2, i * 10000 + 1, 36.505, 24.0, 0.1, 90),
                       &events);
  }
  // 100 s of continuous proximity with 5-minute realarm: one alarm only.
  EXPECT_EQ(CountKind(events, EventKind::kEncounter), 1);
}

TEST(ProximityDetectorTest, StaleReportsIgnored) {
  ProximityDetector det(ProxConfig());
  std::vector<Event> events;
  det.ProcessCounted(Moving(1, 0, 36.5, 24.0, 5, 90), &events);
  // Partner arrives 10 minutes later at the same spot; the stored state
  // of entity 1 is stale by then.
  det.ProcessCounted(Moving(2, 10 * kMinute, 36.505, 24.0, 5, 90), &events);
  EXPECT_TRUE(events.empty());
}

TEST(ProximityDetectorTest, DifferentDomainsDoNotConflict) {
  ProximityDetector det(ProxConfig());
  std::vector<Event> events;
  auto vessel = Moving(1, 0, 36.5, 24.0, 5, 90);
  auto plane = Moving(2, 1000, 36.5, 24.001, 200, 90);
  plane.domain = Domain::kAviation;
  plane.position.alt_m = 10000;
  det.ProcessCounted(vessel, &events);
  det.ProcessCounted(plane, &events);
  EXPECT_TRUE(events.empty());
}

// ------------------------------------------------------------- areas

TEST(AreaEventDetectorTest, EntryAndExit) {
  NamedArea area{"anchorage",
                 Polygon::Rectangle(BoundingBox::Of(36, 24, 36.2, 24.2))};
  AreaEventDetector det({area});
  std::vector<Event> events;
  det.ProcessCounted(Moving(1, 0, 35.9, 24.1, 5, 0), &events);
  det.ProcessCounted(Moving(1, 1000, 36.1, 24.1, 5, 0), &events);
  det.ProcessCounted(Moving(1, 2000, 36.15, 24.1, 5, 0), &events);
  det.ProcessCounted(Moving(1, 3000, 36.3, 24.1, 5, 0), &events);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kAreaEntry);
  EXPECT_EQ(events[0].label, "anchorage");
  EXPECT_EQ(events[1].kind, EventKind::kAreaExit);
}

// ------------------------------------------------------------- loitering

TEST(LoiteringDetectorTest, DetectsCirclingVessel) {
  LoiteringDetector::Config cfg;
  cfg.window = 10 * kMinute;
  cfg.radius_m = 800;
  LoiteringDetector det(cfg);
  std::vector<Event> events;
  // Vessel circles a point with ~300 m radius while "under way".
  const LatLon center{36.5, 24.5};
  for (int i = 0; i < 60; ++i) {
    const LatLon pos =
        DestinationPoint(center, (i * 30) % 360, 300);
    det.ProcessCounted(Moving(1, i * 20 * kSecond, pos.lat_deg,
                              pos.lon_deg, 3.0, (i * 30) % 360),
                       &events);
  }
  EXPECT_GE(CountKind(events, EventKind::kLoitering), 1);
}

TEST(LoiteringDetectorTest, TransitingVesselNotLoitering) {
  LoiteringDetector::Config cfg;
  cfg.window = 10 * kMinute;
  cfg.radius_m = 800;
  LoiteringDetector det(cfg);
  std::vector<Event> events;
  GeoPoint pos{36.5, 24.5, 0};
  for (int i = 0; i < 60; ++i) {
    det.ProcessCounted(
        Moving(1, i * 20 * kSecond, pos.lat_deg, pos.lon_deg, 6.0, 90),
        &events);
    pos = DeadReckon(pos, 90, 6.0, 0, 20);
  }
  EXPECT_EQ(CountKind(events, EventKind::kLoitering), 0);
}

TEST(LoiteringDetectorTest, AnchoredVesselNotLoitering) {
  LoiteringDetector::Config cfg;
  cfg.window = 10 * kMinute;
  LoiteringDetector det(cfg);
  std::vector<Event> events;
  for (int i = 0; i < 60; ++i) {
    det.ProcessCounted(
        Moving(1, i * 20 * kSecond, 36.5, 24.5, 0.05, 0), &events);
  }
  EXPECT_EQ(CountKind(events, EventKind::kLoitering), 0);
}

// The loitering decision as a full scan of the window: every point's
// excursion is computed before the radius is checked. The detector stops
// at the first point beyond the radius and must emit exactly these events.
std::vector<Event> FullScanLoitering(const LoiteringDetector::Config& cfg,
                                     const std::vector<PositionReport>& in) {
  std::map<EntityId, std::deque<PositionReport>> windows;
  std::map<EntityId, TimestampMs> last_alarm;
  std::vector<Event> out;
  for (const PositionReport& report : in) {
    std::deque<PositionReport>& win = windows[report.entity_id];
    win.push_back(report);
    while (!win.empty() &&
           report.timestamp - win.front().timestamp > cfg.window) {
      win.pop_front();
    }
    if (win.size() < 3 ||
        report.timestamp - win.front().timestamp < cfg.window * 9 / 10) {
      continue;
    }
    if (report.speed_mps < cfg.min_speed_mps) continue;
    double max_excursion = 0.0;
    const double cos_lat = std::cos(report.position.lat_deg * kDegToRad);
    for (const PositionReport& p : win) {
      max_excursion = std::max(
          max_excursion, EquirectangularMetersWithCos(
                             cos_lat, p.position.ll(), report.position.ll()));
    }
    if (max_excursion > cfg.radius_m) continue;
    auto it = last_alarm.find(report.entity_id);
    if (it != last_alarm.end() &&
        report.timestamp - it->second < cfg.realarm_interval) {
      continue;
    }
    last_alarm[report.entity_id] = report.timestamp;
    Event e;
    e.kind = EventKind::kLoitering;
    e.time = report.timestamp;
    e.predicted_time = report.timestamp;
    e.entities = {report.entity_id};
    e.position = report.position;
    e.attributes["excursion_m"] = max_excursion;
    e.attributes["window_s"] = cfg.window / 1000.0;
    out.push_back(std::move(e));
  }
  return out;
}

TEST(LoiteringDetectorTest, EarlyExitMatchesFullScanOnMixedTracks) {
  LoiteringDetector::Config cfg;
  cfg.window = 10 * kMinute;
  cfg.radius_m = 800;
  cfg.realarm_interval = 15 * kMinute;
  Rng rng(2718);
  // Loiterers circle at radii on both sides of the alarm radius (some
  // drift away mid-stream), transits cross the area, and anchored vessels
  // sit still below the minimum speed; reports interleave in time order.
  struct Track {
    LatLon center;
    double orbit_m;
    double drift_mps;
    double speed_mps;
    int kind;  // 0 loiter, 1 transit, 2 anchored
  };
  std::vector<Track> tracks;
  for (int i = 0; i < 24; ++i) {
    Track t;
    t.center = {36.0 + rng.Uniform(0, 1), 24.0 + rng.Uniform(0, 1)};
    t.kind = i % 3;
    t.orbit_m = rng.Uniform(100, 600);
    t.drift_mps = (i % 4 == 0) ? rng.Uniform(0.05, 0.6) : 0.0;
    t.speed_mps = t.kind == 2 ? 0.1 : rng.Uniform(1.0, 8.0);
    tracks.push_back(t);
  }
  std::vector<PositionReport> in;
  for (int step = 0; step < 540; ++step) {
    const TimestampMs ts = step * 20 * kSecond;
    for (std::size_t v = 0; v < tracks.size(); ++v) {
      const Track& t = tracks[v];
      if (rng.Uniform(0, 1) < 0.1) continue;  // an irregular cadence
      const double secs = ts / 1000.0;
      LatLon pos = t.center;
      double course = 90;
      if (t.kind == 0) {
        course = std::fmod(secs * 0.5, 360.0);
        pos = DestinationPoint(DestinationPoint(t.center, 45, secs * t.drift_mps),
                               course, t.orbit_m);
      } else if (t.kind == 1) {
        pos = DestinationPoint(t.center, course, secs * t.speed_mps);
      }
      in.push_back(Moving(static_cast<EntityId>(v + 1), ts, pos.lat_deg,
                          pos.lon_deg, t.speed_mps, course));
    }
  }

  LoiteringDetector det(cfg);
  std::vector<Event> events;
  for (const PositionReport& r : in) det.ProcessCounted(r, &events);
  const std::vector<Event> expected = FullScanLoitering(cfg, in);
  EXPECT_GT(CountKind(expected, EventKind::kLoitering), 10);
  EXPECT_EQ(events, expected);
}

// ------------------------------------------------------------- capacity

TEST(CapacityMonitorTest, WarningAboveCapacity) {
  CapacityMonitor::Sector sector{
      "sector_a", Polygon::Rectangle(BoundingBox::Of(36, 24, 37, 25)), 2};
  CapacityMonitor::Config cfg;
  CapacityMonitor mon({sector}, cfg);
  std::vector<Event> events;
  mon.ProcessCounted(Moving(1, 0, 36.5, 24.5, 5, 0), &events);
  mon.ProcessCounted(Moving(2, 1000, 36.6, 24.5, 5, 0), &events);
  EXPECT_EQ(CountKind(events, EventKind::kCapacityWarning), 0);
  mon.ProcessCounted(Moving(3, 2000, 36.4, 24.6, 5, 0), &events);
  EXPECT_EQ(CountKind(events, EventKind::kCapacityWarning), 1);
  for (const Event& e : events) {
    if (e.kind == EventKind::kCapacityWarning) {
      EXPECT_EQ(e.attributes.at("occupancy"), 3);
      EXPECT_EQ(e.label, "sector_a");
    }
  }
}

TEST(CapacityMonitorTest, ForecastBeforeArrival) {
  CapacityMonitor::Sector sector{
      "sector_b", Polygon::Rectangle(BoundingBox::Of(36, 24, 37, 25)), 1};
  CapacityMonitor::Config cfg;
  cfg.forecast_horizon = 10 * kMinute;
  CapacityMonitor mon({sector}, cfg);
  std::vector<Event> events;
  // Two vessels outside the sector, both heading into it: predicted
  // occupancy 2 > capacity 1, actual occupancy 0.
  mon.ProcessCounted(Moving(1, 0, 36.5, 23.97, 10, 90), &events);
  mon.ProcessCounted(Moving(2, 1000, 36.4, 23.96, 10, 90), &events);
  EXPECT_EQ(CountKind(events, EventKind::kCapacityWarning), 0);
  EXPECT_EQ(CountKind(events, EventKind::kCapacityForecast), 1);
  for (const Event& e : events) {
    if (e.kind == EventKind::kCapacityForecast) {
      EXPECT_EQ(e.LeadTime(), 10 * kMinute);
    }
  }
}

// ------------------------------------------------------------- hotspots

TEST(HotspotAnalyzerTest, DenseCellDetected) {
  HotspotAnalyzer::Config cfg;
  cfg.cell_deg = 0.1;
  cfg.zscore_threshold = 2.0;
  HotspotAnalyzer analyzer(cfg);
  std::vector<PositionReport> reports;
  // Background: 40 entities spread out; hotspot: 25 entities in one cell.
  Rng rng(55);
  for (EntityId id = 0; id < 40; ++id) {
    reports.push_back(Moving(id, 0, rng.Uniform(35, 39),
                             rng.Uniform(23, 27), 5, 0));
  }
  for (EntityId id = 100; id < 125; ++id) {
    reports.push_back(Moving(id, 0, 36.55 + rng.Uniform(-0.02, 0.02),
                             24.55 + rng.Uniform(-0.02, 0.02), 5, 0));
  }
  const auto hotspots = analyzer.Detect(reports);
  ASSERT_FALSE(hotspots.empty());
  // The top hotspot is the packed cell.
  EXPECT_NEAR(hotspots[0].center.lat_deg, 36.55, 0.15);
  EXPECT_NEAR(hotspots[0].center.lon_deg, 24.55, 0.15);
}

TEST(HotspotAnalyzerTest, UniformTrafficHasNoHotspots) {
  HotspotAnalyzer::Config cfg;
  cfg.cell_deg = 0.5;
  HotspotAnalyzer analyzer(cfg);
  std::vector<PositionReport> reports;
  // One entity per cell: perfectly uniform.
  EntityId id = 0;
  for (double lat = 35.25; lat < 39; lat += 0.5) {
    for (double lon = 23.25; lon < 27; lon += 0.5) {
      reports.push_back(Moving(id++, 0, lat, lon, 5, 0));
    }
  }
  EXPECT_TRUE(analyzer.Detect(reports).empty());
}

TEST(HotspotAnalyzerTest, DistinctEntitiesNotReports) {
  HotspotAnalyzer::Config cfg;
  cfg.cell_deg = 0.2;
  cfg.distinct_entities = true;
  HotspotAnalyzer analyzer(cfg);
  std::vector<PositionReport> reports;
  // One anchored vessel reporting 500 times must NOT become a hotspot.
  for (int i = 0; i < 500; ++i) {
    reports.push_back(Moving(1, i * 1000, 36.5, 24.5, 0, 0));
  }
  Rng rng(77);
  for (EntityId id = 10; id < 40; ++id) {
    reports.push_back(Moving(id, 0, rng.Uniform(35, 39),
                             rng.Uniform(23, 27), 5, 0));
  }
  for (const auto& h : analyzer.Detect(reports)) {
    EXPECT_GT(
        EquirectangularMeters(h.center, {36.5, 24.5}), 1000)
        << "anchored spammer became a hotspot";
  }
}

TEST(HotspotDetectorTest, StreamingWindowsEmitHotspotEvents) {
  HotspotAnalyzer::Config cfg;
  cfg.cell_deg = 0.1;
  cfg.zscore_threshold = 2.0;
  HotspotDetector det(cfg, 10 * kMinute);
  std::vector<PositionReport> input;
  Rng rng(88);
  // Two windows of traffic with a persistent dense cluster.
  for (int w = 0; w < 2; ++w) {
    const TimestampMs base = w * 10 * kMinute;
    for (EntityId id = 0; id < 30; ++id) {
      input.push_back(Moving(id, base + id * 100, rng.Uniform(35, 39),
                             rng.Uniform(23, 27), 5, 0));
    }
    for (EntityId id = 100; id < 120; ++id) {
      input.push_back(Moving(id, base + id * 50,
                             36.5 + rng.Uniform(-0.02, 0.02),
                             24.5 + rng.Uniform(-0.02, 0.02), 5, 0));
    }
  }
  std::sort(input.begin(), input.end(), ReportTimeOrder());
  const auto events = pipeline::RunBatch(&det, input);
  EXPECT_GE(CountKind(events, EventKind::kHotspot), 1);
}

// ------------------------------------------------------------- pattern

Event SimpleEvent(EventKind kind, EntityId id, TimestampMs t) {
  Event e;
  e.kind = kind;
  e.time = t;
  e.predicted_time = t;
  e.entities = {id};
  return e;
}

TEST(PatternMatcherTest, SequenceMatches) {
  Pattern p;
  p.name = "entry_then_loiter";
  p.steps = {Pattern::OnKind(EventKind::kAreaEntry),
             Pattern::OnKind(EventKind::kLoitering)};
  p.within = kHour;
  PatternMatcher matcher(p);
  std::vector<Event> out;
  matcher.ProcessCounted(SimpleEvent(EventKind::kAreaEntry, 1, 0), &out);
  matcher.ProcessCounted(SimpleEvent(EventKind::kLoitering, 1, 10 * kMinute),
                         &out);
  ASSERT_EQ(CountKind(out, EventKind::kComposite), 1);
  EXPECT_EQ(out.back().label, "entry_then_loiter");
}

TEST(PatternMatcherTest, WindowExpires) {
  Pattern p;
  p.name = "quick_sequence";
  p.steps = {Pattern::OnKind(EventKind::kAreaEntry),
             Pattern::OnKind(EventKind::kLoitering)};
  p.within = 5 * kMinute;
  PatternMatcher matcher(p);
  std::vector<Event> out;
  matcher.ProcessCounted(SimpleEvent(EventKind::kAreaEntry, 1, 0), &out);
  matcher.ProcessCounted(
      SimpleEvent(EventKind::kLoitering, 1, 20 * kMinute), &out);
  EXPECT_EQ(CountKind(out, EventKind::kComposite), 0);
}

TEST(PatternMatcherTest, KeyedPerEntity) {
  Pattern p;
  p.name = "seq";
  p.steps = {Pattern::OnKind(EventKind::kAreaEntry),
             Pattern::OnKind(EventKind::kLoitering)};
  PatternMatcher matcher(p);
  std::vector<Event> out;
  matcher.ProcessCounted(SimpleEvent(EventKind::kAreaEntry, 1, 0), &out);
  // Different entity loiters: no match for entity 1.
  matcher.ProcessCounted(SimpleEvent(EventKind::kLoitering, 2, 1000), &out);
  EXPECT_EQ(CountKind(out, EventKind::kComposite), 0);
  matcher.ProcessCounted(SimpleEvent(EventKind::kLoitering, 1, 2000), &out);
  EXPECT_EQ(CountKind(out, EventKind::kComposite), 1);
}

TEST(PatternMatcherTest, NegationKillsRun) {
  // Entry, then NOT exit, then loitering: vessel that loiters while
  // still inside.
  Pattern p;
  p.name = "loiter_inside";
  p.steps = {Pattern::OnKind(EventKind::kAreaEntry),
             Pattern::NotKind(EventKind::kAreaExit),
             Pattern::OnKind(EventKind::kLoitering)};
  PatternMatcher matcher(p);
  std::vector<Event> out;
  matcher.ProcessCounted(SimpleEvent(EventKind::kAreaEntry, 1, 0), &out);
  matcher.ProcessCounted(SimpleEvent(EventKind::kAreaExit, 1, 1000), &out);
  matcher.ProcessCounted(SimpleEvent(EventKind::kLoitering, 1, 2000), &out);
  EXPECT_EQ(CountKind(out, EventKind::kComposite), 0);

  // Without the exit, the pattern fires.
  matcher.ProcessCounted(SimpleEvent(EventKind::kAreaEntry, 2, 0), &out);
  matcher.ProcessCounted(SimpleEvent(EventKind::kLoitering, 2, 2000), &out);
  EXPECT_EQ(CountKind(out, EventKind::kComposite), 1);
}

TEST(PatternMatcherTest, SingleStepPatternFiresImmediately) {
  Pattern p;
  p.name = "any_gap";
  p.steps = {Pattern::OnKind(EventKind::kGap)};
  PatternMatcher matcher(p);
  std::vector<Event> out;
  matcher.ProcessCounted(SimpleEvent(EventKind::kGap, 1, 0), &out);
  EXPECT_EQ(CountKind(out, EventKind::kComposite), 1);
}

// ------------------------------------------------------------- events

TEST(EventTest, NamesAndForecastKinds) {
  for (int i = 0; i <= static_cast<int>(EventKind::kComposite); ++i) {
    EXPECT_STRNE(EventKindName(static_cast<EventKind>(i)), "?");
  }
  EXPECT_TRUE(IsForecastKind(EventKind::kCollisionForecast));
  EXPECT_FALSE(IsForecastKind(EventKind::kEncounter));
}

TEST(EventTest, ToStringContainsKindAndLead) {
  Event e;
  e.kind = EventKind::kCollisionForecast;
  e.time = 1000;
  e.predicted_time = 61000;
  e.entities = {1, 2};
  const std::string s = e.ToString();
  EXPECT_NE(s.find("collision_forecast"), std::string::npos);
  EXPECT_NE(s.find("lead=60s"), std::string::npos);
}

// ----------------------------------------------------- integration

TEST(CepIntegrationTest, FleetStreamProducesEvents) {
  // Congested waters: 30 vessels packed into ~50x45 km so that
  // encounters are statistically certain within the window.
  AisGeneratorConfig fleet;
  fleet.num_vessels = 30;
  fleet.duration = 40 * kMinute;
  fleet.region = BoundingBox::Of(36.0, 24.0, 36.5, 24.5);
  const auto traces = GenerateAisFleet(fleet);
  ObservationConfig obs;
  obs.fixed_interval_ms = 10 * kSecond;
  const auto reports = ObserveFleet(traces, obs);
  auto cfg = ProxConfig();
  cfg.region = fleet.region;
  cfg.blocking_cell_deg = 0.05;
  ProximityDetector det(cfg);
  const auto events = pipeline::RunBatch(&det, reports);
  // 30 vessels in 4x4 degrees for 40 minutes: encounters are expected.
  EXPECT_GT(events.size(), 0u);
  for (const Event& e : events) {
    EXPECT_TRUE(e.kind == EventKind::kEncounter ||
                e.kind == EventKind::kCollisionForecast);
    EXPECT_EQ(e.entities.size(), 2u);
  }
}

}  // namespace
}  // namespace datacron
