#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "link/link_discovery.h"
#include "link/rdf_links.h"
#include "sources/ais_generator.h"

namespace datacron {
namespace {

PositionReport At(EntityId id, TimestampMs t, double lat, double lon) {
  PositionReport r;
  r.entity_id = id;
  r.timestamp = t;
  r.position = {lat, lon, 0};
  r.speed_mps = 5;
  return r;
}

LinkDiscovery::Config DefaultConfig() {
  LinkDiscovery::Config cfg;
  cfg.proximity_threshold_m = 2000;
  cfg.time_tolerance = 30 * kSecond;
  return cfg;
}

TEST(LinkDiscoveryTest, FindsCloseSimultaneousPair) {
  LinkDiscovery link(DefaultConfig());
  const auto links = link.DiscoverProximity({
      At(1, 1000, 36.0, 24.0),
      At(2, 2000, 36.005, 24.0),  // ~550 m away
      At(3, 1500, 37.5, 26.0),    // far
  });
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].a, 1u);
  EXPECT_EQ(links[0].b, 2u);
  EXPECT_NEAR(links[0].distance_m, 556, 30);
}

TEST(LinkDiscoveryTest, RespectsTimeTolerance) {
  LinkDiscovery link(DefaultConfig());
  const auto links = link.DiscoverProximity({
      At(1, 0, 36.0, 24.0),
      At(2, 5 * kMinute, 36.001, 24.0),  // close in space, far in time
  });
  EXPECT_TRUE(links.empty());
}

TEST(LinkDiscoveryTest, SameEntityNeverLinksToItself) {
  LinkDiscovery link(DefaultConfig());
  const auto links = link.DiscoverProximity({
      At(1, 1000, 36.0, 24.0),
      At(1, 2000, 36.0001, 24.0),
  });
  EXPECT_TRUE(links.empty());
}

TEST(LinkDiscoveryTest, CrossFramePairsFound) {
  // Two reports 25 s apart straddling a 30 s frame boundary.
  LinkDiscovery link(DefaultConfig());
  const auto links = link.DiscoverProximity({
      At(1, 29 * kSecond, 36.0, 24.0),
      At(2, 54 * kSecond, 36.002, 24.0),
  });
  EXPECT_EQ(links.size(), 1u);
}

class BlockedVsBruteTest : public ::testing::TestWithParam<int> {};

TEST_P(BlockedVsBruteTest, BlockingDoesNotChangeResults) {
  AisGeneratorConfig fleet;
  fleet.num_vessels = 20;
  fleet.duration = 20 * kMinute;
  fleet.seed = 100 + GetParam();
  const auto traces = GenerateAisFleet(fleet);
  ObservationConfig obs;
  obs.fixed_interval_ms = 15 * kSecond;
  obs.seed = 200 + GetParam();
  const auto reports = ObserveFleet(traces, obs);

  LinkDiscovery link(DefaultConfig());
  auto blocked = link.DiscoverProximity(reports);
  auto brute = link.DiscoverProximityBruteForce(reports);

  auto key = [](const EntityLink& l) {
    return std::make_tuple(l.a, l.b, l.t);
  };
  std::set<std::tuple<EntityId, EntityId, TimestampMs>> bset, rset;
  for (const auto& l : blocked) bset.insert(key(l));
  for (const auto& l : brute) rset.insert(key(l));
  EXPECT_EQ(bset, rset);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockedVsBruteTest, ::testing::Range(0, 3));

TEST(LinkDiscoveryTest, AreaLinksOnEntryOnly) {
  LinkDiscovery link(DefaultConfig());
  NamedArea port{"port_x",
                 Polygon::Rectangle(BoundingBox::Of(36, 24, 36.1, 24.1))};
  const auto links = link.DiscoverAreaLinks(
      {
          At(1, 0, 35.9, 24.05),     // outside
          At(1, 1000, 36.05, 24.05), // inside -> entry
          At(1, 2000, 36.06, 24.05), // still inside, no new link
          At(1, 3000, 36.2, 24.05),  // left
          At(1, 4000, 36.05, 24.05), // re-entered -> second entry
      },
      {port});
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0].t, 1000);
  EXPECT_EQ(links[1].t, 4000);
  EXPECT_EQ(links[0].area, "port_x");
}

TEST(LinkDiscoveryTest, WeatherLinksUseCellAndBucket) {
  LinkDiscovery link(DefaultConfig());
  WeatherSource::Config wcfg;
  WeatherSource weather(wcfg);
  const auto links = link.DiscoverWeatherLinks(
      {At(1, wcfg.start_time + 90 * kMinute, 36.5, 24.5)}, weather);
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].bucket_start, wcfg.start_time + kHour);
  EXPECT_EQ(links[0].cell, weather.grid().CellOf({36.5, 24.5}));
}

TEST(TrueEncountersTest, DetectsConstructedEncounter) {
  // Two straight traces crossing at a point.
  TruthTrace a, b;
  a.entity_id = 1;
  b.entity_id = 2;
  a.tick_ms = b.tick_ms = 1000;
  a.start_time = b.start_time = 0;
  for (int i = 0; i <= 600; ++i) {
    PositionReport ra, rb;
    ra.entity_id = 1;
    rb.entity_id = 2;
    ra.timestamp = rb.timestamp = i * 1000;
    // a heads east along lat 36; b heads north along lon 24.05; they meet
    // near (36, 24.05) mid-simulation.
    ra.position = {36.0, 24.0 + 0.0001 * i, 0};
    rb.position = {35.97 + 0.0001 * i, 24.03, 0};
    a.samples.push_back(ra);
    b.samples.push_back(rb);
  }
  const auto truth = TrueEncounters({a, b}, 2000, 30 * kSecond);
  EXPECT_FALSE(truth.empty());
}

TEST(EvaluateLinksTest, PerfectDiscoveryScoresOne) {
  std::vector<EntityLink> links = {{1, 2, 1000, 500}, {3, 4, 70000, 800}};
  const LinkQuality q = EvaluateLinks(links, links, 30 * kSecond);
  EXPECT_DOUBLE_EQ(q.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(q.Recall(), 1.0);
  EXPECT_DOUBLE_EQ(q.F1(), 1.0);
}

TEST(EvaluateLinksTest, MissesAndFalseAlarmsCounted) {
  std::vector<EntityLink> truth = {{1, 2, 1000, 500}, {3, 4, 500000, 800}};
  std::vector<EntityLink> discovered = {{1, 2, 1000, 500},
                                        {5, 6, 900000, 100}};
  const LinkQuality q = EvaluateLinks(discovered, truth, 30 * kSecond);
  EXPECT_EQ(q.true_positive, 1u);
  EXPECT_EQ(q.false_positive, 1u);
  EXPECT_EQ(q.false_negative, 1u);
  EXPECT_DOUBLE_EQ(q.Precision(), 0.5);
  EXPECT_DOUBLE_EQ(q.Recall(), 0.5);
}

TEST(LinkQualityOnFleetTest, DiscoveryApproximatesTruth) {
  // End-to-end: discovered links from observed reports vs. dense truth.
  AisGeneratorConfig fleet;
  fleet.num_vessels = 25;
  fleet.duration = 30 * kMinute;
  const auto traces = GenerateAisFleet(fleet);
  ObservationConfig obs;
  obs.fixed_interval_ms = 10 * kSecond;
  obs.position_noise_m = 10;
  obs.drop_probability = 0;
  obs.gap_probability = 0;
  const auto reports = ObserveFleet(traces, obs);
  LinkDiscovery link(DefaultConfig());
  const auto discovered = link.DiscoverProximity(reports);
  const auto truth =
      TrueEncounters(traces, 2000, DefaultConfig().time_tolerance);
  const LinkQuality q =
      EvaluateLinks(discovered, truth, DefaultConfig().time_tolerance);
  if (!truth.empty()) {
    EXPECT_GT(q.Recall(), 0.6);
    EXPECT_GT(q.Precision(), 0.6);
  }
}

TEST(RdfLinksTest, MaterializeProximityEmitsSymmetricTriples) {
  TermDictionary dict;
  Vocab vocab(&dict);
  Rdfizer rdfizer(Rdfizer::Config{}, &dict, &vocab);
  const auto r1 = At(1, 1000, 36.0, 24.0);
  const auto r2 = At(2, 1000, 36.005, 24.0);
  rdfizer.TransformReport(r1);
  rdfizer.TransformReport(r2);
  std::vector<Triple> out;
  const auto stats = MaterializeProximityLinks({{1, 2, 1000, 550}},
                                               &rdfizer, vocab, &out);
  EXPECT_EQ(stats.emitted, 1u);
  EXPECT_EQ(out.size(), 2u);  // both directions
  for (const Triple& t : out) EXPECT_EQ(t.p, vocab.p_near_entity);
}

TEST(RdfLinksTest, UnknownNodeSkipped) {
  TermDictionary dict;
  Vocab vocab(&dict);
  Rdfizer rdfizer(Rdfizer::Config{}, &dict, &vocab);
  std::vector<Triple> out;
  const auto stats = MaterializeAreaLinks({{9, "port", 123}},
                                          &rdfizer, vocab, &out);
  EXPECT_EQ(stats.emitted, 0u);
  EXPECT_EQ(stats.skipped_unknown_node, 1u);
  EXPECT_TRUE(out.empty());
}

TEST(RdfLinksTest, WeatherLinkResolvesNode) {
  TermDictionary dict;
  Vocab vocab(&dict);
  Rdfizer::Config cfg;
  Rdfizer rdfizer(cfg, &dict, &vocab);
  const auto r = At(5, cfg.epoch + kHour, 36.5, 24.5);
  rdfizer.TransformReport(r);
  std::vector<Triple> out;
  WeatherLink wl{5, r.timestamp, rdfizer.grid().CellOf({36.5, 24.5}),
                 cfg.epoch + kHour};
  const auto stats = MaterializeWeatherLinks({wl}, &rdfizer, vocab, &out);
  EXPECT_EQ(stats.emitted, 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].p, vocab.p_weather_at);
}

TEST(RdfLinksTest, LinksResolveTheNodeOfTheirTimestamp) {
  // Nodes are named by per-entity ordinal; links still find them by
  // (entity, timestamp), including a timestamp two reports shared.
  TermDictionary dict;
  Vocab vocab(&dict);
  Rdfizer::Config cfg;
  Rdfizer rdfizer(cfg, &dict, &vocab);
  for (const TimestampMs t : {1000, 2000, 2000, 3000}) {
    rdfizer.TransformReport(At(1, t, 36.5, 24.5));
  }
  rdfizer.TransformReport(At(2, 3000, 36.505, 24.5));
  std::vector<Triple> out;
  EXPECT_EQ(MaterializeAreaLinks({{1, "port", 2000}, {1, "port", 2500}},
                                 &rdfizer, vocab, &out)
                .skipped_unknown_node,
            1u);
  EXPECT_EQ(MaterializeProximityLinks({{1, 2, 3000, 550}}, &rdfizer, vocab,
                                      &out)
                .emitted,
            1u);
  WeatherLink wl{1, 1000, rdfizer.grid().CellOf({36.5, 24.5}), cfg.epoch};
  EXPECT_EQ(MaterializeWeatherLinks({wl}, &rdfizer, vocab, &out).emitted, 1u);
  std::set<std::pair<TermId, TermId>> subjects;
  for (const Triple& t : out) {
    if (t.p != vocab.p_type) subjects.emplace(t.p, t.s);
  }
  EXPECT_EQ(subjects, (std::set<std::pair<TermId, TermId>>{
                          {vocab.p_within_area, InlineNode(1, 1)},
                          {vocab.p_near_entity, InlineNode(1, 2)},
                          {vocab.p_near_entity, InlineNode(2, 0)},
                          {vocab.p_weather_at, InlineNode(1, 0)}}));
}

}  // namespace
}  // namespace datacron
