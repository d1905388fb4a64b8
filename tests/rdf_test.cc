#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "common/strings.h"
#include "rdf/rdfizer.h"
#include "rdf/term.h"
#include "rdf/triple_store.h"
#include "rdf/vocab.h"
#include "sources/ais_generator.h"

namespace datacron {
namespace {

// ------------------------------------------------------------ dictionary

TEST(TermDictionaryTest, InternIsIdempotent) {
  TermDictionary dict;
  const TermId a = dict.Intern("ent:1");
  const TermId b = dict.Intern("ent:1");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, kInvalidTermId);
  EXPECT_EQ(dict.size(), 1u);
}

TEST(TermDictionaryTest, RoundTrip) {
  TermDictionary dict;
  const TermId id = dict.Intern("node:42/1000");
  auto text = dict.Text(id);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value(), "node:42/1000");
}

TEST(TermDictionaryTest, FindWithoutIntern) {
  TermDictionary dict;
  EXPECT_EQ(dict.Find("missing"), kInvalidTermId);
  dict.Intern("present");
  EXPECT_NE(dict.Find("present"), kInvalidTermId);
}

TEST(TermDictionaryTest, UnknownIdIsError) {
  TermDictionary dict;
  EXPECT_FALSE(dict.Text(999).ok());
  EXPECT_FALSE(dict.Text(kInvalidTermId).ok());
}

TEST(TermDictionaryTest, TypedLiterals) {
  TermDictionary dict;
  const TermId i = dict.InternInt(-5);
  const TermId d = dict.InternDouble(3.5);
  const TermId t = dict.InternDateTime(1490054400000);
  EXPECT_EQ(dict.Kind(i), TermKind::kLiteralInt);
  EXPECT_EQ(dict.Kind(d), TermKind::kLiteralDouble);
  EXPECT_EQ(dict.Kind(t), TermKind::kLiteralDateTime);
  EXPECT_EQ(dict.Text(i).value(), "-5");
}

TEST(TermDictionaryTest, IdsAreDense) {
  TermDictionary dict;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(dict.Intern(StrFormat("x:%d", i)),
              static_cast<TermId>(i + 1));
  }
}

// ------------------------------------------------------------ store

std::vector<Triple> RandomTriples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triple> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({static_cast<TermId>(rng.UniformInt(1, 50)),
                   static_cast<TermId>(rng.UniformInt(51, 60)),
                   static_cast<TermId>(rng.UniformInt(1, 100))});
  }
  return out;
}

TEST(TripleStoreTest, SealDeduplicates) {
  TripleStore store;
  store.Add({1, 2, 3});
  store.Add({1, 2, 3});
  store.Add({1, 2, 4});
  store.Seal();
  EXPECT_EQ(store.size(), 2u);
}

TEST(TripleStoreTest, MatchFullyBound) {
  TripleStore store;
  store.Add({1, 2, 3});
  store.Add({1, 2, 4});
  store.Seal();
  EXPECT_EQ(store.Match({1, 2, 3}).size(), 1u);
  EXPECT_EQ(store.Match({1, 2, 9}).size(), 0u);
}

class TripleStorePatternTest : public ::testing::TestWithParam<int> {};

TEST_P(TripleStorePatternTest, AllPatternShapesMatchBruteForce) {
  const auto triples = RandomTriples(2000, 1234 + GetParam());
  TripleStore store;
  store.AddBatch(triples);
  store.Seal();

  // Deduplicate reference set.
  std::set<std::tuple<TermId, TermId, TermId>> ref;
  for (const Triple& t : triples) ref.insert({t.s, t.p, t.o});

  Rng rng(99 + GetParam());
  for (int q = 0; q < 30; ++q) {
    TriplePattern pat;
    // Random shape: each position bound with p=0.5.
    if (rng.Bernoulli(0.5)) pat.s = static_cast<TermId>(rng.UniformInt(1, 50));
    if (rng.Bernoulli(0.5)) pat.p = static_cast<TermId>(rng.UniformInt(51, 60));
    if (rng.Bernoulli(0.5)) pat.o = static_cast<TermId>(rng.UniformInt(1, 100));

    std::set<std::tuple<TermId, TermId, TermId>> expected;
    for (const auto& [s, p, o] : ref) {
      if ((pat.s == 0 || s == pat.s) && (pat.p == 0 || p == pat.p) &&
          (pat.o == 0 || o == pat.o)) {
        expected.insert({s, p, o});
      }
    }
    std::set<std::tuple<TermId, TermId, TermId>> got;
    for (const Triple& t : store.Match(pat)) got.insert({t.s, t.p, t.o});
    EXPECT_EQ(got, expected) << "pattern (" << pat.s << "," << pat.p << ","
                             << pat.o << ")";
    EXPECT_EQ(store.Count(pat), expected.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TripleStorePatternTest,
                         ::testing::Range(0, 5));

TEST(TripleStoreTest, CountReadsDeduplicatedIndex) {
  // Every triple is added three times; Count and Range of every pattern
  // shape must see each distinct triple once.
  const auto triples = RandomTriples(500, 4321);
  TripleStore store;
  for (int copy = 0; copy < 3; ++copy) store.AddBatch(triples);
  store.Seal();
  std::set<std::tuple<TermId, TermId, TermId>> ref;
  for (const Triple& t : triples) ref.insert({t.s, t.p, t.o});
  ASSERT_EQ(store.size(), ref.size());
  ASSERT_LT(ref.size(), 3 * triples.size());

  for (const Triple& probe : triples) {
    for (int shape = 0; shape < 8; ++shape) {
      const TriplePattern pat{(shape & 1) ? probe.s : 0,
                              (shape & 2) ? probe.p : 0,
                              (shape & 4) ? probe.o : 0};
      std::size_t expected = 0;
      for (const auto& [s, p, o] : ref) {
        expected += (pat.s == 0 || s == pat.s) && (pat.p == 0 || p == pat.p) &&
                    (pat.o == 0 || o == pat.o);
      }
      EXPECT_EQ(store.Count(pat), expected)
          << "pattern (" << pat.s << "," << pat.p << "," << pat.o << ")";
      EXPECT_EQ(store.Range(pat).size(), expected);
    }
  }
}

TEST(TripleStoreTest, ScanEarlyStop) {
  TripleStore store;
  for (TermId i = 1; i <= 100; ++i) store.Add({i, 1, 1});
  store.Seal();
  int visited = 0;
  store.Scan({0, 1, 0}, [&](const Triple&) { return ++visited < 5; });
  EXPECT_EQ(visited, 5);
}

TEST(TripleStoreTest, PredicatesEnumerated) {
  TripleStore store;
  store.Add({1, 10, 2});
  store.Add({1, 20, 2});
  store.Add({3, 10, 4});
  store.Seal();
  const auto preds = store.Predicates();
  EXPECT_EQ(preds, (std::vector<TermId>{10, 20}));
}

TEST(TripleStoreTest, EmptyStore) {
  TripleStore store;
  store.Seal();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.Match({0, 0, 0}).empty());
}

// ------------------------------------------------------------ rdfizer

class RdfizerTest : public ::testing::Test {
 protected:
  RdfizerTest()
      : vocab_(&dict_), rdfizer_(Rdfizer::Config{}, &dict_, &vocab_) {}

  PositionReport Report(EntityId id, TimestampMs t) {
    PositionReport r;
    r.entity_id = id;
    r.timestamp = t;
    r.position = {36.5, 24.5, 0};
    r.speed_mps = 7.0;
    r.course_deg = 120.0;
    return r;
  }

  TermDictionary dict_;
  Vocab vocab_;
  Rdfizer rdfizer_;
};

TEST_F(RdfizerTest, ReportProducesNodeTriples) {
  const auto triples =
      rdfizer_.TransformReport(Report(200000001, 1490054400000));
  EXPECT_GE(triples.size(), 10u);
  // The node must be typed as PositionNode.
  const TermId node = rdfizer_.NodeIdOf(Report(200000001, 1490054400000));
  ASSERT_NE(node, kInvalidTermId);
  bool typed = false;
  for (const Triple& t : triples) {
    if (t.s == node && t.p == vocab_.p_type &&
        t.o == vocab_.c_position_node) {
      typed = true;
    }
  }
  EXPECT_TRUE(typed);
}

TEST_F(RdfizerTest, EntityTriplesEmittedOnce) {
  const auto first = rdfizer_.TransformReport(Report(1, 1000));
  const auto second = rdfizer_.TransformReport(Report(1, 2000));
  // Entity typing appears in the first batch only.
  const TermId ent = dict_.Find(EntityIri(1));
  auto count_type = [&](const std::vector<Triple>& ts) {
    int n = 0;
    for (const Triple& t : ts) {
      if (t.s == ent && t.p == vocab_.p_type) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_type(first), 1);
  EXPECT_EQ(count_type(second), 0);
}

TEST_F(RdfizerTest, SequenceLinksChainNodes) {
  rdfizer_.TransformReport(Report(1, 1000));
  const auto second = rdfizer_.TransformReport(Report(1, 2000));
  const TermId n1 = dict_.Find(PositionNodeIri(1, 1000));
  const TermId n2 = dict_.Find(PositionNodeIri(1, 2000));
  bool linked = false;
  for (const Triple& t : second) {
    if (t.s == n1 && t.p == vocab_.p_next_node && t.o == n2) linked = true;
  }
  EXPECT_TRUE(linked);
}

TEST_F(RdfizerTest, TagsRecordCellAndBucket) {
  const auto report = Report(1, 1490054400000 + 90 * kMinute);
  rdfizer_.TransformReport(report);
  const TermId node = rdfizer_.NodeIdOf(report);
  auto it = rdfizer_.tags().find(node);
  ASSERT_NE(it, rdfizer_.tags().end());
  EXPECT_EQ(it->second.bucket,
            rdfizer_.BucketOf(report.timestamp));
  EXPECT_EQ(it->second.cell,
            rdfizer_.grid().CellOf(report.position.ll()));
}

TEST_F(RdfizerTest, NodeGeoSideTable) {
  const auto report = Report(7, 1490054400000);
  rdfizer_.TransformReport(report);
  const TermId node = rdfizer_.NodeIdOf(report);
  auto it = rdfizer_.node_geo().find(node);
  ASSERT_NE(it, rdfizer_.node_geo().end());
  EXPECT_DOUBLE_EQ(it->second.lat_deg, 36.5);
  EXPECT_EQ(it->second.timestamp, report.timestamp);
}

TEST_F(RdfizerTest, CriticalPointAddsKind) {
  CriticalPoint cp;
  cp.report = Report(1, 1000);
  cp.type = CriticalPointType::kTurningPoint;
  const auto triples = rdfizer_.TransformCriticalPoint(cp);
  const TermId kind = dict_.Find("turning_point");
  ASSERT_NE(kind, kInvalidTermId);
  bool found = false;
  for (const Triple& t : triples) {
    if (t.p == vocab_.p_node_kind && t.o == kind) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(RdfizerTest, AviationGetsAltitudeTriples) {
  PositionReport r = Report(0x400001, 1000);
  r.domain = Domain::kAviation;
  r.position.alt_m = 10000;
  r.vertical_rate_mps = 5;
  const auto triples = rdfizer_.TransformReport(r);
  bool has_alt = false;
  for (const Triple& t : triples) {
    if (t.p == vocab_.p_alt) has_alt = true;
  }
  EXPECT_TRUE(has_alt);
}

TEST_F(RdfizerTest, WeatherTriples) {
  WeatherSample s;
  s.cell = {3, 4};
  s.bucket_start = rdfizer_.config().epoch + 2 * kHour;
  s.wind_u_mps = 5;
  s.wind_v_mps = -2;
  s.wave_height_m = 1.5;
  const auto triples = rdfizer_.TransformWeather(s);
  EXPECT_EQ(triples.size(), 6u);
  const TermId wx = dict_.Find(WeatherIri(3, 4, 2));
  ASSERT_NE(wx, kInvalidTermId);
  EXPECT_TRUE(rdfizer_.tags().count(wx));
}

TEST_F(RdfizerTest, EndToEndFleetTransform) {
  AisGeneratorConfig cfg;
  cfg.num_vessels = 5;
  cfg.duration = 20 * kMinute;
  const auto traces = GenerateAisFleet(cfg);
  ObservationConfig obs;
  const auto reports = ObserveFleet(traces, obs);
  TripleStore store;
  for (const auto& r : reports) {
    store.AddBatch(rdfizer_.TransformReport(r));
  }
  store.Seal();
  // Every vessel typed; every report became a node.
  const auto vessels =
      store.Match({0, vocab_.p_type, vocab_.c_vessel});
  EXPECT_EQ(vessels.size(), 5u);
  const auto nodes =
      store.Match({0, vocab_.p_type, vocab_.c_position_node});
  EXPECT_EQ(nodes.size(), reports.size());
}

}  // namespace
}  // namespace datacron
