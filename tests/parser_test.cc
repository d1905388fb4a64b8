#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "partition/partitioned_store.h"
#include "partition/partitioner.h"
#include "query/engine.h"
#include "query/parser.h"
#include "rdf/rdfizer.h"
#include "sources/ais_generator.h"
#include "fuzz_mutations.h"

namespace datacron {
namespace {

TEST(ParserTest, MinimalSelectWhere) {
  TermDictionary dict;
  dict.Intern("rdf:type");
  dict.Intern("dc:Vessel");
  auto parsed = ParseQuery(
      "SELECT ?v WHERE { ?v <rdf:type> <dc:Vessel> . }", &dict);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ParsedQuery& q = parsed.value();
  EXPECT_EQ(q.query.num_vars, 1);
  EXPECT_EQ(q.query.bgp.size(), 1u);
  EXPECT_EQ(q.select, (std::vector<std::string>{"v"}));
  EXPECT_TRUE(q.query.bgp[0].s.IsVar());
  EXPECT_FALSE(q.query.bgp[0].p.IsVar());
  EXPECT_EQ(dict.Text(q.query.bgp[0].p.term).value(), "rdf:type");
}

TEST(ParserTest, MultiplePatternsSharedVars) {
  TermDictionary dict;
  auto parsed = ParseQuery(
      "SELECT ?node ?speed WHERE {"
      "  ?node <rdf:type> <dc:PositionNode> ."
      "  ?node <dc:hasSpeed> ?speed ."
      "}",
      &dict);
  ASSERT_TRUE(parsed.ok());
  const ParsedQuery& q = parsed.value();
  EXPECT_EQ(q.query.num_vars, 2);
  EXPECT_EQ(q.query.bgp.size(), 2u);
  EXPECT_EQ(q.query.bgp[0].s.var, q.query.bgp[1].s.var);
  EXPECT_EQ(q.select_vars.size(), 2u);
}

TEST(ParserTest, LastPatternDotOptional) {
  TermDictionary dict;
  auto parsed =
      ParseQuery("SELECT ?v WHERE { ?v <rdf:type> <dc:Vessel> }", &dict);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().query.bgp.size(), 1u);
}

TEST(ParserTest, WithinClause) {
  TermDictionary dict;
  auto parsed = ParseQuery(
      "SELECT ?n WHERE { ?n <rdf:type> <dc:PositionNode> . }"
      " WITHIN 36.0 24.0 37.0 25.0 ON ?n",
      &dict);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Query& q = parsed.value().query;
  ASSERT_EQ(q.spatial.size(), 1u);
  EXPECT_EQ(q.spatial[0].var, 0);
  EXPECT_DOUBLE_EQ(q.spatial[0].box.min_lat, 36.0);
  EXPECT_DOUBLE_EQ(q.spatial[0].box.max_lon, 25.0);
}

TEST(ParserTest, DuringClauseIsoAndEpoch) {
  TermDictionary dict;
  auto parsed = ParseQuery(
      "SELECT ?n WHERE { ?n <rdf:type> <dc:PositionNode> . }"
      " DURING 2017-03-20T00:00:00Z 2017-03-21T00:00:00Z ON ?n",
      &dict);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().query.temporal.size(), 1u);
  EXPECT_EQ(parsed.value().query.temporal[0].t_min, 1489968000000);

  auto parsed2 = ParseQuery(
      "SELECT ?n WHERE { ?n <rdf:type> <dc:PositionNode> . }"
      " DURING 1000 2000 ON ?n",
      &dict);
  ASSERT_TRUE(parsed2.ok());
  EXPECT_EQ(parsed2.value().query.temporal[0].t_min, 1000);
  EXPECT_EQ(parsed2.value().query.temporal[0].t_max, 2000);
}

TEST(ParserTest, SelectStar) {
  TermDictionary dict;
  auto parsed = ParseQuery(
      "SELECT * WHERE { ?a <dc:hasNextNode> ?b . }", &dict);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().select,
            (std::vector<std::string>{"a", "b"}));
}

TEST(ParserTest, TypedLiteralObject) {
  TermDictionary dict;
  dict.Intern("dc:hasNodeKind");
  dict.Intern("stop_start", TermKind::kLiteralString);
  auto parsed = ParseQuery(
      "SELECT ?n WHERE { ?n <dc:hasNodeKind> \"stop_start\"^^string . }",
      &dict);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TermId lit = parsed.value().query.bgp[0].o.term;
  EXPECT_EQ(dict.Text(lit).value(), "stop_start");
  EXPECT_EQ(dict.Kind(lit), TermKind::kLiteralString);
}

TEST(ParserTest, NodeIriConstantIsItsInlineId) {
  TermDictionary dict;
  dict.Intern("dc:hasNextNode");
  const TermId padded_id = dict.Intern("node:07#2");
  auto parsed = ParseQuery(
      "SELECT ?b WHERE { <node:7#2> <dc:hasNextNode> ?b . }", &dict);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TermId node = parsed.value().query.bgp[0].s.term;
  EXPECT_EQ(node, InlineNode(7, 2));
  EXPECT_EQ(dict.Text(node).value(), "node:7#2");
  // Non-canonical spellings stay their own dictionary terms.
  auto padded = ParseQuery(
      "SELECT ?b WHERE { <node:07#2> <dc:hasNextNode> ?b . }", &dict);
  ASSERT_TRUE(padded.ok()) << padded.status().ToString();
  EXPECT_NE(padded.value().query.bgp[0].s.term, node);
  EXPECT_EQ(padded.value().query.bgp[0].s.term, padded_id);
  EXPECT_EQ(dict.Text(padded_id).value(), "node:07#2");
}

TEST(ParserTest, Errors) {
  TermDictionary dict;
  EXPECT_FALSE(ParseQuery("", &dict).ok());
  EXPECT_FALSE(ParseQuery("WHERE { ?a <b> <c> . }", &dict).ok());
  EXPECT_FALSE(ParseQuery("SELECT ?a { ?a <b> <c> . }", &dict).ok());
  EXPECT_FALSE(
      ParseQuery("SELECT ?a WHERE { ?a <b> . }", &dict).ok());
  EXPECT_FALSE(
      ParseQuery("SELECT ?a WHERE { ?a <b> <c> .", &dict).ok());
  EXPECT_FALSE(ParseQuery(
      "SELECT ?zzz WHERE { ?a <b> <c> . }", &dict).ok());  // unused var
  EXPECT_FALSE(ParseQuery(
      "SELECT ?a WHERE { ?a <b> <c> . } WITHIN 1 2 3 ON ?a", &dict).ok());
}

TEST(ParserTest, RejectsMalformedRanges) {
  TermDictionary dict;
  const std::string bgp =
      "SELECT ?n WHERE { ?n <rdf:type> <dc:PositionNode> . }";
  auto rejected = [&](const std::string& tail) {
    const auto parsed = ParseQuery(bgp + tail, &dict);
    return !parsed.ok() &&
           parsed.status().code() == StatusCode::kParseError;
  };
  // WITHIN min > max, per axis.
  EXPECT_TRUE(rejected(" WITHIN 37.0 24.0 36.0 25.0 ON ?n"));
  EXPECT_TRUE(rejected(" WITHIN 36.0 25.0 37.0 24.0 ON ?n"));
  // Non-finite WITHIN numbers.
  EXPECT_TRUE(rejected(" WITHIN nan 24.0 37.0 25.0 ON ?n"));
  EXPECT_TRUE(rejected(" WITHIN 36.0 -inf 37.0 25.0 ON ?n"));
  EXPECT_TRUE(rejected(" WITHIN 36.0 24.0 inf 25.0 ON ?n"));
  EXPECT_TRUE(rejected(" WITHIN 36.0 24.0 37.0 NAN ON ?n"));
  // DURING start > end, in both instant notations.
  EXPECT_TRUE(rejected(" DURING 2000 1000 ON ?n"));
  EXPECT_TRUE(rejected(
      " DURING 2017-03-21T00:00:00Z 2017-03-20T00:00:00Z ON ?n"));
  // Degenerate but ordered ranges stay valid.
  EXPECT_TRUE(ParseQuery(bgp + " WITHIN 36.0 24.0 36.0 24.0 ON ?n", &dict)
                  .ok());
  EXPECT_TRUE(ParseQuery(bgp + " DURING 1000 1000 ON ?n", &dict).ok());
}

TEST(ParserTest, MutatedQueriesYieldStatusNeverCrash) {
  const std::string text =
      "SELECT ?n ?speed WHERE {"
      " ?n <rdf:type> <dc:PositionNode> ."
      " ?n <dc:hasSpeed> ?speed ."
      " ?n <dc:hasNodeKind> \"stop_start\"^^string . }"
      " WITHIN 36.0 24.0 37.0 25.0 ON ?n"
      " DURING 2017-03-20T00:00:00Z 1490054400000 ON ?n";
  TermDictionary dict;
  ASSERT_TRUE(ParseQuery(text, &dict).ok());
  const auto check = [&](const std::string& mutant) {
    TermDictionary mutant_dict;
    (void)ParseQuery(mutant, &mutant_dict);
  };
  ForEachPrefix(text, check);
  ForEachByteCorruption(text, check);
}

TEST(ParserTest, ParsedQueryExecutesEndToEnd) {
  // Full integration: parse text, run it against a fleet store.
  TermDictionary dict;
  Vocab vocab(&dict);
  Rdfizer rdfizer(Rdfizer::Config{}, &dict, &vocab);
  AisGeneratorConfig fleet;
  fleet.num_vessels = 6;
  fleet.duration = 20 * kMinute;
  ObservationConfig obs;
  std::vector<Triple> triples;
  for (const auto& r : ObserveFleet(GenerateAisFleet(fleet), obs)) {
    const auto ts = rdfizer.TransformReport(r);
    triples.insert(triples.end(), ts.begin(), ts.end());
  }
  HashPartitioner scheme(2, &rdfizer.tags());
  PartitionedRdfStore store;
  store.Load(triples, scheme, rdfizer.grid());
  QueryEngine engine(&store, &rdfizer);

  auto parsed = ParseQuery(
      "SELECT ?v WHERE { ?v <rdf:type> <dc:Vessel> . }", &dict);
  ASSERT_TRUE(parsed.ok());
  const auto rs = engine.ExecuteGlobal(parsed.value().query);
  EXPECT_EQ(rs.rows.size(), 6u);

  // Spatiotemporal text query over nodes.
  auto parsed2 = ParseQuery(
      "SELECT ?n ?s WHERE {"
      "  ?n <rdf:type> <dc:PositionNode> ."
      "  ?n <dc:hasSpeed> ?s ."
      "} WITHIN 35.0 23.0 39.0 27.0 ON ?n",
      &dict);
  ASSERT_TRUE(parsed2.ok());
  const auto rs2 = engine.ExecuteGlobal(parsed2.value().query);
  EXPECT_GT(rs2.rows.size(), 0u);
}

TEST(ParserTest, UnknownConstantsNeverGrowTheDictionary) {
  // Query constants are looked up, not interned: a query naming terms the
  // stream never produced leaves the dictionary — and so the ids later
  // terms get — unchanged, and answers with zero rows.
  TermDictionary dict;
  Vocab vocab(&dict);
  Rdfizer rdfizer(Rdfizer::Config{}, &dict, &vocab);
  AisGeneratorConfig fleet;
  fleet.num_vessels = 4;
  fleet.duration = 10 * kMinute;
  std::vector<Triple> triples;
  for (const auto& r : ObserveFleet(GenerateAisFleet(fleet),
                                    ObservationConfig{})) {
    const auto ts = rdfizer.TransformReport(r);
    triples.insert(triples.end(), ts.begin(), ts.end());
  }
  HashPartitioner scheme(2, &rdfizer.tags());
  PartitionedRdfStore store;
  store.Load(triples, scheme, rdfizer.grid());
  ThreadPool pool(2);
  QueryEngine engine(&store, &rdfizer, &pool);

  const std::size_t before = dict.size();
  const char* const shapes[] = {
      "SELECT ?n WHERE { ?n <rdf:type> <dc:NoSuchClass%d> . }",
      "SELECT ?n WHERE { ?n <dc:noSuchPredicate%d> ?o . }",
      "SELECT ?o WHERE { <dc:noSuchSubject%d> <rdf:type> ?o . }",
      "SELECT ?n WHERE { ?n <rdf:type> <dc:PositionNode> . "
      "?n <dc:hasNodeKind> \"no_such_kind_%d\"^^string . }",
      "SELECT ?n WHERE { ?n <dc:hasSpeed> \"%d.50\"^^double . }",
  };
  std::size_t unsatisfiable = 0;
  for (int i = 0; i < 10000; ++i) {
    char text[256];
    std::snprintf(text, sizeof(text), shapes[i % 5], i);
    const auto parsed = ParseQuery(text, &dict);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    const Query& q = parsed.value().query;
    for (const QueryTriple& qt : q.bgp) {
      for (const QueryTerm* t : {&qt.s, &qt.p, &qt.o}) {
        if (!t->IsVar()) {
          EXPECT_NE(t->term, kInvalidTermId) << text;
        }
      }
    }
    unsatisfiable += q.unsatisfiable;
    EXPECT_TRUE(engine.ExecuteLocal(q).rows.empty()) << text;
    EXPECT_TRUE(engine.ExecuteGlobal(q).rows.empty()) << text;
  }
  EXPECT_EQ(unsatisfiable, 10000u);
  EXPECT_EQ(dict.size(), before);

  // The same vocabulary, known to the dictionary, parses satisfiable.
  const auto known = ParseQuery(
      "SELECT ?n WHERE { ?n <rdf:type> <dc:PositionNode> . }", &dict);
  ASSERT_TRUE(known.ok());
  EXPECT_FALSE(known.value().query.unsatisfiable);
  EXPECT_FALSE(engine.ExecuteGlobal(known.value().query).rows.empty());
  EXPECT_EQ(dict.size(), before);
}

}  // namespace
}  // namespace datacron
