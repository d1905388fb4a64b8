#include <gtest/gtest.h>

#include <set>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "rdf/ntriples.h"
#include "rdf/rdfizer.h"
#include "sources/ais_generator.h"
#include "fuzz_mutations.h"

namespace datacron {
namespace {

TEST(NTriplesTest, SerializeIriTriple) {
  TermDictionary dict;
  const Triple t{dict.Intern("ent:1"), dict.Intern("rdf:type"),
                 dict.Intern("dc:Vessel")};
  EXPECT_EQ(SerializeNTriples({t}, dict),
            "<ent:1> <rdf:type> <dc:Vessel> .\n");
}

TEST(NTriplesTest, SerializeTypedLiteral) {
  TermDictionary dict;
  const Triple t{dict.Intern("node:1"), dict.Intern("dc:hasSpeed"),
                 dict.InternDouble(7.5)};
  const std::string doc = SerializeNTriples({t}, dict);
  EXPECT_NE(doc.find("\"7.5\"^^double"), std::string::npos);
}

TEST(NTriplesTest, RoundTripPreservesTriples) {
  TermDictionary dict;
  std::vector<Triple> triples = {
      {dict.Intern("ent:1"), dict.Intern("rdf:type"),
       dict.Intern("dc:Vessel")},
      {dict.Intern("node:1/100"), dict.Intern("dc:hasSpeed"),
       dict.InternDouble(7.5)},
      {dict.Intern("node:1/100"), dict.Intern("dc:hasTimestamp"),
       dict.InternDateTime(1490054400000)},
      {dict.Intern("node:1/100"), dict.Intern("dc:hasNodeKind"),
       dict.Intern("say \"stop\"", TermKind::kLiteralString)},
  };
  const std::string doc = SerializeNTriples(triples, dict);

  TermDictionary dict2;
  std::vector<Triple> parsed;
  ASSERT_TRUE(ParseNTriples(doc, &dict2, &parsed).ok());
  ASSERT_EQ(parsed.size(), triples.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(dict2.Text(parsed[i].s).value(),
              dict.Text(triples[i].s).value());
    EXPECT_EQ(dict2.Text(parsed[i].p).value(),
              dict.Text(triples[i].p).value());
    EXPECT_EQ(dict2.Text(parsed[i].o).value(),
              dict.Text(triples[i].o).value());
    EXPECT_EQ(dict2.Kind(parsed[i].o), dict.Kind(triples[i].o));
  }
}

TEST(NTriplesTest, InlineNodeIrisRoundTrip) {
  TermDictionary dict;
  const Triple t{dict.InternNode(7, 2), dict.Intern("dc:hasNextNode"),
                 dict.InternNode(7, 3)};
  const Triple wide{dict.InternNode(1u << 31, 0), dict.Intern("rdf:type"),
                    dict.Intern("dc:PositionNode")};
  const std::string doc = SerializeNTriples({t, wide}, dict);
  EXPECT_EQ(doc.substr(0, doc.find('\n')),
            "<node:7#2> <dc:hasNextNode> <node:7#3> .");

  TermDictionary dict2;
  std::vector<Triple> parsed;
  ASSERT_TRUE(ParseNTriples(doc, &dict2, &parsed).ok());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].s, InlineNode(7, 2));
  EXPECT_EQ(parsed[0].o, InlineNode(7, 3));
  EXPECT_EQ(dict2.Text(parsed[1].s).value(), "node:2147483648#0");
  EXPECT_EQ(SerializeNTriples(parsed, dict2), doc);
}

TEST(NTriplesTest, RoundTripWholeFleetStore) {
  TermDictionary dict;
  Vocab vocab(&dict);
  Rdfizer rdfizer(Rdfizer::Config{}, &dict, &vocab);
  AisGeneratorConfig fleet;
  fleet.num_vessels = 5;
  fleet.duration = 15 * kMinute;
  ObservationConfig obs;
  std::vector<Triple> triples;
  for (const auto& r : ObserveFleet(GenerateAisFleet(fleet), obs)) {
    const auto ts = rdfizer.TransformReport(r);
    triples.insert(triples.end(), ts.begin(), ts.end());
  }
  const std::string doc = SerializeNTriples(triples, dict);

  TermDictionary dict2;
  std::vector<Triple> parsed;
  ASSERT_TRUE(ParseNTriples(doc, &dict2, &parsed).ok());
  EXPECT_EQ(parsed.size(), triples.size());
  // Store sizes match after dedup in both dictionaries' id spaces.
  TripleStore original, restored;
  original.AddBatch(triples);
  original.Seal();
  restored.AddBatch(parsed);
  restored.Seal();
  EXPECT_EQ(original.size(), restored.size());
}

TEST(NTriplesTest, ParseSkipsBlankLines) {
  TermDictionary dict;
  std::vector<Triple> out;
  ASSERT_TRUE(
      ParseNTriples("\n<a> <b> <c> .\n\n<d> <e> <f> .\n\n", &dict, &out)
          .ok());
  EXPECT_EQ(out.size(), 2u);
}

TEST(NTriplesTest, ParseRejectsMalformed) {
  TermDictionary dict;
  std::vector<Triple> out;
  EXPECT_FALSE(ParseNTriples("<a> <b> .\n", &dict, &out).ok());
  EXPECT_FALSE(ParseNTriples("<a> <b> <c>\n", &dict, &out).ok());  // no dot
  EXPECT_FALSE(ParseNTriples("<a <b> <c> .\n", &dict, &out).ok());
  EXPECT_FALSE(
      ParseNTriples("<a> <b> \"x\"^^banana .\n", &dict, &out).ok());
}

TEST(NTriplesTest, MutatedDocumentsYieldStatusNeverCrash) {
  TermDictionary dict;
  const std::vector<Triple> triples = {
      {dict.Intern("ent:1"), dict.Intern("rdf:type"),
       dict.Intern("dc:Vessel")},
      {dict.Intern("node:1/100"), dict.Intern("dc:hasSpeed"),
       dict.InternDouble(7.5)},
      {dict.Intern("node:1/100"), dict.Intern("dc:hasTimestamp"),
       dict.InternDateTime(1490054400000)},
      {dict.Intern("node:1/100"), dict.Intern("dc:hasNodeKind"),
       dict.Intern("say \"stop\"", TermKind::kLiteralString)},
  };
  const std::string doc = SerializeNTriples(triples, dict);
  const auto check = [&](const std::string& text) {
    TermDictionary parsed_dict;
    std::vector<Triple> parsed;
    const Status s = ParseNTriples(text, &parsed_dict, &parsed);
    // A corrupt byte can split one line in two, never more.
    if (s.ok()) {
      EXPECT_LE(parsed.size(), triples.size() + 1);
    }
  };
  ForEachPrefix(doc, check);
  ForEachByteCorruption(doc, check);
}

TEST(NTriplesTest, RoundTripKeepsEachTermsKind) {
  // One lexical form, five terms: the dictionary keys on (kind, text), so
  // none of them collapse into another and each serializes as itself.
  const std::string doc =
      "<a> <p> \"5\"^^int .\n"
      "<a> <q> \"5\"^^double .\n"
      "<a> <r> <5> .\n"
      "<a> <s> \"5\"^^string .\n"
      "<a> <t> \"5.0\"^^double .\n";
  TermDictionary dict;
  std::vector<Triple> parsed;
  ASSERT_TRUE(ParseNTriples(doc, &dict, &parsed).ok());
  ASSERT_EQ(parsed.size(), 5u);
  std::set<TermId> objects;
  for (const Triple& t : parsed) objects.insert(t.o);
  EXPECT_EQ(objects.size(), 5u);
  EXPECT_EQ(dict.Kind(parsed[0].o), TermKind::kLiteralInt);
  EXPECT_EQ(dict.Kind(parsed[1].o), TermKind::kLiteralDouble);
  EXPECT_EQ(dict.Kind(parsed[2].o), TermKind::kIri);
  EXPECT_EQ(dict.Kind(parsed[3].o), TermKind::kLiteralString);
  EXPECT_EQ(parsed[0].o, dict.InternInt(5));
  EXPECT_EQ(parsed[1].o, dict.InternDouble(5.0));
  EXPECT_EQ(dict.Text(parsed[4].o).value(), "5.0");  // not canonical
  EXPECT_EQ(SerializeNTriples(parsed, dict), doc);

  // The parallel parse keys its shard-local batches the same way.
  std::string big;
  for (int i = 0; big.size() < (1u << 17); ++i) {
    for (const char* line :
         {"<e%d> <p> \"5\"^^int .\n", "<e%d> <q> \"5\"^^double .\n",
          "<e%d> <r> <5> .\n", "<e%d> <s> \"5\"^^string .\n",
          "<e%d> <t> \"%d\"^^string .\n"}) {
      big += StrFormat(line, i, i);
    }
  }
  TermDictionary serial_dict;
  std::vector<Triple> serial;
  ASSERT_TRUE(ParseNTriples(big, &serial_dict, &serial).ok());
  ThreadPool pool(3);
  TermDictionary parallel_dict;
  std::vector<Triple> parallel;
  ASSERT_TRUE(ParseNTriples(big, &parallel_dict, &parallel, &pool).ok());
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(parallel_dict.size(), serial_dict.size());
  EXPECT_EQ(SerializeNTriples(parallel, parallel_dict), big);
}

TEST(NTriplesTest, UnknownIdSerializesAsPlaceholder) {
  TermDictionary dict;
  const std::string doc = SerializeNTriples({{999, 998, 997}}, dict);
  EXPECT_NE(doc.find("<unknown:999>"), std::string::npos);
}

}  // namespace
}  // namespace datacron
