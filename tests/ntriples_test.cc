#include <gtest/gtest.h>

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

TEST(NTriplesTest, UnknownIdSerializesAsPlaceholder) {
  TermDictionary dict;
  const std::string doc = SerializeNTriples({{999, 998, 997}}, dict);
  EXPECT_NE(doc.find("<unknown:999>"), std::string::npos);
}

}  // namespace
}  // namespace datacron
