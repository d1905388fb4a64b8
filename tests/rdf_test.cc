#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "rdf/rdfizer.h"
#include "rdf/streaming_store.h"
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

// ------------------------------------------------------------ inline ids

double FromBits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Interns `v` and checks the id renders exactly the text the dictionary
/// has always stored for it.
TermId ExpectDoubleText(TermDictionary& dict, double v) {
  const TermId id = dict.InternDouble(v);
  const Result<std::string> text = dict.Text(id);
  EXPECT_TRUE(text.ok()) << StrFormat("%.17g", v);
  EXPECT_EQ(text.value_or(""), StrFormat("%.10g", v))
      << StrFormat("%.17g", v);
  EXPECT_EQ(dict.Kind(id), TermKind::kLiteralDouble);
  return id;
}

TEST(InlineTermTest, ZerosAndSubnormalsInline) {
  TermDictionary dict;
  for (const double v : {0.0, -0.0, 5e-324, -5e-324,
                         2.2250738585072014e-308, 1e-310, 1e308}) {
    SCOPED_TRACE(StrFormat("%.17g", v));
    EXPECT_TRUE(IsInlineTerm(ExpectDoubleText(dict, v)));
  }
  EXPECT_NE(dict.InternDouble(0.0), dict.InternDouble(-0.0));
  EXPECT_EQ(dict.size(), 0u);
}

TEST(InlineTermTest, UnrenderableDoublesFallBackToTheDictionary) {
  TermDictionary dict;
  const double fallbacks[] = {
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      FromBits(0x7FF8'0000'0000'0123ull),  // quiet NaN with a payload
      FromBits(0xFFF0'0000'0000'0001ull),  // negative signalling NaN
  };
  for (const double v : fallbacks) {
    SCOPED_TRACE(StrFormat("%.17g", v));
    const TermId id = ExpectDoubleText(dict, v);
    EXPECT_FALSE(IsInlineTerm(id));
    EXPECT_EQ(InlineDouble(v), kInvalidTermId);
    EXPECT_EQ(dict.Find(StrFormat("%.10g", v), TermKind::kLiteralDouble), id);
  }
  // DBL_MAX renders as 1.797693135e+308, which parses past the largest
  // double, so its text is a dictionary term.
  EXPECT_EQ(dict.Text(dict.InternDouble(std::numeric_limits<double>::max()))
                .value(),
            "1.797693135e+308");
  EXPECT_GE(dict.size(), 4u);
}

TEST(InlineTermTest, RandomDoublesRenderTheirText) {
  TermDictionary dict;
  Rng rng(0x1D0B1E5);
  for (int i = 0; i < 200000; ++i) {
    const double v = FromBits(rng.NextUint64());
    const TermId id = ExpectDoubleText(dict, v);
    EXPECT_EQ(IsInlineTerm(id), std::isfinite(v)) << StrFormat("%.17g", v);
  }
  for (int i = 0; i < 100000; ++i) {
    const double lat = rng.Uniform(-90, 90);
    const double lon = rng.Uniform(-180, 180);
    EXPECT_TRUE(IsInlineTerm(ExpectDoubleText(dict, lat)));
    EXPECT_TRUE(IsInlineTerm(ExpectDoubleText(dict, lon)));
  }
}

TEST(InlineTermTest, DoublesShareAnIdIffTheyShareAText) {
  TermDictionary dict;
  Rng rng(0x5A4E);
  std::vector<double> values;
  for (int i = 0; i < 300; ++i) {
    // Neighbours and near-neighbours mostly share their 10-digit text;
    // values a few ulps of the 10th digit apart do not.
    const double v = FromBits(rng.NextUint64());
    values.push_back(v);
    values.push_back(std::nextafter(v, 0.0));
    values.push_back(v * (1 + 4e-11));
    values.push_back(rng.Uniform(-1, 1) * 1e-5);
  }
  for (int k = 0; k < 200; ++k) values.push_back(12.5 + k * 1e-12);
  std::vector<TermId> ids;
  std::vector<std::string> texts;
  for (const double v : values) {
    ids.push_back(dict.InternDouble(v));
    texts.push_back(StrFormat("%.10g", v));
  }
  std::size_t shared = 0;
  for (std::size_t a = 0; a < values.size(); ++a) {
    for (std::size_t b = a + 1; b < values.size(); ++b) {
      ASSERT_EQ(ids[a] == ids[b], texts[a] == texts[b])
          << texts[a] << " vs " << texts[b];
      shared += texts[a] == texts[b];
    }
  }
  EXPECT_GT(shared, 100u);  // the equal-text side was exercised
}

TEST(InlineTermTest, IntegersInlineWithinSixtyBits) {
  TermDictionary dict;
  constexpr std::int64_t kLimit = std::int64_t{1} << 59;
  const std::int64_t inlined[] = {0, -1, 42, -kLimit, kLimit - 1};
  const std::int64_t fallback[] = {kLimit, -kLimit - 1,
                                   std::numeric_limits<std::int64_t>::max(),
                                   std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : inlined) {
    const std::string text = StrFormat("%lld", static_cast<long long>(v));
    const TermId id = dict.InternInt(v);
    EXPECT_TRUE(IsInlineTerm(id)) << text;
    EXPECT_EQ(dict.Text(id).value(), text);
    EXPECT_EQ(dict.Kind(id), TermKind::kLiteralInt);
    EXPECT_EQ(dict.Intern(text, TermKind::kLiteralInt), id);
  }
  EXPECT_EQ(dict.size(), 0u);
  for (const std::int64_t v : fallback) {
    const std::string text = StrFormat("%lld", static_cast<long long>(v));
    const TermId id = dict.InternInt(v);
    EXPECT_FALSE(IsInlineTerm(id)) << text;
    EXPECT_EQ(dict.Text(id).value(), text);
    EXPECT_EQ(dict.Kind(id), TermKind::kLiteralInt);
    EXPECT_EQ(dict.Intern(text, TermKind::kLiteralInt), id);
  }
  EXPECT_EQ(dict.size(), 4u);
}

TEST(InlineTermTest, DateTimesRoundTrip) {
  TermDictionary dict;
  constexpr std::int64_t kLimit = std::int64_t{1} << 59;
  for (const std::int64_t ms :
       {std::int64_t{1490054400000}, std::int64_t{0}, std::int64_t{-86400000},
        -kLimit, kLimit - 1}) {
    const std::string text = StrFormat("dt:%lld", static_cast<long long>(ms));
    const TermId id = dict.InternDateTime(ms);
    EXPECT_TRUE(IsInlineTerm(id)) << text;
    EXPECT_EQ(dict.Text(id).value(), text);
    EXPECT_EQ(dict.Kind(id), TermKind::kLiteralDateTime);
    EXPECT_EQ(dict.Intern(text, TermKind::kLiteralDateTime), id);
  }
  EXPECT_EQ(dict.size(), 0u);
  const TermId far = dict.InternDateTime(kLimit);
  EXPECT_FALSE(IsInlineTerm(far));
  EXPECT_EQ(dict.Text(far).value(),
            StrFormat("dt:%lld", static_cast<long long>(kLimit)));
  // An int and a dateTime of one value are different literals.
  EXPECT_NE(dict.InternInt(7), dict.InternDateTime(7));
}

TEST(InlineTermTest, OnlyCanonicalTextInlines) {
  TermDictionary dict;
  EXPECT_EQ(dict.Intern("12.5", TermKind::kLiteralDouble),
            dict.InternDouble(12.5));
  EXPECT_EQ(dict.Find("12.5", TermKind::kLiteralDouble),
            dict.InternDouble(12.5));
  EXPECT_EQ(dict.Intern("-0", TermKind::kLiteralDouble),
            dict.InternDouble(-0.0));
  EXPECT_EQ(dict.Intern("1e+20", TermKind::kLiteralDouble),
            dict.InternDouble(1e20));
  EXPECT_EQ(dict.size(), 0u);

  // Non-canonical spellings stay dictionary terms and keep their text.
  const struct {
    const char* text;
    TermKind kind;
  } kept[] = {{"12.50", TermKind::kLiteralDouble},
              {"1e5", TermKind::kLiteralDouble},
              {"0.1000000000001", TermKind::kLiteralDouble},
              {"inf", TermKind::kLiteralDouble},
              {"", TermKind::kLiteralDouble},
              {"007", TermKind::kLiteralInt},
              {"+5", TermKind::kLiteralInt},
              {"-0", TermKind::kLiteralInt},
              {"5 ", TermKind::kLiteralInt},
              {"dt:+5", TermKind::kLiteralDateTime},
              {"5", TermKind::kLiteralDateTime},
              {"dt:", TermKind::kLiteralDateTime}};
  for (const auto& k : kept) {
    SCOPED_TRACE(k.text);
    const TermId id = dict.Intern(k.text, k.kind);
    EXPECT_FALSE(IsInlineTerm(id));
    EXPECT_EQ(dict.Text(id).value(), k.text);
    EXPECT_EQ(dict.Kind(id), k.kind);
  }
  EXPECT_EQ(dict.size(), std::size(kept));
  EXPECT_NE(dict.Intern("12.50", TermKind::kLiteralDouble),
            dict.InternDouble(12.5));
}

TEST(InlineTermTest, MalformedInlineIdsAreNotFound) {
  TermDictionary dict;
  // A double payload no value encodes to: a mantissa with a trailing
  // zero digit (10 × 10^0 is spelled 1 × 10^1).
  const TermId twelve_point_five = dict.InternDouble(12.5);
  const TermId zero_padded =
      (twelve_point_five & ~((TermId{1} << 59) - 1)) |
      (((twelve_point_five >> 34) & ((TermId{1} << 25) - 1)) - 1) << 34 |
      1250;
  ASSERT_NE(zero_padded, twelve_point_five);
  TermKind kind;
  std::string text;
  EXPECT_FALSE(InlineTermText(zero_padded, &kind, &text));
  EXPECT_FALSE(InlineTermKind(zero_padded, &kind));
  EXPECT_EQ(dict.Text(zero_padded).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(dict.Kind(zero_padded), TermKind::kIri);
  EXPECT_TRUE(InlineTermText(twelve_point_five, &kind, &text));
  EXPECT_EQ(text, "12.5");
  kind = TermKind::kIri;
  EXPECT_TRUE(InlineTermKind(twelve_point_five, &kind));
  EXPECT_EQ(kind, TermKind::kLiteralDouble);
  // Batch-local ids are not inline even with bit 62 set.
  EXPECT_FALSE(IsInlineTerm(kLocalTermBit | kInlineTermBit | 1));
}

TEST(InlineTermTest, InlineLiteralsNeverEnterADictionary) {
  TermDictionary dict;
  TermBatch batch(&dict);
  TermBatch unbacked(nullptr);
  for (int i = 0; i < 1000; ++i) {
    for (TermSource* terms : {static_cast<TermSource*>(&dict),
                              static_cast<TermSource*>(&batch),
                              static_cast<TermSource*>(&unbacked)}) {
      EXPECT_EQ(terms->InternDouble(i * 0.37), InlineDouble(i * 0.37));
      EXPECT_EQ(terms->InternInt(i), InlineInt(i));
      EXPECT_EQ(terms->InternDateTime(i * 1000), InlineDateTime(i * 1000));
      EXPECT_EQ(terms->Intern(StrFormat("%d", i), TermKind::kLiteralInt),
                InlineInt(i));
    }
  }
  EXPECT_EQ(dict.size(), 0u);
  EXPECT_EQ(batch.local_size(), 0u);
  EXPECT_EQ(unbacked.local_size(), 0u);
}

TEST(InlineNodeTest, RoundTripsAtTheFieldBounds) {
  constexpr std::uint64_t kMax = (std::uint64_t{1} << 30) - 1;
  TermDictionary dict;
  TermBatch batch(&dict);
  const std::pair<std::uint32_t, std::uint64_t> nodes[] = {
      {0, 0}, {0, kMax}, {static_cast<std::uint32_t>(kMax), 0},
      {static_cast<std::uint32_t>(kMax), kMax}, {7, 2}};
  for (const auto& [entity, ordinal] : nodes) {
    SCOPED_TRACE(PositionNodeIri(entity, ordinal));
    const TermId id = InlineNode(entity, ordinal);
    ASSERT_NE(id, kInvalidTermId);
    EXPECT_TRUE(IsInlineTerm(id));
    EXPECT_EQ(dict.Text(id).value(), PositionNodeIri(entity, ordinal));
    EXPECT_EQ(dict.Kind(id), TermKind::kIri);
    TermKind kind = TermKind::kLiteralInt;
    EXPECT_TRUE(InlineTermKind(id, &kind));
    EXPECT_EQ(kind, TermKind::kIri);
    EXPECT_EQ(dict.Intern(PositionNodeIri(entity, ordinal)), id);
    EXPECT_EQ(dict.Find(PositionNodeIri(entity, ordinal)), id);
    EXPECT_EQ(dict.InternNode(entity, ordinal), id);
    EXPECT_EQ(batch.Intern(PositionNodeIri(entity, ordinal)), id);
    EXPECT_EQ(batch.InternNode(entity, ordinal), id);
  }
  EXPECT_EQ(dict.Text(InlineNode(7, 2)).value(), "node:7#2");
  EXPECT_EQ(dict.size(), 0u);
  EXPECT_EQ(batch.local_size(), 0u);
  // Entity-major: one entity's nodes are contiguous and in ordinal order.
  EXPECT_LT(InlineNode(1, 0), InlineNode(1, 1));
  EXPECT_LT(InlineNode(1, kMax), InlineNode(2, 0));
  // Inline node ids sit above every literal kind.
  EXPECT_GT(InlineNode(0, 0), InlineDateTime(-1));
}

TEST(InlineNodeTest, NonCanonicalTextStaysADictionaryTerm) {
  TermDictionary dict;
  const char* kept[] = {"node:07#1",         "node:1#",
                        "node:1#01",         "node:#1",
                        "node:1073741824#0", "node:1#1073741824",
                        "node:-1#2",         "node:1#+2",
                        "node:1#2#3",        "node:1/1000",
                        "node:1#2 ",         "Node:1#2"};
  for (const char* text : kept) {
    SCOPED_TRACE(text);
    const TermId id = dict.Intern(text);
    EXPECT_FALSE(IsInlineTerm(id));
    EXPECT_EQ(dict.Text(id).value(), text);
    EXPECT_EQ(dict.Find(text), id);
    EXPECT_EQ(dict.Kind(id), TermKind::kIri);
  }
  EXPECT_EQ(dict.size(), std::size(kept));
  // Canonical text of another kind is not a node.
  EXPECT_FALSE(IsInlineTerm(dict.Intern("node:1#2", TermKind::kLiteralString)));

  // An entity or ordinal of 2^30 or more falls back to the dictionary,
  // under the same text.
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 30;
  EXPECT_EQ(InlineNode(kLimit, 0), kInvalidTermId);
  EXPECT_EQ(InlineNode(0, kLimit), kInvalidTermId);
  const TermId wide = dict.InternNode(static_cast<std::uint32_t>(kLimit), 5);
  EXPECT_FALSE(IsInlineTerm(wide));
  EXPECT_EQ(dict.Text(wide).value(), "node:1073741824#5");
  EXPECT_EQ(dict.Intern("node:1073741824#5"), wide);
  const TermId long_run = dict.InternNode(7, kLimit);
  EXPECT_FALSE(IsInlineTerm(long_run));
  EXPECT_EQ(dict.Find("node:7#1073741824"), long_run);
}

TEST(TermDictionaryTest, KindsDoNotCollide) {
  TermDictionary dict;
  const TermId iri = dict.Intern("5");
  const TermId str = dict.Intern("5", TermKind::kLiteralString);
  const TermId nan_double = dict.Intern("nan", TermKind::kLiteralDouble);
  const TermId nan_string = dict.Intern("nan", TermKind::kLiteralString);
  EXPECT_NE(iri, str);
  EXPECT_NE(nan_double, nan_string);
  EXPECT_EQ(dict.size(), 4u);
  EXPECT_EQ(dict.Find("5"), iri);
  EXPECT_EQ(dict.Find("5", TermKind::kLiteralString), str);
  EXPECT_EQ(dict.Find("nan", TermKind::kLiteralInt), kInvalidTermId);
  EXPECT_EQ(dict.Kind(str), TermKind::kLiteralString);
  EXPECT_EQ(dict.Kind(nan_double), TermKind::kLiteralDouble);

  // A batch keys its local terms the same way, and merges to the same ids.
  TermBatch batch(&dict);
  const TermId local_iri = batch.Intern("7");
  const TermId local_str = batch.Intern("7", TermKind::kLiteralString);
  EXPECT_NE(local_iri, local_str);
  EXPECT_EQ(batch.Intern("5", TermKind::kLiteralString), str);
  const std::vector<TermId> remap = dict.MergeBatch(batch);
  EXPECT_EQ(RemapTerm(local_iri, remap), dict.Find("7"));
  EXPECT_EQ(RemapTerm(local_str, remap),
            dict.Find("7", TermKind::kLiteralString));
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

// ------------------------------------------------- leading-key directory

/// The matches of `pat` among `contents`, deduplicated and sorted in the
/// order of the index whose prefix the pattern is: SPO when the subject is
/// bound without the object alone (and for the full scan), POS when only
/// the predicate leads, OSP for S?O and ??O.
std::vector<Triple> BruteForceRange(std::vector<Triple> contents,
                                    const TriplePattern& pat) {
  std::erase_if(contents, [&pat](const Triple& t) {
    return (pat.s != 0 && t.s != pat.s) || (pat.p != 0 && t.p != pat.p) ||
           (pat.o != 0 && t.o != pat.o);
  });
  auto spo = [](const Triple& t) { return std::tie(t.s, t.p, t.o); };
  auto pos = [](const Triple& t) { return std::tie(t.p, t.o, t.s); };
  auto osp = [](const Triple& t) { return std::tie(t.o, t.s, t.p); };
  const bool s = pat.s != 0, p = pat.p != 0, o = pat.o != 0;
  std::sort(contents.begin(), contents.end(),
            [&](const Triple& a, const Triple& b) {
              if (s && (p || !o)) return spo(a) < spo(b);
              if (p) return pos(a) < pos(b);
              if (o) return osp(a) < osp(b);
              return spo(a) < spo(b);
            });
  contents.erase(std::unique(contents.begin(), contents.end()),
                 contents.end());
  return contents;
}

/// Every pattern shape over terms drawn from `probes` (present and absent
/// ones): Range() is the brute-force answer in index order, and Count()
/// its size.
void ExpectRangesMatchBruteForce(const TripleStore& store,
                                 const std::vector<Triple>& contents,
                                 const std::vector<Triple>& probes) {
  for (const Triple& probe : probes) {
    for (int shape = 0; shape < 8; ++shape) {
      const TriplePattern pat{(shape & 1) ? probe.s : 0,
                              (shape & 2) ? probe.p : 0,
                              (shape & 4) ? probe.o : 0};
      const std::vector<Triple> expected = BruteForceRange(contents, pat);
      const std::span<const Triple> got = store.Range(pat);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                             expected.end()))
          << "pattern (" << pat.s << "," << pat.p << "," << pat.o << ")";
      EXPECT_EQ(store.Count(pat), expected.size());
    }
  }
}

/// Probe triples over wider term ranges than RandomTriples draws from,
/// so subjects, predicates and objects are often absent.
std::vector<Triple> RandomProbes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triple> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({static_cast<TermId>(rng.UniformInt(1, 60)),
                   static_cast<TermId>(rng.UniformInt(45, 65)),
                   static_cast<TermId>(rng.UniformInt(1, 110))});
  }
  return out;
}

TEST(TripleStoreDirectoryTest, EveryShapeMatchesBruteForceInIndexOrder) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto triples = RandomTriples(3000, 700 + seed);
    TripleStore store;
    store.AddBatch(triples);
    store.Seal();
    std::set<TermId> subjects;
    for (const Triple& t : triples) subjects.insert(t.s);
    EXPECT_EQ(store.subjects(), subjects.size());
    ExpectRangesMatchBruteForce(store, triples, RandomProbes(60, seed));
  }
}

TEST(TripleStoreDirectoryTest, LargeStoreSealedWithAPool) {
  // Large enough for the parallel Seal path: the directory is built next
  // to the concurrent POS and OSP builds.
  ThreadPool pool(4);
  const auto triples = RandomTriples(60000, 77);
  TripleStore serial, pooled;
  serial.AddBatch(triples);
  pooled.AddBatch(triples);
  serial.Seal();
  pooled.Seal(&pool);
  EXPECT_EQ(pooled.subjects(), serial.subjects());
  for (const Triple& probe : RandomProbes(40, 78)) {
    for (int shape = 0; shape < 8; ++shape) {
      const TriplePattern pat{(shape & 1) ? probe.s : 0,
                              (shape & 2) ? probe.p : 0,
                              (shape & 4) ? probe.o : 0};
      const std::span<const Triple> a = serial.Range(pat);
      const std::span<const Triple> b = pooled.Range(pat);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    }
  }
  ExpectRangesMatchBruteForce(pooled, triples, RandomProbes(4, 79));
}

TEST(TripleStoreDirectoryTest, EmptyStoreAnswersNothing) {
  TripleStore store;
  store.Seal();
  EXPECT_EQ(store.subjects(), 0u);
  ExpectRangesMatchBruteForce(store, {}, RandomProbes(10, 5));
}

TEST(TripleStoreDirectoryTest, AbsentSubjectsAndPredicatesAreEmpty) {
  TripleStore store;
  store.AddBatch({{10, 100, 1}, {10, 101, 2}, {30, 100, 3}});
  store.Seal();
  // Below, between and above the stored keys.
  for (const TermId s : {TermId{1}, TermId{20}, TermId{40}}) {
    EXPECT_TRUE(store.Range({s, 0, 0}).empty());
    EXPECT_EQ(store.Count({s, 100, 0}), 0u);
    EXPECT_EQ(store.Count({s, 100, 1}), 0u);
  }
  for (const TermId p : {TermId{99}, TermId{102}}) {
    EXPECT_TRUE(store.Range({0, p, 0}).empty());
    EXPECT_EQ(store.Count({0, p, 1}), 0u);
    EXPECT_EQ(store.Count({10, p, 0}), 0u);
  }
  EXPECT_EQ(store.Count({10, 0, 0}), 2u);
  EXPECT_EQ(store.Count({0, 100, 0}), 2u);
  EXPECT_EQ(store.Count({10, 100, 2}), 0u);
}

TEST(TripleStoreDirectoryTest, ResealAfterAddRebuildsTheDirectory) {
  auto triples = RandomTriples(800, 31);
  TripleStore store;
  store.AddBatch(triples);
  store.Seal();
  // New subjects and predicates, more triples of existing keys, and
  // duplicates of sealed triples.
  std::vector<Triple> more = {{70, 61, 5}, {70, 52, 6}, {3, 62, 7}};
  more.insert(more.end(), triples.begin(), triples.begin() + 100);
  for (const Triple& t : more) store.Add(t);
  EXPECT_FALSE(store.sealed());
  store.Seal();
  triples.insert(triples.end(), more.begin(), more.end());
  std::vector<Triple> probes = RandomProbes(40, 32);
  probes.insert(probes.end(), {{70, 61, 5}, {3, 62, 7}, {71, 63, 8}});
  ExpectRangesMatchBruteForce(store, triples, probes);
}

TEST(TripleStoreDirectoryTest, StreamingBucketsMatchBruteForce) {
  // Each sealed bucket is its own TripleStore: Match concatenates the
  // archival answer and the bucket answers in bucket order, each in its
  // index order.
  const auto archived = RandomTriples(400, 90);
  TripleStore archival;
  archival.AddBatch(archived);
  archival.Seal();
  ThreadPool pool(2);
  StreamingRdfStore::Config cfg;
  cfg.bucket_ms = kMinute;
  cfg.retention_buckets = 100;
  StreamingRdfStore stream(cfg, &pool);
  stream.AttachArchival(&archival);
  std::vector<std::vector<Triple>> buckets;
  for (int b = 0; b < 5; ++b) {
    buckets.push_back(RandomTriples(300, 91 + b));
    stream.Add(b * kMinute + kSecond, buckets.back());
  }
  stream.AdvanceTo(5 * kMinute);
  ASSERT_EQ(stream.SealedBuckets(), 5u);
  for (const Triple& probe : RandomProbes(25, 96)) {
    for (int shape = 0; shape < 8; ++shape) {
      const TriplePattern pat{(shape & 1) ? probe.s : 0,
                              (shape & 2) ? probe.p : 0,
                              (shape & 4) ? probe.o : 0};
      std::vector<Triple> expected = BruteForceRange(archived, pat);
      for (const auto& bucket : buckets) {
        const std::vector<Triple> hits = BruteForceRange(bucket, pat);
        expected.insert(expected.end(), hits.begin(), hits.end());
      }
      EXPECT_EQ(stream.Match(pat), expected)
          << "pattern (" << pat.s << "," << pat.p << "," << pat.o << ")";
      EXPECT_EQ(stream.Count(pat), expected.size());
    }
  }
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
  const TermId n1 = dict_.Find(PositionNodeIri(1, 0));
  const TermId n2 = dict_.Find(PositionNodeIri(1, 1));
  bool linked = false;
  for (const Triple& t : second) {
    if (t.s == n1 && t.p == vocab_.p_next_node && t.o == n2) linked = true;
  }
  EXPECT_TRUE(linked);
}

TEST_F(RdfizerTest, EqualTimestampsShareOneNode) {
  const std::size_t before = dict_.size();
  std::vector<Triple> triples;
  PositionReport moved = Report(1, 1000);
  moved.position.lat_deg = 36.6;
  for (const PositionReport& r :
       {Report(1, 1000), moved, Report(1, 2000), Report(1, 2000)}) {
    const auto ts = rdfizer_.TransformReport(r);
    triples.insert(triples.end(), ts.begin(), ts.end());
  }
  EXPECT_EQ(rdfizer_.NodeIdOf(Report(1, 1000)), InlineNode(1, 0));
  EXPECT_EQ(rdfizer_.NodeIdOf(Report(1, 2000)), InlineNode(1, 1));
  EXPECT_EQ(rdfizer_.NodeIdOf(Report(1, 3000)), kInvalidTermId);
  EXPECT_EQ(rdfizer_.NodeIdOf(Report(2, 1000)), kInvalidTermId);
  std::vector<Triple> links;
  for (const Triple& t : triples) {
    if (t.p == vocab_.p_next_node) links.push_back(t);
  }
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0].s, InlineNode(1, 0));
  EXPECT_EQ(links[0].o, InlineNode(1, 1));
  // The shared node carries the later report's geometry.
  EXPECT_DOUBLE_EQ(rdfizer_.node_geo().at(InlineNode(1, 0)).lat_deg, 36.6);
  // No node entered the dictionary: only the entity and trajectory IRIs,
  // one cell and one bucket did.
  EXPECT_EQ(dict_.size() - before, 4u);
}

TEST_F(RdfizerTest, GapStartReusesThePreGapNode) {
  // The detector emits GapStart with the report before the silence, which
  // was already transformed as the entity's last node.
  CriticalPoint start{Report(1, 1000), CriticalPointType::kTrajectoryStart};
  CriticalPoint gap_start{Report(1, 1000), CriticalPointType::kGapStart};
  CriticalPoint gap_end{Report(1, 1000 + kHour), CriticalPointType::kGapEnd};
  std::vector<Triple> triples;
  for (const CriticalPoint& cp : {start, gap_start, gap_end}) {
    const auto ts = rdfizer_.TransformCriticalPoint(cp);
    triples.insert(triples.end(), ts.begin(), ts.end());
  }
  std::set<TermId> kinds_of_first;
  std::size_t links = 0;
  for (const Triple& t : triples) {
    if (t.p == vocab_.p_node_kind && t.s == InlineNode(1, 0)) {
      kinds_of_first.insert(t.o);
    }
    if (t.p == vocab_.p_next_node) {
      ++links;
      EXPECT_EQ(t.s, InlineNode(1, 0));
      EXPECT_EQ(t.o, InlineNode(1, 1));
    }
  }
  EXPECT_EQ(kinds_of_first.size(), 2u);
  EXPECT_EQ(links, 1u);
  EXPECT_EQ(rdfizer_.NodeIdOf(gap_end.report), InlineNode(1, 1));
}

TEST_F(RdfizerTest, WideEntityNodesFallBackToTheDictionary) {
  constexpr EntityId kWide = (EntityId{1} << 30) + 9;
  const std::size_t before = dict_.size();
  rdfizer_.TransformReport(Report(kWide, 1000));
  const auto second = rdfizer_.TransformReport(Report(kWide, 2000));
  const TermId n0 = rdfizer_.NodeIdOf(Report(kWide, 1000));
  const TermId n1 = rdfizer_.NodeIdOf(Report(kWide, 2000));
  EXPECT_FALSE(IsInlineTerm(n0));
  EXPECT_EQ(dict_.Text(n0).value(), PositionNodeIri(kWide, 0));
  EXPECT_EQ(dict_.Text(n1).value(), PositionNodeIri(kWide, 1));
  bool linked = false;
  for (const Triple& t : second) {
    if (t.s == n0 && t.p == vocab_.p_next_node && t.o == n1) linked = true;
  }
  EXPECT_TRUE(linked);
  // Two nodes, plus the entity and trajectory IRIs, cell and bucket.
  EXPECT_EQ(dict_.size() - before, 6u);
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
  const TermId kind =
      dict_.Find("turning_point", TermKind::kLiteralString);
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
