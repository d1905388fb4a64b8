// Parallel ingest path: determinism and equivalence with the serial path.
//
// The guarantee under test (see DESIGN.md "Parallel ingest architecture"):
// for any thread count, parallel RDF-ization, parsing, sealing and
// partition loading produce the same dictionary ids, the same triple sets
// and byte-identical sealed indexes as the serial path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel_sort.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "partition/partitioned_store.h"
#include "partition/partitioner.h"
#include "rdf/ntriples.h"
#include "rdf/rdfizer.h"
#include "rdf/streaming_store.h"
#include "rdf/term.h"
#include "rdf/triple_store.h"
#include "rdf/vocab.h"
#include "sources/ais_generator.h"

namespace datacron {
namespace {

std::vector<PositionReport> FleetReports(std::size_t vessels,
                                         DurationMs duration) {
  AisGeneratorConfig fleet;
  fleet.num_vessels = vessels;
  fleet.duration = duration;
  ObservationConfig obs;
  obs.fixed_interval_ms = 10 * kSecond;
  return ObserveFleet(GenerateAisFleet(fleet), obs);
}

void ExpectSameDictionary(const TermDictionary& a, const TermDictionary& b) {
  ASSERT_EQ(a.size(), b.size());
  for (TermId id = 1; id <= a.size(); ++id) {
    const auto ta = a.Text(id);
    const auto tb = b.Text(id);
    ASSERT_TRUE(ta.ok());
    ASSERT_TRUE(tb.ok());
    ASSERT_EQ(ta.value(), tb.value()) << "id " << id;
    ASSERT_EQ(a.Kind(id), b.Kind(id)) << "id " << id;
  }
}

std::vector<Triple> SortedCopy(std::vector<Triple> v) {
  std::sort(v.begin(), v.end(), [](const Triple& a, const Triple& b) {
    if (a.s != b.s) return a.s < b.s;
    if (a.p != b.p) return a.p < b.p;
    return a.o < b.o;
  });
  return v;
}

// ------------------------------------------------------- term dictionary

TEST(ShardedDictionaryTest, ConcurrentInternIsConsistent) {
  TermDictionary dict;
  ThreadPool pool(8);
  // 8 workers intern heavily overlapping term sets concurrently.
  pool.ParallelFor(8, [&](std::size_t w) {
    for (int rep = 0; rep < 3; ++rep) {
      for (int i = 0; i < 500; ++i) {
        dict.Intern(StrFormat("shared:%d", i));
        dict.Intern(StrFormat("w%zu:%d", w, i));
      }
    }
  });
  // 500 shared + 8*500 private distinct terms, each with exactly one id.
  EXPECT_EQ(dict.size(), 500u + 8u * 500u);
  for (int i = 0; i < 500; ++i) {
    const TermId id = dict.Find(StrFormat("shared:%d", i));
    ASSERT_NE(id, kInvalidTermId);
    EXPECT_EQ(dict.Intern(StrFormat("shared:%d", i)), id);
    EXPECT_EQ(dict.Text(id).value(), StrFormat("shared:%d", i));
  }
  // Ids are dense: every id in [1, size] resolves.
  for (TermId id = 1; id <= dict.size(); ++id) {
    EXPECT_TRUE(dict.Text(id).ok());
  }
}

TEST(ShardedDictionaryTest, SerialIdsStayDense) {
  TermDictionary dict;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(dict.Intern(StrFormat("x:%d", i)), static_cast<TermId>(i + 1));
  }
}

TEST(TermBatchTest, MergeReproducesSerialOrder) {
  // Serial reference.
  TermDictionary serial;
  const std::vector<std::string> stream = {"a", "b", "a", "c", "d", "b", "e"};
  for (const auto& s : stream) serial.Intern(s);

  // Two-phase over two chunks: {a,b,a,c} then {d,b,e}.
  TermDictionary merged;
  TermBatch chunk1(&merged);
  for (const char* s : {"a", "b", "a", "c"}) chunk1.Intern(s);
  TermBatch chunk2(&merged);
  for (const char* s : {"d", "b", "e"}) chunk2.Intern(s);
  merged.MergeBatch(chunk1);
  merged.MergeBatch(chunk2);
  ExpectSameDictionary(serial, merged);
}

TEST(TermBatchTest, LocalIdsRemapToGlobal) {
  TermDictionary dict;
  const TermId pre = dict.Intern("already-global");
  TermBatch batch(&dict);
  EXPECT_EQ(batch.Intern("already-global"), pre);  // global hit, unmarked
  const TermId local = batch.Intern("fresh");
  EXPECT_TRUE(local & kLocalTermBit);
  EXPECT_EQ(batch.Intern("fresh"), local);  // local hit
  const auto remap = dict.MergeBatch(batch);
  EXPECT_EQ(RemapTerm(local, remap), dict.Find("fresh"));
  EXPECT_EQ(RemapTerm(pre, remap), pre);
}

// ----------------------------------------------------- batch RDF-ization

class TransformBatchTest : public ::testing::TestWithParam<int> {};

TEST_P(TransformBatchTest, MatchesSerialAcrossThreadCounts) {
  const auto reports = FleetReports(20, 30 * kMinute);
  ASSERT_GE(reports.size(), 512u) << "need a real batch";

  // Serial reference.
  TermDictionary serial_dict;
  Vocab serial_vocab(&serial_dict);
  Rdfizer serial(Rdfizer::Config{}, &serial_dict, &serial_vocab);
  std::vector<Triple> serial_triples;
  for (const auto& r : reports) {
    const auto ts = serial.TransformReport(r);
    serial_triples.insert(serial_triples.end(), ts.begin(), ts.end());
  }

  // Parallel.
  ThreadPool pool(GetParam());
  TermDictionary par_dict;
  Vocab par_vocab(&par_dict);
  Rdfizer parallel(Rdfizer::Config{}, &par_dict, &par_vocab);
  const auto par_triples = parallel.TransformBatch(reports, &pool);

  // Same dictionary: identical ids for identical texts.
  ExpectSameDictionary(serial_dict, par_dict);
  // Same triple multiset (order may differ at chunk boundaries only).
  EXPECT_EQ(SortedCopy(serial_triples), SortedCopy(par_triples));
  // Same side tables.
  EXPECT_EQ(serial.tags(), parallel.tags());
  EXPECT_EQ(serial.node_geo(), parallel.node_geo());

  // Identical sealed indexes.
  TripleStore a;
  a.AddBatch(serial_triples);
  a.Seal();
  TripleStore b;
  b.AddBatch(par_triples);
  b.Seal();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.Match({0, 0, 0}), b.Match({0, 0, 0}));
  EXPECT_EQ(a.Predicates(), b.Predicates());
}

TEST_P(TransformBatchTest, RepeatedTimestampsAndWideEntitiesMatchSerial) {
  // Every fifth report arrives twice (same entity and timestamp, so it
  // shares the node) and one vessel's id is 2^30 or more (its nodes are
  // dictionary terms); chunk boundaries cut through both.
  std::vector<PositionReport> reports;
  const auto fleet = FleetReports(20, 30 * kMinute);
  const EntityId wide = fleet.back().entity_id;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    PositionReport r = fleet[i];
    if (r.entity_id == wide) r.entity_id |= EntityId{1} << 30;
    reports.push_back(r);
    if (i % 5 == 0) {
      r.speed_mps += 1.0;
      reports.push_back(r);
    }
  }

  TermDictionary serial_dict;
  Vocab serial_vocab(&serial_dict);
  Rdfizer serial(Rdfizer::Config{}, &serial_dict, &serial_vocab);
  std::vector<Triple> serial_triples;
  for (const auto& r : reports) {
    const auto ts = serial.TransformReport(r);
    serial_triples.insert(serial_triples.end(), ts.begin(), ts.end());
  }

  ThreadPool pool(GetParam());
  TermDictionary par_dict;
  Vocab par_vocab(&par_dict);
  Rdfizer parallel(Rdfizer::Config{}, &par_dict, &par_vocab);
  const std::size_t half = reports.size() / 2;
  const std::vector<PositionReport> first(reports.begin(),
                                          reports.begin() + half);
  const std::vector<PositionReport> second(reports.begin() + half,
                                           reports.end());
  auto par_triples = parallel.TransformBatch(first, &pool);
  const auto more = parallel.TransformBatch(second, &pool);
  par_triples.insert(par_triples.end(), more.begin(), more.end());

  ExpectSameDictionary(serial_dict, par_dict);
  EXPECT_EQ(serial_triples, par_triples);
  EXPECT_EQ(serial.tags(), parallel.tags());
  EXPECT_EQ(serial.node_geo(), parallel.node_geo());
  for (const auto& r : reports) {
    ASSERT_EQ(serial.NodeIdOf(r), parallel.NodeIdOf(r));
  }
  // The wide vessel's nodes are the only node IRIs in the dictionary.
  std::size_t wide_nodes = 0;
  for (TermId id = 1; id <= par_dict.size(); ++id) {
    if (StartsWith(par_dict.Text(id).value(), "node:")) ++wide_nodes;
  }
  EXPECT_GT(wide_nodes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, TransformBatchTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(TransformBatchTest, CrossBatchSequenceLinksStitch) {
  const auto reports = FleetReports(8, 30 * kMinute);
  ASSERT_GE(reports.size(), 512u);

  TermDictionary serial_dict;
  Vocab serial_vocab(&serial_dict);
  Rdfizer serial(Rdfizer::Config{}, &serial_dict, &serial_vocab);
  std::vector<Triple> serial_triples;
  for (const auto& r : reports) {
    const auto ts = serial.TransformReport(r);
    serial_triples.insert(serial_triples.end(), ts.begin(), ts.end());
  }

  // Two successive parallel batches over the two halves: entity typing
  // must not re-emit and links must chain across the batch boundary.
  ThreadPool pool(4);
  TermDictionary par_dict;
  Vocab par_vocab(&par_dict);
  Rdfizer parallel(Rdfizer::Config{}, &par_dict, &par_vocab);
  const std::size_t half = reports.size() / 2;
  std::vector<PositionReport> first(reports.begin(), reports.begin() + half);
  std::vector<PositionReport> second(reports.begin() + half, reports.end());
  auto par_triples = parallel.TransformBatch(first, &pool);
  const auto more = parallel.TransformBatch(second, &pool);
  par_triples.insert(par_triples.end(), more.begin(), more.end());

  ExpectSameDictionary(serial_dict, par_dict);
  EXPECT_EQ(SortedCopy(serial_triples), SortedCopy(par_triples));
  EXPECT_EQ(serial.tags(), parallel.tags());
}

TEST(TransformBatchTest, NullPoolFallsBackToSerial) {
  const auto reports = FleetReports(4, 10 * kMinute);
  TermDictionary d1;
  Vocab v1(&d1);
  Rdfizer r1(Rdfizer::Config{}, &d1, &v1);
  std::vector<Triple> expect;
  for (const auto& r : reports) {
    const auto ts = r1.TransformReport(r);
    expect.insert(expect.end(), ts.begin(), ts.end());
  }
  TermDictionary d2;
  Vocab v2(&d2);
  Rdfizer r2(Rdfizer::Config{}, &d2, &v2);
  EXPECT_EQ(r2.TransformBatch(reports, nullptr), expect);
}

// ----------------------------------------------------------- seal / sort

TEST(ParallelSealTest, IdenticalToSerialSeal) {
  Rng rng(4242);
  std::vector<Triple> triples;
  triples.reserve(120000);
  for (int i = 0; i < 120000; ++i) {
    triples.push_back({static_cast<TermId>(rng.UniformInt(1, 5000)),
                       static_cast<TermId>(rng.UniformInt(5001, 5050)),
                       static_cast<TermId>(rng.UniformInt(1, 9000))});
  }
  TripleStore serial;
  serial.AddBatch(triples);
  serial.Seal();

  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    TripleStore parallel;
    parallel.AddBatch(triples);
    parallel.Seal(&pool);
    ASSERT_EQ(serial.size(), parallel.size()) << threads << " threads";
    EXPECT_EQ(serial.Match({0, 0, 0}), parallel.Match({0, 0, 0}));
    EXPECT_EQ(serial.Predicates(), parallel.Predicates());
    // Spot-check every pattern family against the serial store.
    for (int q = 0; q < 25; ++q) {
      TriplePattern pat;
      Rng qr(q);
      if (qr.Bernoulli(0.5)) {
        pat.s = static_cast<TermId>(qr.UniformInt(1, 5000));
      }
      if (qr.Bernoulli(0.5)) {
        pat.p = static_cast<TermId>(qr.UniformInt(5001, 5050));
      }
      if (qr.Bernoulli(0.5)) {
        pat.o = static_cast<TermId>(qr.UniformInt(1, 9000));
      }
      EXPECT_EQ(serial.Match(pat), parallel.Match(pat));
      EXPECT_EQ(serial.Count(pat), parallel.Count(pat));
    }
  }
}

TEST(ParallelSortTest, SortsLikeStdSort) {
  Rng rng(99);
  std::vector<int> v(100000);
  for (auto& x : v) x = static_cast<int>(rng.UniformInt(0, 1 << 20));
  std::vector<int> expect = v;
  std::sort(expect.begin(), expect.end());
  ThreadPool pool(4);
  ParallelSort(&v, std::less<int>(), &pool);
  EXPECT_EQ(v, expect);
}

TEST(ParallelSortTest, TinyInputFallsBack) {
  ThreadPool pool(4);
  std::vector<int> v = {5, 3, 1, 4, 2};
  ParallelSort(&v, std::less<int>(), &pool);
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

// -------------------------------------------------------------- ntriples

TEST(ParallelParseTest, IdenticalToSerialParse) {
  // Build a document big enough to engage the parallel path (>64 KiB).
  TermDictionary dict;
  Vocab vocab(&dict);
  Rdfizer rdfizer(Rdfizer::Config{}, &dict, &vocab);
  std::vector<Triple> triples;
  for (const auto& r : FleetReports(10, 30 * kMinute)) {
    const auto ts = rdfizer.TransformReport(r);
    triples.insert(triples.end(), ts.begin(), ts.end());
  }
  const std::string doc = SerializeNTriples(triples, dict);
  ASSERT_GT(doc.size(), (1u << 16)) << "document too small to test sharding";

  TermDictionary serial_dict;
  std::vector<Triple> serial_out;
  ASSERT_TRUE(ParseNTriples(doc, &serial_dict, &serial_out).ok());

  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    TermDictionary par_dict;
    std::vector<Triple> par_out;
    ASSERT_TRUE(ParseNTriples(doc, &par_dict, &par_out, &pool).ok());
    ExpectSameDictionary(serial_dict, par_dict);
    EXPECT_EQ(serial_out, par_out);
  }
}

TEST(ParallelParseTest, ReportsSameErrorLineAsSerial) {
  // 20k good lines with one corrupted in the middle.
  std::string doc;
  const std::size_t bad_line = 12345;
  for (std::size_t i = 1; i <= 20000; ++i) {
    if (i == bad_line) {
      doc += "<a> <b> garbage\n";
    } else {
      doc += StrFormat("<s%zu> <p> <o> .\n", i);
    }
  }
  TermDictionary serial_dict;
  std::vector<Triple> serial_out;
  const Status serial_status = ParseNTriples(doc, &serial_dict, &serial_out);
  ASSERT_FALSE(serial_status.ok());

  ThreadPool pool(4);
  TermDictionary par_dict;
  std::vector<Triple> par_out;
  const Status par_status = ParseNTriples(doc, &par_dict, &par_out, &pool);
  ASSERT_FALSE(par_status.ok());
  EXPECT_EQ(serial_status.message(), par_status.message());
  EXPECT_NE(par_status.message().find("12345"), std::string::npos);
}

// ------------------------------------------------------- streaming store

TEST(ParallelStreamingStoreTest, MatchesSerialStore) {
  TermDictionary dict;
  Vocab vocab(&dict);
  Rdfizer rdfizer(Rdfizer::Config{}, &dict, &vocab);
  std::vector<Triple> triples;
  std::vector<TimestampMs> stamps;
  for (const auto& r : FleetReports(10, kHour)) {
    const auto ts = rdfizer.TransformReport(r);
    for (const auto& t : ts) {
      triples.push_back(t);
      stamps.push_back(r.timestamp);
    }
  }

  StreamingRdfStore::Config cfg;
  cfg.bucket_ms = 5 * kMinute;
  cfg.retention_buckets = 1 << 20;
  ThreadPool pool(4);
  StreamingRdfStore serial(cfg);
  StreamingRdfStore parallel(cfg, &pool);
  for (std::size_t i = 0; i < triples.size(); i += 500) {
    const std::size_t end = std::min(triples.size(), i + 500);
    const std::vector<Triple> batch(triples.begin() + i, triples.begin() + end);
    serial.Add(stamps[i], batch);
    parallel.Add(stamps[i], batch);
    serial.AdvanceTo(stamps[end - 1]);
    parallel.AdvanceTo(stamps[end - 1]);
  }
  EXPECT_EQ(serial.SealedBuckets(), parallel.SealedBuckets());
  EXPECT_EQ(serial.LiveTriples(), parallel.LiveTriples());
  EXPECT_EQ(SortedCopy(serial.Match({0, 0, 0})),
            SortedCopy(parallel.Match({0, 0, 0})));
  const TripleStore snap_serial = serial.Snapshot();
  const TripleStore snap_parallel = parallel.Snapshot();
  EXPECT_EQ(snap_serial.Match({0, 0, 0}), snap_parallel.Match({0, 0, 0}));
}

// ------------------------------------------------------ partitioned load

TEST(ParallelPartitionLoadTest, MatchesSerialLoad) {
  TermDictionary dict;
  Vocab vocab(&dict);
  Rdfizer rdfizer(Rdfizer::Config{}, &dict, &vocab);
  std::vector<Triple> triples;
  for (const auto& r : FleetReports(20, kHour)) {
    const auto ts = rdfizer.TransformReport(r);
    triples.insert(triples.end(), ts.begin(), ts.end());
  }
  ASSERT_GE(triples.size(), 4096u);

  HashPartitioner scheme(8, &rdfizer.tags());
  PartitionedRdfStore serial;
  serial.Load(triples, scheme, rdfizer.grid(), vocab.p_next_node);
  ThreadPool pool(4);
  PartitionedRdfStore parallel;
  parallel.Load(triples, scheme, rdfizer.grid(), vocab.p_next_node, &pool);

  EXPECT_EQ(serial.stats().ToString(), parallel.stats().ToString());
  ASSERT_EQ(serial.num_partitions(), parallel.num_partitions());
  for (int p = 0; p < serial.num_partitions(); ++p) {
    EXPECT_EQ(serial.partition(p).size(), parallel.partition(p).size()) << p;
    EXPECT_EQ(serial.partition(p).Match({0, 0, 0}),
              parallel.partition(p).Match({0, 0, 0}))
        << p;
    EXPECT_EQ(serial.meta(p).triple_count, parallel.meta(p).triple_count);
    EXPECT_EQ(serial.meta(p).min_bucket, parallel.meta(p).min_bucket);
    EXPECT_EQ(serial.meta(p).max_bucket, parallel.meta(p).max_bucket);
  }
  EXPECT_EQ(serial.PruneCandidates(BoundingBox::Of(36, 24, 37, 25), 0, 10),
            parallel.PruneCandidates(BoundingBox::Of(36, 24, 37, 25), 0, 10));
}

// ---------------------------------------------------------- observation

TEST(ParallelObserveTest, FleetObservationMatchesSerial) {
  AisGeneratorConfig fleet;
  fleet.num_vessels = 12;
  fleet.duration = 30 * kMinute;
  const auto traces = GenerateAisFleet(fleet);
  ObservationConfig obs;
  const auto serial = ObserveFleet(traces, obs);
  ThreadPool pool(4);
  const auto parallel = ObserveFleet(traces, obs, &pool);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace datacron
