#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/thread_pool.h"
#include "partition/partitioned_store.h"
#include "partition/partitioner.h"
#include "rdf/rdfizer.h"
#include "sources/ais_generator.h"

namespace datacron {
namespace {

/// Shared fixture: a small fleet RDF-ized, with tags.
class PartitionTest : public ::testing::Test {
 protected:
  PartitionTest() : vocab_(&dict_) {
    Rdfizer::Config cfg;
    rdfizer_ = std::make_unique<Rdfizer>(cfg, &dict_, &vocab_);
    AisGeneratorConfig fleet;
    fleet.num_vessels = 12;
    fleet.duration = 40 * kMinute;
    const auto traces = GenerateAisFleet(fleet);
    ObservationConfig obs;
    obs.fixed_interval_ms = 20 * kSecond;
    for (const auto& r : ObserveFleet(traces, obs)) {
      const auto ts = rdfizer_->TransformReport(r);
      triples_.insert(triples_.end(), ts.begin(), ts.end());
    }
  }

  TermDictionary dict_;
  Vocab vocab_;
  std::unique_ptr<Rdfizer> rdfizer_;
  std::vector<Triple> triples_;
};

TEST_F(PartitionTest, HashCoversAllPartitionsAndIsDeterministic) {
  HashPartitioner scheme(8, &rdfizer_->tags());
  std::set<int> used;
  for (const Triple& t : triples_) {
    const int p = scheme.PartitionOf(t);
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 8);
    EXPECT_EQ(p, scheme.PartitionOf(t));  // deterministic
    used.insert(p);
  }
  EXPECT_EQ(used.size(), 8u);
}

TEST_F(PartitionTest, SubjectsAreColocated) {
  // All triples of one subject land in one partition — for every scheme.
  std::vector<std::unique_ptr<PartitionScheme>> schemes;
  schemes.push_back(
      std::make_unique<HashPartitioner>(4, &rdfizer_->tags()));
  schemes.push_back(std::make_unique<GridPartitioner>(4, &rdfizer_->tags(),
                                                      rdfizer_->grid()));
  schemes.push_back(HilbertPartitioner::Build(4, &rdfizer_->tags(),
                                              rdfizer_->grid()));
  schemes.push_back(TemporalPartitioner::Build(4, &rdfizer_->tags()));
  schemes.push_back(SpatioTemporalPartitioner::Build(
      2, 2, &rdfizer_->tags(), rdfizer_->grid()));
  for (const auto& scheme : schemes) {
    std::map<TermId, int> subject_partition;
    for (const Triple& t : triples_) {
      const int p = scheme->PartitionOf(t);
      auto [it, inserted] = subject_partition.try_emplace(t.s, p);
      EXPECT_EQ(it->second, p) << scheme->name();
    }
  }
}

TEST_F(PartitionTest, HomeOfIsTheSubjectsPartitionUnderEveryScheme) {
  std::vector<std::unique_ptr<PartitionScheme>> schemes;
  schemes.push_back(
      std::make_unique<HashPartitioner>(4, &rdfizer_->tags()));
  schemes.push_back(std::make_unique<GridPartitioner>(4, &rdfizer_->tags(),
                                                      rdfizer_->grid()));
  schemes.push_back(HilbertPartitioner::Build(4, &rdfizer_->tags(),
                                              rdfizer_->grid()));
  schemes.push_back(TemporalPartitioner::Build(4, &rdfizer_->tags()));
  schemes.push_back(SpatioTemporalPartitioner::Build(
      2, 2, &rdfizer_->tags(), rdfizer_->grid()));
  ThreadPool pool(4);
  for (const auto& scheme : schemes) {
    // The serial and the pooled Load record the same homes.
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      PartitionedRdfStore store;
      store.Load(triples_, *scheme, rdfizer_->grid(), kInvalidTermId, p);
      for (const Triple& t : triples_) {
        ASSERT_EQ(store.HomeOf(t.s), scheme->PartitionOfNode(t.s))
            << scheme->name();
      }
      // Objects that are never subjects, and terms nobody interned.
      EXPECT_EQ(store.HomeOf(vocab_.c_position_node), -1) << scheme->name();
      EXPECT_EQ(store.HomeOf(dict_.Intern("dc:neverASubject")), -1);
      EXPECT_EQ(store.HomeOf(kInvalidTermId), -1);
      EXPECT_EQ(store.HomeOf(InlineNode(999999, 1)), -1);
    }
  }
}

TEST_F(PartitionTest, LoadPreservesEveryTriple) {
  auto scheme =
      HilbertPartitioner::Build(6, &rdfizer_->tags(), rdfizer_->grid());
  PartitionedRdfStore store;
  store.Load(triples_, *scheme, rdfizer_->grid(), vocab_.p_next_node);
  // Sum of partition sizes equals the deduplicated triple count.
  std::set<std::tuple<TermId, TermId, TermId>> dedup;
  for (const Triple& t : triples_) dedup.insert({t.s, t.p, t.o});
  EXPECT_EQ(store.TotalTriples(), dedup.size());
}

TEST_F(PartitionTest, BalancedSchemesAreBalanced) {
  auto hilbert =
      HilbertPartitioner::Build(4, &rdfizer_->tags(), rdfizer_->grid());
  PartitionedRdfStore store;
  store.Load(triples_, *hilbert, rdfizer_->grid(), vocab_.p_next_node);
  // Balance factor: max/mean should be < 2 for boundary-balanced Hilbert.
  EXPECT_LT(store.stats().balance_factor, 2.0);
  EXPECT_GE(store.stats().balance_factor, 1.0);
}

TEST_F(PartitionTest, HilbertLocalityBeatsHashOnSequenceEdges) {
  auto hash = std::make_unique<HashPartitioner>(8, &rdfizer_->tags());
  auto hilbert =
      HilbertPartitioner::Build(8, &rdfizer_->tags(), rdfizer_->grid());
  PartitionedRdfStore hash_store, hilbert_store;
  hash_store.Load(triples_, *hash, rdfizer_->grid(), vocab_.p_next_node);
  hilbert_store.Load(triples_, *hilbert, rdfizer_->grid(),
                     vocab_.p_next_node);
  // Consecutive positions of a vessel are spatially adjacent, so a
  // locality-preserving scheme keeps most next-node edges internal; hash
  // scatters ~ (k-1)/k of them.
  EXPECT_LT(hilbert_store.stats().cross_partition_edge_ratio, 0.35);
  EXPECT_GT(hash_store.stats().cross_partition_edge_ratio, 0.75);
}

TEST_F(PartitionTest, TemporalPartitionerOrdersBuckets) {
  auto temporal = TemporalPartitioner::Build(4, &rdfizer_->tags());
  // Later buckets must never map to an earlier partition than earlier
  // buckets (range partitioning is monotone).
  StTag early{{0, 0}, 0}, late{{0, 0}, 1000};
  EXPECT_LE(temporal->PlaceTagged(early), temporal->PlaceTagged(late));
}

TEST_F(PartitionTest, GridPartitionerPlacesByRowMajorRanges) {
  GridPartitioner scheme(4, &rdfizer_->tags(), rdfizer_->grid());
  // Bottom-left cell -> partition 0; top-right cell -> partition 3.
  StTag bottom{{0, 0}, 0};
  StTag top{{rdfizer_->grid().cols() - 1, rdfizer_->grid().rows() - 1}, 0};
  EXPECT_EQ(scheme.PlaceTagged(bottom), 0);
  EXPECT_EQ(scheme.PlaceTagged(top), 3);
}

TEST_F(PartitionTest, SpatioTemporalComposite) {
  auto st = SpatioTemporalPartitioner::Build(2, 3, &rdfizer_->tags(),
                                             rdfizer_->grid());
  EXPECT_EQ(st->num_partitions(), 6);
  std::set<int> used;
  for (const Triple& t : triples_) used.insert(st->PartitionOf(t));
  EXPECT_GE(used.size(), 4u);
}

TEST_F(PartitionTest, MetaEnvelopesCoverResidentNodes) {
  auto hilbert =
      HilbertPartitioner::Build(5, &rdfizer_->tags(), rdfizer_->grid());
  PartitionedRdfStore store;
  store.Load(triples_, *hilbert, rdfizer_->grid());
  for (const auto& [node, tag] : rdfizer_->tags()) {
    const int p = hilbert->PartitionOfNode(node);
    const PartitionMeta& m = store.meta(p);
    EXPECT_TRUE(
        m.bbox.Contains(rdfizer_->grid().CellCenter(tag.cell)))
        << "partition " << p;
    EXPECT_GE(tag.bucket, m.min_bucket);
    EXPECT_LE(tag.bucket, m.max_bucket);
  }
}

TEST_F(PartitionTest, PruningIsSound) {
  auto hilbert =
      HilbertPartitioner::Build(6, &rdfizer_->tags(), rdfizer_->grid());
  PartitionedRdfStore store;
  store.Load(triples_, *hilbert, rdfizer_->grid());
  // Query box: the south-west quadrant.
  const BoundingBox query = BoundingBox::Of(35, 23, 37, 25);
  const auto candidates = store.PruneCandidates(query, 0, 1000000);
  const std::set<int> cand(candidates.begin(), candidates.end());
  // Every node inside the box must live in a candidate partition.
  for (const auto& [node, tag] : rdfizer_->tags()) {
    const LatLon center = rdfizer_->grid().CellCenter(tag.cell);
    if (query.Contains(center)) {
      EXPECT_TRUE(cand.count(hilbert->PartitionOfNode(node)));
    }
  }
}

TEST_F(PartitionTest, PruningActuallyPrunes) {
  auto grid_scheme = std::make_unique<GridPartitioner>(
      8, &rdfizer_->tags(), rdfizer_->grid());
  PartitionedRdfStore store;
  store.Load(triples_, *grid_scheme, rdfizer_->grid());
  // A tiny query box should not need all 8 partitions.
  const BoundingBox tiny = BoundingBox::Of(35.2, 23.2, 35.4, 23.4);
  const auto candidates = store.PruneCandidates(tiny, 0, 1000000);
  EXPECT_LT(candidates.size(), 8u);
}

TEST_F(PartitionTest, StatsToStringMentionsScheme) {
  HashPartitioner scheme(3, &rdfizer_->tags());
  PartitionedRdfStore store;
  store.Load(triples_, scheme, rdfizer_->grid());
  EXPECT_NE(store.stats().ToString().find("hash"), std::string::npos);
}

}  // namespace
}  // namespace datacron
