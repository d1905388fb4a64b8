#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "partition/partitioned_store.h"
#include "partition/partitioner.h"
#include "query/engine.h"
#include "query/query.h"
#include "rdf/rdfizer.h"
#include "sources/ais_generator.h"

namespace datacron {
namespace {

/// Fixture: fleet RDF-ized into a 4-way Hilbert-partitioned store plus a
/// 1-partition reference store (ground truth for completeness checks).
class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() : vocab_(&dict_) {
    Rdfizer::Config cfg;
    rdfizer_ = std::make_unique<Rdfizer>(cfg, &dict_, &vocab_);
    AisGeneratorConfig fleet;
    fleet.num_vessels = 8;
    fleet.duration = 30 * kMinute;
    traces_ = GenerateAisFleet(fleet);
    ObservationConfig obs;
    obs.fixed_interval_ms = 30 * kSecond;
    reports_ = ObserveFleet(traces_, obs);
    for (const auto& r : reports_) {
      const auto ts = rdfizer_->TransformReport(r);
      triples_.insert(triples_.end(), ts.begin(), ts.end());
    }
    scheme_ =
        HilbertPartitioner::Build(4, &rdfizer_->tags(), rdfizer_->grid());
    store_.Load(triples_, *scheme_, rdfizer_->grid(), vocab_.p_next_node);
    HashPartitioner single(1, &rdfizer_->tags());
    reference_.Load(triples_, single, rdfizer_->grid());
  }

  /// Star query: nodes of a given entity with their speed.
  Query NodeStarQuery(EntityId entity) {
    QueryBuilder qb;
    qb.Where("node", vocab_.p_of_entity, dict_.Intern(EntityIri(entity)));
    qb.WhereVar("node", vocab_.p_speed, "speed");
    return qb.Build();
  }

  std::set<std::vector<TermId>> RowSet(const ResultSet& rs) {
    return {rs.rows.begin(), rs.rows.end()};
  }

  TermDictionary dict_;
  Vocab vocab_;
  std::unique_ptr<Rdfizer> rdfizer_;
  std::vector<TruthTrace> traces_;
  std::vector<PositionReport> reports_;
  std::vector<Triple> triples_;
  std::unique_ptr<HilbertPartitioner> scheme_;
  PartitionedRdfStore store_;
  PartitionedRdfStore reference_;
};

TEST_F(QueryEngineTest, BuilderAssignsVariables) {
  QueryBuilder qb;
  qb.WhereVar("a", 1, "b");
  qb.WhereVar("b", 2, "c");
  const Query q = qb.Build();
  EXPECT_EQ(q.num_vars, 3);
  EXPECT_EQ(q.bgp.size(), 2u);
  EXPECT_EQ(q.bgp[0].o.var, q.bgp[1].s.var);  // "b" shared
}

TEST_F(QueryEngineTest, StarQueryLocalEqualsGlobalEqualsReference) {
  const Query q = NodeStarQuery(traces_[0].entity_id);
  QueryEngine part_engine(&store_, rdfizer_.get());
  QueryEngine ref_engine(&reference_, rdfizer_.get());
  const auto local = part_engine.ExecuteLocal(q);
  const auto global = part_engine.ExecuteGlobal(q);
  const auto ref = ref_engine.ExecuteLocal(q);
  EXPECT_FALSE(ref.rows.empty());
  EXPECT_EQ(RowSet(local), RowSet(ref));
  EXPECT_EQ(RowSet(global), RowSet(ref));
}

TEST_F(QueryEngineTest, TypeScanFindsAllVessels) {
  QueryBuilder qb;
  qb.Where("v", vocab_.p_type, vocab_.c_vessel);
  QueryEngine engine(&store_, rdfizer_.get());
  const auto rs = engine.ExecuteGlobal(qb.Build());
  EXPECT_EQ(rs.rows.size(), 8u);
}

TEST_F(QueryEngineTest, SpatialConstraintFiltersNodes) {
  // All nodes within a box, via constraint; verify against node_geo.
  // The box covers most of the region so the fleet surely intersects it.
  const BoundingBox box = BoundingBox::Of(35.3, 23.3, 38.7, 26.7);
  QueryBuilder qb;
  qb.Pattern(QueryTerm::Var(qb.Var("node")),
             QueryTerm::Bound(vocab_.p_type),
             QueryTerm::Bound(vocab_.c_position_node));
  qb.Within("node", box);
  QueryEngine engine(&store_, rdfizer_.get());
  const auto rs = engine.ExecuteGlobal(qb.Build());
  std::size_t expected = 0;
  for (const auto& [node, geo] : rdfizer_->node_geo()) {
    if (box.Contains(LatLon{geo.lat_deg, geo.lon_deg})) ++expected;
  }
  EXPECT_EQ(rs.rows.size(), expected);
  EXPECT_GT(expected, 0u);
}

TEST_F(QueryEngineTest, TemporalConstraintFiltersNodes) {
  const TimestampMs t0 = reports_.front().timestamp;
  const TimestampMs t1 = t0 + 10 * kMinute;
  QueryBuilder qb;
  qb.Pattern(QueryTerm::Var(qb.Var("node")),
             QueryTerm::Bound(vocab_.p_type),
             QueryTerm::Bound(vocab_.c_position_node));
  qb.During("node", t0, t1);
  QueryEngine engine(&store_, rdfizer_.get());
  const auto rs = engine.ExecuteGlobal(qb.Build());
  std::size_t expected = 0;
  for (const auto& [node, geo] : rdfizer_->node_geo()) {
    if (geo.timestamp >= t0 && geo.timestamp <= t1) ++expected;
  }
  EXPECT_EQ(rs.rows.size(), expected);
  EXPECT_GT(expected, 0u);
}

TEST_F(QueryEngineTest, GlobalCompletesCrossPartitionPaths) {
  // Path query: node -> next -> node; global must equal the reference.
  QueryBuilder qb;
  qb.WhereVar("a", vocab_.p_next_node, "b");
  QueryEngine part_engine(&store_, rdfizer_.get());
  QueryEngine ref_engine(&reference_, rdfizer_.get());
  const auto global = part_engine.ExecuteGlobal(qb.Build());
  const auto ref = ref_engine.ExecuteLocal(qb.Build());
  EXPECT_FALSE(ref.rows.empty());
  EXPECT_EQ(RowSet(global), RowSet(ref));
  // Local union misses the cross-partition edges (the known trade-off).
  const auto local = part_engine.ExecuteLocal(qb.Build());
  EXPECT_LE(local.rows.size(), ref.rows.size());
}

TEST_F(QueryEngineTest, ParallelExecutionMatchesSequential) {
  ThreadPool pool(4);
  const Query q = NodeStarQuery(traces_[1].entity_id);
  QueryEngine seq(&store_, rdfizer_.get(), nullptr);
  QueryEngine par(&store_, rdfizer_.get(), &pool);
  EXPECT_EQ(RowSet(seq.ExecuteLocal(q)), RowSet(par.ExecuteLocal(q)));
  EXPECT_EQ(RowSet(seq.ExecuteGlobal(q)), RowSet(par.ExecuteGlobal(q)));
}

TEST_F(QueryEngineTest, PruningReducesScannedPartitions) {
  // Constrain to a tiny region: fewer partitions scanned than total.
  QueryBuilder qb;
  qb.Pattern(QueryTerm::Var(qb.Var("node")),
             QueryTerm::Bound(vocab_.p_type),
             QueryTerm::Bound(vocab_.c_position_node));
  qb.Within("node", BoundingBox::Of(35.1, 23.1, 35.3, 23.3));
  QueryEngine engine(&store_, rdfizer_.get());
  const auto rs = engine.ExecuteLocal(qb.Build());
  EXPECT_LT(rs.stats.partitions_scanned, rs.stats.partitions_total);
}

TEST_F(QueryEngineTest, EmptyQueryGivesEmptyResult) {
  QueryEngine engine(&store_, rdfizer_.get());
  Query q;
  EXPECT_TRUE(engine.ExecuteLocal(q).rows.empty());
  EXPECT_TRUE(engine.ExecuteGlobal(q).rows.empty());
}

TEST_F(QueryEngineTest, UnsatisfiableQueryGivesNoRows) {
  QueryBuilder qb;
  qb.Where("v", vocab_.p_type, dict_.Intern("dc:NoSuchClass"));
  QueryEngine engine(&store_, rdfizer_.get());
  EXPECT_TRUE(engine.ExecuteGlobal(qb.Build()).rows.empty());
  EXPECT_TRUE(engine.ExecuteLocal(qb.Build()).rows.empty());
}

TEST_F(QueryEngineTest, InvertedBuilderRangesGiveNoRows) {
  // The parser rejects these ranges; built directly they must still give
  // empty results through every plan, never UB.
  const TimestampMs t0 = reports_.front().timestamp;
  const TimestampMs t1 = t0 + 10 * kMinute;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto type_query = [&](auto constrain) {
    QueryBuilder qb;
    qb.Pattern(QueryTerm::Var(qb.Var("node")),
               QueryTerm::Bound(vocab_.p_type),
               QueryTerm::Bound(vocab_.c_position_node));
    qb.WhereVar("node", vocab_.p_speed, "speed");
    constrain(&qb);
    return qb.Build();
  };
  const Query inverted_time =
      type_query([&](QueryBuilder* qb) { qb->During("node", t1, t0); });
  const Query inverted_box = type_query([](QueryBuilder* qb) {
    qb->Within("node", BoundingBox::Of(36.0, 25.0, 35.0, 24.0));
  });
  const Query nan_box = type_query([&](QueryBuilder* qb) {
    qb->Within("node", BoundingBox::Of(nan, 23.0, 37.0, nan));
  });
  const Query inverted_object_time = [&] {
    QueryBuilder qb;
    qb.WhereVar("a", vocab_.p_next_node, "b");
    qb.During("b", t1, t0);
    return qb.Build();
  }();
  ThreadPool pool(4);
  QueryEngine serial(&store_, rdfizer_.get());
  QueryEngine pooled(&store_, rdfizer_.get(), &pool);
  for (const Query* q :
       {&inverted_time, &inverted_box, &nan_box, &inverted_object_time}) {
    for (const QueryEngine* engine : {&serial, &pooled}) {
      EXPECT_TRUE(engine->ExecuteLocal(*q).rows.empty());
      EXPECT_TRUE(engine->ExecuteGlobal(*q).rows.empty());
    }
  }
  // An inverted DURING range is an empty time-index range: it is the
  // cheapest start, so partitions seed from it and find nothing.
  const auto rs = serial.ExecuteLocal(inverted_time);
  EXPECT_EQ(rs.stats.seed, QuerySeed::kTimeIndex);
  EXPECT_GT(rs.stats.time_seeds, 0u);
}

TEST(QueryPruningTest, GlobalPrunesEachPatternByItsOwnVariable) {
  // One vessel jumps from the south-west corner to the north-east one, so
  // its nodes land in two partitions with disjoint envelopes. The link
  // from the last south-west node to the first north-east node is stored
  // with its subject, in the south-west partition. A WITHIN on the link's
  // object must not prune that partition from the scan of a pattern
  // whose subject carries only a DURING.
  TermDictionary dict;
  Vocab vocab(&dict);
  Rdfizer rdfizer(Rdfizer::Config{}, &dict, &vocab);
  std::vector<Triple> triples;
  const double lats[] = {35.1, 35.2, 38.8, 38.9};
  const double lons[] = {23.1, 23.2, 26.8, 26.9};
  for (int i = 0; i < 4; ++i) {
    PositionReport r;
    r.entity_id = 7;
    r.timestamp = 1490000000000 + i * kMinute;
    r.position.lat_deg = lats[i];
    r.position.lon_deg = lons[i];
    const auto ts = rdfizer.TransformReport(r);
    triples.insert(triples.end(), ts.begin(), ts.end());
  }
  auto scheme = HilbertPartitioner::Build(2, &rdfizer.tags(), rdfizer.grid());
  PartitionedRdfStore store;
  store.Load(triples, *scheme, rdfizer.grid(), vocab.p_next_node);
  ASSERT_FALSE(store.meta(0).bbox.Intersects(store.meta(1).bbox));

  QueryBuilder qb;
  qb.WhereVar("a", vocab.p_next_node, "b");
  qb.During("a", 1490000000000, 1490000000000 + kHour);
  qb.Within("b", BoundingBox::Of(38.7, 26.7, 39.0, 27.0));
  QueryEngine engine(&store, &rdfizer);
  const auto rs = engine.ExecuteGlobal(qb.Build());
  // Node ordinals 0..3 follow the four reports' timestamps.
  const TermId sw2 = dict.Intern(PositionNodeIri(7, 1));
  const TermId ne1 = dict.Intern(PositionNodeIri(7, 2));
  const TermId ne2 = dict.Intern(PositionNodeIri(7, 3));
  EXPECT_EQ(std::set<std::vector<TermId>>(rs.rows.begin(), rs.rows.end()),
            (std::set<std::vector<TermId>>{{sw2, ne1}, {ne1, ne2}}));
}

TEST_F(QueryEngineTest, JoinAcrossThreePatterns) {
  // Vessel -> its trajectory nodes in an area with speed — a realistic
  // spatiotemporal analytical query.
  const BoundingBox box = BoundingBox::Of(35.5, 23.5, 38.5, 26.5);
  QueryBuilder qb;
  qb.Pattern(QueryTerm::Var(qb.Var("v")), QueryTerm::Bound(vocab_.p_type),
             QueryTerm::Bound(vocab_.c_vessel));
  qb.Pattern(QueryTerm::Var(qb.Var("node")),
             QueryTerm::Bound(vocab_.p_of_entity),
             QueryTerm::Var(qb.Var("v")));
  qb.WhereVar("node", vocab_.p_speed, "speed");
  qb.Within("node", box);
  QueryEngine part_engine(&store_, rdfizer_.get());
  QueryEngine ref_engine(&reference_, rdfizer_.get());
  const auto global = part_engine.ExecuteGlobal(qb.Build());
  const auto ref = ref_engine.ExecuteGlobal(qb.Build());
  EXPECT_EQ(RowSet(global), RowSet(ref));
  EXPECT_FALSE(global.rows.empty());
}

/// Brute-force BGP evaluation over `triples` (deduplicated): patterns in
/// query order, each a filter over every triple, constraints checked on
/// the full row. Rows come back sorted.
void BruteForceEval(const Query& q, const std::vector<Triple>& triples,
                    const std::unordered_map<TermId, NodeGeo>& geo,
                    std::size_t depth, const Binding& binding,
                    std::vector<Binding>* out) {
  if (depth == q.bgp.size()) {
    auto at = [&](int var) {
      auto it = geo.find(binding[var]);
      return it != geo.end() ? &it->second : nullptr;
    };
    for (const SpatialConstraint& c : q.spatial) {
      const NodeGeo* g = at(c.var);
      if (g == nullptr || !c.box.Contains(LatLon{g->lat_deg, g->lon_deg})) {
        return;
      }
    }
    for (const TemporalConstraint& c : q.temporal) {
      const NodeGeo* g = at(c.var);
      if (g == nullptr || g->timestamp < c.t_min || g->timestamp > c.t_max) {
        return;
      }
    }
    out->push_back(binding);
    return;
  }
  const QueryTriple& qt = q.bgp[depth];
  for (const Triple& t : triples) {
    if (!qt.p.IsVar() && qt.p.term != t.p) continue;
    Binding next = binding;
    auto bind = [&next](const QueryTerm& term, TermId value) {
      if (!term.IsVar()) return term.term == value;
      TermId& slot = next[term.var];
      if (slot == kInvalidTermId) slot = value;
      return slot == value;
    };
    if (bind(qt.s, t.s) && bind(qt.p, t.p) && bind(qt.o, t.o)) {
      BruteForceEval(q, triples, geo, depth + 1, next, out);
    }
  }
}

TEST_F(QueryEngineTest, E5QueriesMatchBruteForceAtEveryPartitionCount) {
  // The E5 path / join / hop shapes: their bind joins probe with the
  // subject bound (path, hop) or the object bound (join). Rows must equal
  // the brute-force answer at every partition count, and be identical —
  // same order, same plan, same probe count — at every pool size.
  const BoundingBox box = BoundingBox::Of(35.5, 23.5, 38.0, 26.0);
  const TimestampMs t0 = reports_.front().timestamp;
  const TimestampMs span = reports_.back().timestamp - t0;
  Query path, join, hop;
  {
    QueryBuilder qb;
    qb.WhereVar("a", vocab_.p_next_node, "b");
    qb.WhereVar("b", vocab_.p_next_node, "c");
    qb.Within("a", box);
    path = qb.Build();
  }
  {
    QueryBuilder qb;
    qb.Pattern(QueryTerm::Var(qb.Var("v")), QueryTerm::Bound(vocab_.p_type),
               QueryTerm::Bound(vocab_.c_vessel));
    qb.Pattern(QueryTerm::Var(qb.Var("node")),
               QueryTerm::Bound(vocab_.p_of_entity),
               QueryTerm::Var(qb.Var("v")));
    qb.WhereVar("node", vocab_.p_speed, "speed");
    qb.Within("node", box);
    join = qb.Build();
  }
  {
    QueryBuilder qb;
    qb.Where("a", vocab_.p_of_entity,
             dict_.Intern(EntityIri(traces_[0].entity_id)));
    qb.WhereVar("a", vocab_.p_next_node, "b");
    qb.WhereVar("b", vocab_.p_speed, "v");
    qb.During("a", t0 + span / 4, t0 + span * 3 / 4);
    hop = qb.Build();
  }
  struct Case {
    const char* name;
    const Query* query;
    bool subject_bound;  // every bind step binds the probe's subject
  };
  const Case cases[] = {
      {"path", &path, true}, {"join", &join, false}, {"hop", &hop, true}};

  std::vector<Triple> triples = triples_;
  std::sort(triples.begin(), triples.end(), [](const Triple& a,
                                               const Triple& b) {
    return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
  });
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());

  ThreadPool pool2(2);
  ThreadPool pool4(4);
  for (const Case& c : cases) {
    std::vector<Binding> expected;
    BruteForceEval(*c.query, triples, rdfizer_->node_geo(), 0,
                   Binding(static_cast<std::size_t>(c.query->num_vars),
                           kInvalidTermId),
                   &expected);
    std::sort(expected.begin(), expected.end());
    ASSERT_FALSE(expected.empty()) << c.name;
    for (const int k : {1, 2, 4, 8}) {
      std::vector<std::unique_ptr<PartitionScheme>> schemes;
      schemes.push_back(
          std::make_unique<HashPartitioner>(k, &rdfizer_->tags()));
      schemes.push_back(
          HilbertPartitioner::Build(k, &rdfizer_->tags(), rdfizer_->grid()));
      schemes.push_back(TemporalPartitioner::Build(k, &rdfizer_->tags()));
      for (const auto& scheme : schemes) {
        const std::string where =
            std::string(c.name) + " " + scheme->name() + " k=" +
            std::to_string(k);
        PartitionedRdfStore store;
        store.Load(triples_, *scheme, rdfizer_->grid(), vocab_.p_next_node);
        const QueryEngine serial(&store, rdfizer_.get());
        const ResultSet rs = serial.ExecuteGlobal(*c.query);
        std::vector<Binding> sorted = rs.rows;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, expected) << where;
        if (c.subject_bound) {
          EXPECT_LE(rs.stats.bind_probes, rs.stats.intermediate_rows)
              << where;
        }
        for (ThreadPool* pool : {&pool2, &pool4}) {
          const QueryEngine pooled(&store, rdfizer_.get(), pool);
          const ResultSet prs = pooled.ExecuteGlobal(*c.query);
          EXPECT_EQ(prs.rows, rs.rows) << where;
          EXPECT_EQ(prs.stats.join_kinds, rs.stats.join_kinds) << where;
          EXPECT_EQ(prs.stats.bind_probes, rs.stats.bind_probes) << where;
        }
      }
    }
  }
}

TEST_F(QueryEngineTest, SubjectBoundBindProbesOnlyTheHomePartition) {
  // One vessel's nodes, then their successors: the second pattern's
  // subject is bound by every accumulated row, so each row probes one
  // partition — never all of them.
  QueryBuilder qb;
  qb.Where("a", vocab_.p_of_entity,
           dict_.Intern(EntityIri(traces_[1].entity_id)));
  qb.WhereVar("a", vocab_.p_next_node, "b");
  const Query q = qb.Build();
  QueryEngine engine(&store_, rdfizer_.get());
  const ResultSet rs = engine.ExecuteGlobal(q);
  QueryEngine ref_engine(&reference_, rdfizer_.get());
  EXPECT_EQ(RowSet(rs), RowSet(ref_engine.ExecuteGlobal(q)));
  ASSERT_EQ(rs.stats.join_kinds, std::vector<JoinKind>{JoinKind::kBind});
  const std::size_t acc_rows =
      rs.stats.intermediate_rows - rs.stats.join_rows[0];
  EXPECT_GT(acc_rows, 0u);
  EXPECT_EQ(rs.stats.bind_probes, acc_rows);
}

class QueryFuzzTest : public QueryEngineTest,
                      public ::testing::WithParamInterface<int> {};

TEST_P(QueryFuzzTest, RandomBgpGlobalMatchesReference) {
  // Random 1-3 pattern conjunctive queries over the real vocabulary;
  // the partitioned global execution must agree with the single-store
  // reference on every one of them.
  Rng rng(4100 + GetParam());
  const std::vector<TermId> predicates = {
      vocab_.p_type,      vocab_.p_of_entity, vocab_.p_speed,
      vocab_.p_course,    vocab_.p_in_cell,   vocab_.p_in_bucket,
      vocab_.p_next_node, vocab_.p_has_node,
  };
  QueryBuilder qb;
  const int num_patterns = static_cast<int>(rng.UniformInt(1, 3));
  const char* vars[] = {"a", "b", "c", "d"};
  for (int i = 0; i < num_patterns; ++i) {
    const TermId pred =
        predicates[static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(predicates.size()) - 1))];
    // Subject: always a variable (possibly shared); object: variable or
    // a bound class/entity.
    const char* subj = vars[rng.UniformInt(0, 1)];
    if (rng.Bernoulli(0.5)) {
      qb.WhereVar(subj, pred, vars[rng.UniformInt(1, 3)]);
    } else {
      const TermId objects[] = {
          vocab_.c_position_node, vocab_.c_vessel,
          dict_.Intern(EntityIri(traces_[0].entity_id))};
      qb.Where(subj, pred, objects[rng.UniformInt(0, 2)]);
    }
  }
  if (rng.Bernoulli(0.4)) {
    qb.Within(vars[0], BoundingBox::Of(35.5, 23.5, 38.0, 26.0));
  }
  const Query q = qb.Build();

  QueryEngine part_engine(&store_, rdfizer_.get());
  QueryEngine ref_engine(&reference_, rdfizer_.get());
  const auto got = part_engine.ExecuteGlobal(q);
  const auto ref = ref_engine.ExecuteGlobal(q);
  EXPECT_EQ(RowSet(got), RowSet(ref)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryFuzzTest, ::testing::Range(0, 25));

TEST_F(QueryEngineTest, StatsPopulated) {
  const Query q = NodeStarQuery(traces_[2].entity_id);
  QueryEngine engine(&store_, rdfizer_.get());
  const auto rs = engine.ExecuteGlobal(q);
  EXPECT_EQ(rs.stats.result_rows, rs.rows.size());
  EXPECT_GT(rs.stats.partitions_total, 0);
  EXPECT_GE(rs.stats.wall_ms, 0.0);
  EXPECT_FALSE(rs.stats.ToString().empty());
}

}  // namespace
}  // namespace datacron
