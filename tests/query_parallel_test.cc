// Determinism and correctness of the parallel query executor: serial and
// pooled execution must return *byte-identical* row vectors (not just
// equal row sets) at every thread count, for every query class and both
// strategies. A differential test checks every plan the executor can
// pick (index-range or time-index seed, bind or hash join) against a
// brute-force evaluator. Plus unit tests for the open-addressing
// FlatHashMap / FlatHashSet the join path is built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/rng.h"
#include "common/time_utils.h"
#include "common/thread_pool.h"
#include "partition/partitioned_store.h"
#include "partition/partitioner.h"
#include "query/engine.h"
#include "query/query.h"
#include "rdf/rdfizer.h"
#include "sources/ais_generator.h"

namespace datacron {
namespace {

// ---------------------------------------------------------------------------
// FlatHashMap / FlatHashSet

TEST(FlatHashMapTest, InsertFindRoundTrip) {
  FlatHashMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  m[7] = 42;
  m[9] = 13;
  ASSERT_NE(m.Find(7), nullptr);
  EXPECT_EQ(*m.Find(7), 42);
  EXPECT_EQ(*m.Find(9), 13);
  EXPECT_EQ(m.Find(8), nullptr);
  EXPECT_EQ(m.size(), 2u);
  m[7] = 43;  // overwrite, not duplicate
  EXPECT_EQ(*m.Find(7), 43);
  EXPECT_EQ(m.size(), 2u);
}

TEST(FlatHashMapTest, GrowthPreservesAllEntries) {
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  Rng rng(991);
  std::vector<std::uint64_t> keys;
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 20000; ++i) {
    const auto k =
        static_cast<std::uint64_t>(rng.UniformInt(1, 1'000'000'000));
    if (!seen.insert(k).second) continue;
    keys.push_back(k);
    m[k] = k * 3;
  }
  EXPECT_EQ(m.size(), keys.size());
  EXPECT_GT(m.capacity(), 16u);  // many rehashes happened
  for (std::uint64_t k : keys) {
    ASSERT_NE(m.Find(k), nullptr) << k;
    EXPECT_EQ(*m.Find(k), k * 3);
  }
  // Capacity stays a power of two with load factor <= 3/4.
  EXPECT_EQ(m.capacity() & (m.capacity() - 1), 0u);
  EXPECT_LE(m.size() * 4, m.capacity() * 3);
}

TEST(FlatHashMapTest, CollidingKeysProbeLinearly) {
  // Dense sequential keys plus sparse huge keys force slot collisions at
  // every capacity; all entries must stay reachable (tombstone-free
  // probing never breaks a chain because nothing is ever deleted).
  FlatHashMap<std::uint64_t, int> m;
  for (std::uint64_t k = 1; k <= 4096; ++k) m[k] = static_cast<int>(k);
  for (std::uint64_t k = 1; k <= 4096; ++k) {
    ASSERT_NE(m.Find(k), nullptr) << k;
    EXPECT_EQ(*m.Find(k), static_cast<int>(k));
  }
  for (std::uint64_t k = 5000; k <= 6000; ++k) EXPECT_EQ(m.Find(k), nullptr);
}

TEST(FlatHashMapTest, ReserveAvoidsRehash) {
  FlatHashMap<std::uint64_t, int> m;
  m.Reserve(1000);
  const std::size_t cap = m.capacity();
  for (std::uint64_t k = 1; k <= 1000; ++k) m[k] = 1;
  EXPECT_EQ(m.capacity(), cap);
  EXPECT_EQ(m.size(), 1000u);
}

TEST(FlatHashMapTest, ForEachVisitsEverything) {
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  std::uint64_t want_sum = 0;
  for (std::uint64_t k = 1; k <= 500; ++k) {
    m[k * 977] = k;
    want_sum += k;
  }
  std::uint64_t got_sum = 0;
  std::size_t count = 0;
  m.ForEach([&](std::uint64_t key, std::uint64_t value) {
    EXPECT_EQ(key, value * 977);
    got_sum += value;
    ++count;
  });
  EXPECT_EQ(count, 500u);
  EXPECT_EQ(got_sum, want_sum);
}

TEST(FlatHashSetTest, InsertReportsNovelty) {
  FlatHashSet<TermId> s;
  EXPECT_TRUE(s.Insert(5));
  EXPECT_FALSE(s.Insert(5));
  EXPECT_TRUE(s.Insert(6));
  EXPECT_TRUE(s.Contains(5));
  EXPECT_TRUE(s.Contains(6));
  EXPECT_FALSE(s.Contains(7));
  EXPECT_EQ(s.size(), 2u);
}

// ---------------------------------------------------------------------------
// Parallel query determinism over an AIS workload

/// Fixture: a fleet RDF-ized into an 8-way Hilbert-partitioned store plus
/// a 1-partition reference store, and the three E5 query classes plus the
/// join-heavy analytical query.
class QueryParallelTest : public ::testing::Test {
 protected:
  QueryParallelTest() : vocab_(&dict_) {
    rdfizer_ = std::make_unique<Rdfizer>(Rdfizer::Config{}, &dict_, &vocab_);
    AisGeneratorConfig fleet;
    fleet.num_vessels = 10;
    fleet.duration = 20 * kMinute;
    traces_ = GenerateAisFleet(fleet);
    ObservationConfig obs;
    obs.fixed_interval_ms = 15 * kSecond;
    for (const auto& r : ObserveFleet(traces_, obs)) {
      const auto ts = rdfizer_->TransformReport(r);
      triples_.insert(triples_.end(), ts.begin(), ts.end());
    }
    scheme_ =
        HilbertPartitioner::Build(8, &rdfizer_->tags(), rdfizer_->grid());
    store_.Load(triples_, *scheme_, rdfizer_->grid(), vocab_.p_next_node);
    HashPartitioner single(1, &rdfizer_->tags());
    reference_.Load(triples_, single, rdfizer_->grid());

    {
      QueryBuilder qb;
      qb.Pattern(QueryTerm::Var(qb.Var("node")),
                 QueryTerm::Bound(vocab_.p_type),
                 QueryTerm::Bound(vocab_.c_position_node));
      qb.WhereVar("node", vocab_.p_speed, "speed");
      qb.Within("node", BoundingBox::Of(35.0, 23.0, 37.5, 25.5));
      spatial_query_ = qb.Build();
    }
    {
      QueryBuilder qb;
      qb.Where("node", vocab_.p_of_entity,
               dict_.Intern(EntityIri(traces_[0].entity_id)));
      qb.WhereVar("node", vocab_.p_speed, "speed");
      star_query_ = qb.Build();
    }
    {
      QueryBuilder qb;
      qb.WhereVar("a", vocab_.p_next_node, "b");
      qb.WhereVar("b", vocab_.p_next_node, "c");
      qb.Within("a", BoundingBox::Of(35.0, 23.0, 37.5, 25.5));
      path_query_ = qb.Build();
    }
    {
      QueryBuilder qb;
      qb.Pattern(QueryTerm::Var(qb.Var("v")),
                 QueryTerm::Bound(vocab_.p_type),
                 QueryTerm::Bound(vocab_.c_vessel));
      qb.Pattern(QueryTerm::Var(qb.Var("node")),
                 QueryTerm::Bound(vocab_.p_of_entity),
                 QueryTerm::Var(qb.Var("v")));
      qb.WhereVar("node", vocab_.p_speed, "speed");
      qb.Within("node", BoundingBox::Of(35.0, 23.0, 37.5, 25.5));
      join_query_ = qb.Build();
    }
  }

  std::vector<const Query*> AllQueries() const {
    return {&spatial_query_, &star_query_, &path_query_, &join_query_};
  }

  static std::set<Binding> RowSet(const ResultSet& rs) {
    return {rs.rows.begin(), rs.rows.end()};
  }

  TermDictionary dict_;
  Vocab vocab_;
  std::unique_ptr<Rdfizer> rdfizer_;
  std::vector<TruthTrace> traces_;
  std::vector<Triple> triples_;
  std::unique_ptr<HilbertPartitioner> scheme_;
  PartitionedRdfStore store_;
  PartitionedRdfStore reference_;
  Query spatial_query_, star_query_, path_query_, join_query_;
};

TEST_F(QueryParallelTest, RowsByteIdenticalAtEveryThreadCount) {
  QueryEngine serial(&store_, rdfizer_.get(), nullptr);
  const char* names[] = {"spatial", "star", "path", "join"};
  std::vector<ResultSet> want_local, want_global;
  for (const Query* q : AllQueries()) {
    want_local.push_back(serial.ExecuteLocal(*q));
    want_global.push_back(serial.ExecuteGlobal(*q));
  }
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    QueryEngine par(&store_, rdfizer_.get(), &pool);
    const auto queries = AllQueries();
    for (std::size_t i = 0; i < queries.size(); ++i) {
      // Exact vector equality: same rows in the same order, not a set
      // comparison — the determinism contract of the executor.
      EXPECT_EQ(par.ExecuteLocal(*queries[i]).rows, want_local[i].rows)
          << names[i] << " local, threads=" << threads;
      EXPECT_EQ(par.ExecuteGlobal(*queries[i]).rows, want_global[i].rows)
          << names[i] << " global, threads=" << threads;
    }
  }
}

TEST_F(QueryParallelTest, GlobalMatchesReferenceStore) {
  // The columnar packed-key join path must stay *complete*: global
  // execution on the partitioned store equals the 1-partition reference.
  ThreadPool pool(4);
  QueryEngine part_engine(&store_, rdfizer_.get(), &pool);
  QueryEngine ref_engine(&reference_, rdfizer_.get());
  for (const Query* q : AllQueries()) {
    const auto got = part_engine.ExecuteGlobal(*q);
    const auto ref = ref_engine.ExecuteGlobal(*q);
    EXPECT_EQ(RowSet(got), RowSet(ref));
    EXPECT_FALSE(ref.rows.empty());
  }
}

TEST_F(QueryParallelTest, LocalStarMatchesReference) {
  // Star queries are colocated under subject placement: the local union
  // must be complete and identical to the reference.
  ThreadPool pool(4);
  QueryEngine part_engine(&store_, rdfizer_.get(), &pool);
  QueryEngine ref_engine(&reference_, rdfizer_.get());
  EXPECT_EQ(RowSet(part_engine.ExecuteLocal(star_query_)),
            RowSet(ref_engine.ExecuteLocal(star_query_)));
}

TEST_F(QueryParallelTest, StageBreakdownPopulated) {
  QueryEngine engine(&store_, rdfizer_.get());
  const auto rs = engine.ExecuteGlobal(join_query_);
  EXPECT_FALSE(rs.rows.empty());
  // 3 patterns -> 2 joins, each recording its intermediate row count.
  EXPECT_EQ(rs.stats.join_rows.size(), 2u);
  EXPECT_GE(rs.stats.join_rows.back(), rs.stats.result_rows);
  EXPECT_GE(rs.stats.plan_ms, 0.0);
  EXPECT_GE(rs.stats.scan_ms, 0.0);
  EXPECT_GE(rs.stats.join_ms, 0.0);
  EXPECT_GE(rs.stats.filter_ms, 0.0);
  EXPECT_GE(rs.stats.wall_ms,
            rs.stats.scan_ms + rs.stats.join_ms + rs.stats.filter_ms);
  EXPECT_NE(rs.stats.ToString().find("join="), std::string::npos);
}

TEST_F(QueryParallelTest, PredicateExistenceSkipsPartitions) {
  // Every partition's predicate directory is populated by Load...
  for (int p = 0; p < store_.num_partitions(); ++p) {
    EXPECT_TRUE(store_.MightMatchPredicate(p, vocab_.p_type));
    EXPECT_TRUE(store_.MightMatchPredicate(p, kInvalidTermId));
  }
  // ...so a query over a predicate no partition stores scans nothing.
  QueryBuilder qb;
  qb.WhereVar("a", dict_.Intern("dc:noSuchPredicate"), "b");
  QueryEngine engine(&store_, rdfizer_.get());
  const auto local = engine.ExecuteLocal(qb.Build());
  EXPECT_TRUE(local.rows.empty());
  EXPECT_EQ(local.stats.partitions_scanned, 0);
  EXPECT_TRUE(engine.ExecuteGlobal(qb.Build()).rows.empty());
}

TEST_F(QueryParallelTest, LocalResultsIndependentOfPoolChunking) {
  // Run the same pooled query repeatedly: scheduling may differ run to
  // run, output must not.
  ThreadPool pool(8);
  QueryEngine par(&store_, rdfizer_.get(), &pool);
  const auto first = par.ExecuteGlobal(path_query_);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(par.ExecuteGlobal(path_query_).rows, first.rows) << i;
    EXPECT_EQ(par.ExecuteLocal(path_query_).rows,
              par.ExecuteLocal(path_query_).rows);
  }
}

TEST(QueryParallelLargeTest, StagesAboveThresholdRunOnPoolIdentically) {
  // Stages whose index count is below one pool chunk run on the calling
  // thread. This fleet is large enough that the local evaluation, the
  // scans and the hash joins go through the pool, and their rows must
  // still equal the serial rows exactly.
  TermDictionary dict;
  Vocab vocab(&dict);
  Rdfizer rdfizer(Rdfizer::Config{}, &dict, &vocab);
  AisGeneratorConfig fleet;
  fleet.num_vessels = 40;
  fleet.duration = 40 * kMinute;
  ObservationConfig obs;
  obs.fixed_interval_ms = 10 * kSecond;
  std::vector<Triple> triples;
  for (const auto& r : ObserveFleet(GenerateAisFleet(fleet), obs)) {
    const auto ts = rdfizer.TransformReport(r);
    triples.insert(triples.end(), ts.begin(), ts.end());
  }
  auto scheme = HilbertPartitioner::Build(8, &rdfizer.tags(), rdfizer.grid());
  PartitionedRdfStore store;
  store.Load(triples, *scheme, rdfizer.grid(), vocab.p_next_node);

  QueryBuilder local_qb;
  local_qb.Where("n", vocab.p_type, vocab.c_position_node);
  local_qb.WhereVar("n", vocab.p_speed, "s");
  local_qb.Within("n", fleet.region);
  const Query local_query = local_qb.Build();
  QueryBuilder global_qb;
  global_qb.WhereVar("a", vocab.p_next_node, "b");
  global_qb.WhereVar("b", vocab.p_speed, "v");
  const Query global_query = global_qb.Build();

  QueryEngine serial(&store, &rdfizer, nullptr);
  const ResultSet want_local = serial.ExecuteLocal(local_query);
  const ResultSet want_global = serial.ExecuteGlobal(global_query);
  ASSERT_GT(want_local.rows.size(), 4096u);
  ASSERT_GT(want_global.rows.size(), 4096u);
  for (std::size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    QueryEngine par(&store, &rdfizer, &pool);
    std::size_t tasks = pool.QueueWaitNanos().count();
    EXPECT_EQ(par.ExecuteLocal(local_query).rows, want_local.rows);
    EXPECT_GT(pool.QueueWaitNanos().count(), tasks) << threads;
    tasks = pool.QueueWaitNanos().count();
    EXPECT_EQ(par.ExecuteGlobal(global_query).rows, want_global.rows);
    EXPECT_GT(pool.QueueWaitNanos().count(), tasks) << threads;
  }
}

// ---------------------------------------------------------------------------
// Differential planner test

/// Brute-force BGP evaluation over a plain triple list: nested loops over
/// per-(predicate, subject) and per-(predicate, object) lists, with every
/// constraint checked on the finished row against the node geometry.
class BruteForceEvaluator {
 public:
  BruteForceEvaluator(std::vector<Triple> triples,
                      const std::unordered_map<TermId, NodeGeo>& geo)
      : geo_(geo) {
    std::sort(triples.begin(), triples.end(),
              [](const Triple& a, const Triple& b) {
                return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
              });
    triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
    for (const Triple& t : triples) {
      by_p_[t.p].push_back(t);
      by_ps_[{t.p, t.s}].push_back(t);
      by_po_[{t.p, t.o}].push_back(t);
    }
  }

  std::set<Binding> Eval(const Query& q) const {
    std::set<Binding> out;
    Binding b(static_cast<std::size_t>(q.num_vars), kInvalidTermId);
    Extend(q, 0, &b, &out);
    return out;
  }

 private:
  void Extend(const Query& q, std::size_t i, Binding* b,
              std::set<Binding>* out) const {
    if (i == q.bgp.size()) {
      if (Satisfies(q, *b)) out->insert(*b);
      return;
    }
    const QueryTriple& qt = q.bgp[i];
    auto val = [&](const QueryTerm& t) {
      return t.IsVar() ? (*b)[t.var] : t.term;
    };
    const TermId s = val(qt.s);
    const TermId p = val(qt.p);  // every generated pattern binds p
    const TermId o = val(qt.o);
    const std::vector<Triple>* list = nullptr;
    if (s != kInvalidTermId) {
      auto it = by_ps_.find({p, s});
      list = it == by_ps_.end() ? nullptr : &it->second;
    } else if (o != kInvalidTermId) {
      auto it = by_po_.find({p, o});
      list = it == by_po_.end() ? nullptr : &it->second;
    } else {
      auto it = by_p_.find(p);
      list = it == by_p_.end() ? nullptr : &it->second;
    }
    if (list == nullptr) return;
    for (const Triple& t : *list) {
      if ((s != kInvalidTermId && t.s != s) ||
          (o != kInvalidTermId && t.o != o)) {
        continue;
      }
      const Binding saved = *b;
      if (Bind(qt.s, t.s, b) && Bind(qt.p, t.p, b) && Bind(qt.o, t.o, b)) {
        Extend(q, i + 1, b, out);
      }
      *b = saved;
    }
  }

  static bool Bind(const QueryTerm& qt, TermId value, Binding* b) {
    if (!qt.IsVar()) return true;
    TermId& slot = (*b)[qt.var];
    if (slot != kInvalidTermId) return slot == value;
    slot = value;
    return true;
  }

  bool Satisfies(const Query& q, const Binding& b) const {
    for (const SpatialConstraint& c : q.spatial) {
      auto it = geo_.find(b[c.var]);
      if (it == geo_.end() ||
          !c.box.Contains(LatLon{it->second.lat_deg, it->second.lon_deg})) {
        return false;
      }
    }
    for (const TemporalConstraint& c : q.temporal) {
      auto it = geo_.find(b[c.var]);
      if (it == geo_.end() || it->second.timestamp < c.t_min ||
          it->second.timestamp > c.t_max) {
        return false;
      }
    }
    return true;
  }

  const std::unordered_map<TermId, NodeGeo>& geo_;
  std::map<TermId, std::vector<Triple>> by_p_;
  std::map<std::pair<TermId, TermId>, std::vector<Triple>> by_ps_;
  std::map<std::pair<TermId, TermId>, std::vector<Triple>> by_po_;
};

/// One generated query and what the executor may promise about it.
struct PlannerCase {
  Query query;
  std::string label;
  /// Every match's triples share one subject, so ExecuteLocal is complete.
  bool star = false;
  /// The DURING variable is never a subject: no partition may seed from
  /// its time index, which lists subjects.
  bool object_only_during = false;
};

class PlannerDifferentialTest : public QueryParallelTest {
 protected:
  PlannerDifferentialTest() : brute_(triples_, rdfizer_->node_geo()) {
    for (const auto& [node, geo] : rdfizer_->node_geo()) {
      t_lo_ = std::min(t_lo_, geo.timestamp);
      t_hi_ = std::max(t_hi_, geo.timestamp);
      region_.Extend(LatLon{geo.lat_deg, geo.lon_deg});
    }
  }

  /// A time window covering `share` of the data span (0 = empty, before
  /// the data; 1 = the full span), placed at random.
  std::pair<TimestampMs, TimestampMs> Window(Rng* rng, double share) const {
    if (share <= 0.0) return {t_lo_ - 2 * kHour, t_lo_ - kHour};
    const auto len = static_cast<TimestampMs>(
        share * static_cast<double>(t_hi_ - t_lo_));
    const TimestampMs begin = rng->UniformInt(t_lo_, t_hi_ - len);
    return {begin, begin + len};
  }

  /// A box covering `share` of the data region on each axis (0 = empty,
  /// away from the data; 1 = the whole region), placed at random.
  BoundingBox Box(Rng* rng, double share) const {
    if (share <= 0.0) return BoundingBox::Of(-10.0, -10.0, -9.0, -9.0);
    const double h = share * (region_.max_lat - region_.min_lat);
    const double w = share * (region_.max_lon - region_.min_lon);
    const double lat = rng->Uniform(region_.min_lat, region_.max_lat - h);
    const double lon = rng->Uniform(region_.min_lon, region_.max_lon - w);
    return BoundingBox::Of(lat, lon, lat + h, lon + w);
  }

  /// Random stars, 2-hop paths and 3-pattern joins, with WITHIN/DURING on
  /// subject variables and on object-only variables.
  std::vector<PlannerCase> RandomCases(std::uint64_t seed, int count) {
    static constexpr double kShares[] = {0.0, 0.02, 0.1, 0.3, 0.6, 1.0};
    Rng rng(seed);
    auto share = [&] { return kShares[rng.UniformInt(0, 5)]; };
    auto vessel = [&] {
      return dict_.Intern(
          EntityIri(traces_[rng.UniformInt(0, traces_.size() - 1)]
                        .entity_id));
    };
    std::vector<PlannerCase> out;
    for (int i = 0; i < count; ++i) {
      QueryBuilder qb;
      PlannerCase c;
      std::vector<std::string> vars;  // variables a constraint may name
      switch (i % 6) {
        case 0:  // star on a bound vessel
          c.label = "star/entity";
          c.star = true;
          qb.Where("n", vocab_.p_of_entity, vessel());
          qb.WhereVar("n", vocab_.p_speed, "s");
          vars = {"n"};
          break;
        case 1:  // star on the type index
          c.label = "star/type";
          c.star = true;
          qb.Where("n", vocab_.p_type, vocab_.c_position_node);
          qb.WhereVar("n", vocab_.p_course, "c");
          vars = {"n"};
          break;
        case 2:  // 2-hop path from a bound vessel
          c.label = "path/entity";
          qb.Where("a", vocab_.p_of_entity, vessel());
          qb.WhereVar("a", vocab_.p_next_node, "b");
          qb.WhereVar("b", vocab_.p_speed, "v");
          vars = {"a", "b"};
          break;
        case 3:  // 2-hop path; b is an object only
          c.label = "path/object-only";
          qb.WhereVar("a", vocab_.p_next_node, "b");
          qb.WhereVar("a", vocab_.p_speed, "v");
          vars = {"a", "b"};
          break;
        case 4:  // 3-pattern join through the vessel
          c.label = "join/vessel";
          qb.Where("v", vocab_.p_type, vocab_.c_vessel);
          qb.Pattern(QueryTerm::Var(qb.Var("n")),
                     QueryTerm::Bound(vocab_.p_of_entity),
                     QueryTerm::Var(qb.Var("v")));
          qb.WhereVar("n", vocab_.p_speed, "s");
          vars = {"n", "n", "v"};
          break;
        default:  // trajectory membership: n is an object, maybe only
          c.label = "join/trajectory";
          qb.Pattern(QueryTerm::Var(qb.Var("t")),
                     QueryTerm::Bound(vocab_.p_has_node),
                     QueryTerm::Var(qb.Var("n")));
          if (rng.Bernoulli(0.5)) qb.WhereVar("n", vocab_.p_speed, "s");
          vars = {"n", "n", "t"};
          break;
      }
      auto pick = [&] { return vars[rng.UniformInt(0, vars.size() - 1)]; };
      const int constraints = static_cast<int>(rng.UniformInt(1, 3));
      std::string during_var;
      if (constraints & 1) {
        during_var = pick();
        const auto [t0, t1] = Window(&rng, share());
        qb.During(during_var, t0, t1);
      }
      if (constraints & 2) qb.Within(pick(), Box(&rng, share()));
      c.query = qb.Build();
      if (!during_var.empty()) {
        const int var = qb.Var(during_var);
        c.object_only_during = std::none_of(
            c.query.bgp.begin(), c.query.bgp.end(),
            [var](const QueryTriple& qt) { return qt.s.var == var; });
      }
      out.push_back(std::move(c));
    }
    return out;
  }

  BruteForceEvaluator brute_;
  TimestampMs t_lo_ = std::numeric_limits<TimestampMs>::max();
  TimestampMs t_hi_ = std::numeric_limits<TimestampMs>::min();
  BoundingBox region_ = BoundingBox::Empty();
};

TEST_F(PlannerDifferentialTest, EveryPlanMatchesBruteForce) {
  const std::vector<PlannerCase> cases = RandomCases(20240917, 120);
  QueryEngine serial(&store_, rdfizer_.get(), nullptr);
  std::vector<std::unique_ptr<ThreadPool>> pools;
  std::vector<std::unique_ptr<QueryEngine>> pooled;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
    pooled.push_back(std::make_unique<QueryEngine>(&store_, rdfizer_.get(),
                                                   pools.back().get()));
  }
  std::size_t nonempty = 0, seeded = 0, bound = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const PlannerCase& c = cases[i];
    SCOPED_TRACE(c.label + " #" + std::to_string(i));
    const std::set<Binding> want = brute_.Eval(c.query);
    const ResultSet local = serial.ExecuteLocal(c.query);
    const ResultSet global = serial.ExecuteGlobal(c.query);
    EXPECT_EQ(RowSet(global), want) << global.stats.ToString();
    const std::set<Binding> local_rows = RowSet(local);
    if (c.star) {
      EXPECT_EQ(local_rows, want) << local.stats.ToString();
    } else {
      EXPECT_TRUE(std::includes(want.begin(), want.end(), local_rows.begin(),
                                local_rows.end()));
    }
    if (c.object_only_during) {
      EXPECT_EQ(local.stats.time_seeds, 0u);
    }
    for (const auto& engine : pooled) {
      EXPECT_EQ(engine->ExecuteLocal(c.query).rows, local.rows);
      EXPECT_EQ(engine->ExecuteGlobal(c.query).rows, global.rows);
    }
    nonempty += want.empty() ? 0 : 1;
    seeded += local.stats.time_seeds > 0 ? 1 : 0;
    bound += std::count(global.stats.join_kinds.begin(),
                        global.stats.join_kinds.end(), JoinKind::kBind) > 0;
  }
  // The generator must reach every plan, and not only empty answers.
  EXPECT_GT(nonempty, cases.size() / 3);
  EXPECT_GT(seeded, 0u);
  EXPECT_GT(bound, 0u);
}

TEST_F(PlannerDifferentialTest, SelectivePathTakesBindJoins) {
  const TimestampMs span = t_hi_ - t_lo_;
  QueryBuilder qb;
  qb.Where("a", vocab_.p_of_entity,
           dict_.Intern(EntityIri(traces_[0].entity_id)));
  qb.WhereVar("a", vocab_.p_next_node, "b");
  qb.WhereVar("b", vocab_.p_speed, "v");
  qb.During("a", t_lo_ + span * 4 / 10, t_lo_ + span * 5 / 10);
  const Query q = qb.Build();
  QueryEngine engine(&store_, rdfizer_.get());
  const ResultSet rs = engine.ExecuteGlobal(q);
  EXPECT_EQ(RowSet(rs), brute_.Eval(q));
  ASSERT_GT(rs.stats.result_rows, 0u);
  EXPECT_EQ(rs.stats.join_kinds,
            (std::vector<JoinKind>{JoinKind::kBind, JoinKind::kBind}))
      << rs.stats.ToString();
  EXPECT_GT(rs.stats.bind_probes, 0u);
  EXPECT_LT(rs.stats.intermediate_rows, 4 * rs.stats.result_rows)
      << rs.stats.ToString();
  EXPECT_NE(rs.stats.ToString().find("join_kinds=[bind,bind]"),
            std::string::npos);

  // The same path with WITHIN on ?b, which the first bind join binds: a
  // box over the southern half of the answer's ?b nodes must filter
  // there, since no later scan re-checks ?b.
  std::vector<double> lats;
  for (const Binding& row : rs.rows) {
    lats.push_back(rdfizer_->node_geo().at(row[qb.Var("b")]).lat_deg);
  }
  std::sort(lats.begin(), lats.end());
  qb.Within("b", BoundingBox::Of(lats.front(), region_.min_lon,
                                 lats[lats.size() / 2], region_.max_lon));
  const Query boxed = qb.Build();
  const ResultSet boxed_rs = engine.ExecuteGlobal(boxed);
  EXPECT_EQ(RowSet(boxed_rs), brute_.Eval(boxed));
  EXPECT_LT(boxed_rs.stats.result_rows, rs.stats.result_rows);
  EXPECT_EQ(boxed_rs.stats.join_kinds,
            (std::vector<JoinKind>{JoinKind::kBind, JoinKind::kBind}));
}

TEST_F(PlannerDifferentialTest, NarrowTypeQueryTakesTimeSeed) {
  const TimestampMs span = t_hi_ - t_lo_;
  QueryBuilder qb;
  qb.Where("n", vocab_.p_type, vocab_.c_position_node);
  qb.During("n", t_lo_ + span / 2, t_lo_ + span / 2 + span / 20);
  qb.Within("n", region_);
  const Query q = qb.Build();
  QueryEngine engine(&store_, rdfizer_.get());
  const ResultSet rs = engine.ExecuteLocal(q);
  EXPECT_EQ(RowSet(rs), brute_.Eval(q));
  EXPECT_FALSE(rs.rows.empty());
  EXPECT_EQ(rs.stats.seed, QuerySeed::kTimeIndex);
  EXPECT_EQ(rs.stats.time_seeds,
            static_cast<std::size_t>(rs.stats.partitions_scanned));
  EXPECT_NE(rs.stats.ToString().find("seed=time"), std::string::npos);
}

}  // namespace
}  // namespace datacron
