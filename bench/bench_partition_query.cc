// E5 — RDF partitioning schemes and parallel spatiotemporal querying.
//
// Paper claim: "parallel query processing techniques for spatio-temporal
// query languages over interlinked data stored in parallel RDF stores,
// using sophisticated RDF partitioning algorithms".
//
// For each scheme x partition count: load-balance, locality
// (cross-partition sequence edges), partition pruning on a spatially
// selective query, and wall time of three query classes in local and
// global execution, sequential vs. thread pool. A second section sweeps
// the pool size on the join-heavy global queries, verifying byte-identical
// results at every thread count and attributing wall time per stage. A
// third times selective spatiotemporal queries (vessel track, WITHIN/
// DURING type scan, 2-hop path) and prints the plan each one took.
//
// Emits BENCH_query.json: every measured (query, strategy, scheme, k,
// threads) cell with wall and per-stage milliseconds and the plan (seed
// kind, join kinds, bind probes). `--quick` shrinks
// the fleet for CI smoke runs.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/time_utils.h"
#include "obs/metrics.h"
#include "partition/partitioned_store.h"
#include "partition/partitioner.h"
#include "query/engine.h"
#include "rdf/rdfizer.h"
#include "sources/ais_generator.h"
#include "bench_nproc.h"

namespace datacron {
namespace {

struct Workload {
  TermDictionary dict;
  std::unique_ptr<Vocab> vocab;
  std::unique_ptr<Rdfizer> rdfizer;
  std::vector<Triple> triples;
  Query spatial_query;
  Query star_query;
  Query path_query;
  Query join_query;
  // Selective spatiotemporal queries in the shapes of the perfbench
  // store-query mix: a vessel track, a WITHIN/DURING type scan and a
  // 2-hop path from one vessel over a time window.
  Query track_query;
  Query st_scan_query;
  Query hop_query;
};

std::unique_ptr<Workload> BuildWorkload(bool quick) {
  auto w = std::make_unique<Workload>();
  w->vocab = std::make_unique<Vocab>(&w->dict);
  w->rdfizer = std::make_unique<Rdfizer>(Rdfizer::Config{}, &w->dict,
                                         w->vocab.get());
  AisGeneratorConfig fleet;
  fleet.num_vessels = quick ? 24 : 80;
  fleet.duration = (quick ? 30 : 90) * kMinute;
  ObservationConfig obs;
  obs.fixed_interval_ms = 10 * kSecond;
  for (const auto& r : ObserveFleet(GenerateAisFleet(fleet), obs)) {
    const auto ts = w->rdfizer->TransformReport(r);
    w->triples.insert(w->triples.end(), ts.begin(), ts.end());
  }

  {
    QueryBuilder qb;
    qb.Pattern(QueryTerm::Var(qb.Var("node")),
               QueryTerm::Bound(w->vocab->p_type),
               QueryTerm::Bound(w->vocab->c_position_node));
    qb.WhereVar("node", w->vocab->p_speed, "speed");
    qb.Within("node", BoundingBox::Of(35.2, 23.2, 36.2, 24.2));
    w->spatial_query = qb.Build();
  }
  {
    QueryBuilder qb;
    qb.Where("node", w->vocab->p_of_entity,
             w->dict.Intern(EntityIri(200000005)));
    qb.WhereVar("node", w->vocab->p_speed, "speed");
    w->star_query = qb.Build();
  }
  {
    // Two-hop path: completeness under local execution now depends on
    // consecutive nodes being colocated — the locality the spatial
    // schemes buy and hash cannot.
    QueryBuilder qb;
    qb.WhereVar("a", w->vocab->p_next_node, "b");
    qb.WhereVar("b", w->vocab->p_next_node, "c");
    qb.Within("a", BoundingBox::Of(35.2, 23.2, 36.2, 24.2));
    w->path_query = qb.Build();
  }
  {
    // Join-heavy analytical query: every vessel joined to its in-area
    // position nodes with speed — three patterns, two hash joins over
    // fleet-sized intermediates.
    QueryBuilder qb;
    qb.Pattern(QueryTerm::Var(qb.Var("v")),
               QueryTerm::Bound(w->vocab->p_type),
               QueryTerm::Bound(w->vocab->c_vessel));
    qb.Pattern(QueryTerm::Var(qb.Var("node")),
               QueryTerm::Bound(w->vocab->p_of_entity),
               QueryTerm::Var(qb.Var("v")));
    qb.WhereVar("node", w->vocab->p_speed, "speed");
    qb.Within("node", BoundingBox::Of(35.2, 23.2, 36.2, 24.2));
    w->join_query = qb.Build();
  }
  const TimestampMs t0 = fleet.start_time;
  const TimestampMs span = fleet.duration;
  const TermId vessel = w->dict.Intern(EntityIri(200000005));
  {
    QueryBuilder qb;
    qb.Where("node", w->vocab->p_of_entity, vessel);
    qb.WhereVar("node", w->vocab->p_speed, "speed");
    qb.Within("node", BoundingBox::Of(38.0, 23.0, 39.0, 24.0));
    qb.During("node", t0 + span / 4, t0 + span * 3 / 4);
    w->track_query = qb.Build();
  }
  {
    QueryBuilder qb;
    qb.Where("node", w->vocab->p_type, w->vocab->c_position_node);
    qb.Within("node", BoundingBox::Of(35.2, 23.2, 36.2, 24.2));
    qb.During("node", t0 + span / 2, t0 + span / 2 + span / 8);
    w->st_scan_query = qb.Build();
  }
  {
    QueryBuilder qb;
    qb.Where("a", w->vocab->p_of_entity, vessel);
    qb.WhereVar("a", w->vocab->p_next_node, "b");
    qb.WhereVar("b", w->vocab->p_speed, "v");
    qb.During("a", t0 + span / 4, t0 + span * 3 / 4);
    w->hop_query = qb.Build();
  }
  return w;
}

/// One measured cell of the JSON report. threads == 0 means "no pool"
/// (pure sequential engine).
struct BenchRecord {
  std::string query, strategy, scheme;
  int k = 0;
  int threads = 0;
  QueryExecStats stats;
};

std::vector<BenchRecord> g_records;

void Record(const std::string& query, const std::string& strategy,
            const std::string& scheme, int k, int threads,
            const QueryExecStats& stats) {
  g_records.push_back({query, strategy, scheme, k, threads, stats});
}

void WriteJson(const char* path, std::size_t triples) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"experiment\": \"E5_query\",\n");
  std::fprintf(f, "  \"nproc\": %u,\n", Nproc());
  std::fprintf(f, "  \"triples\": %zu,\n  \"records\": [\n", triples);
  for (std::size_t i = 0; i < g_records.size(); ++i) {
    const BenchRecord& r = g_records[i];
    std::fprintf(
        f,
        "    {\"query\": \"%s\", \"strategy\": \"%s\", \"scheme\": \"%s\", "
        "\"k\": %d, \"threads\": %d, \"wall_ms\": %.4f, \"plan_ms\": %.4f, "
        "\"scan_ms\": %.4f, \"join_ms\": %.4f, \"filter_ms\": %.4f, "
        "\"result_rows\": %zu, \"intermediate_rows\": %zu, \"seed\": "
        "\"%s\", \"time_seeds\": %zu, \"bind_probes\": %zu, "
        "\"join_rows\": [",
        r.query.c_str(), r.strategy.c_str(), r.scheme.c_str(), r.k,
        r.threads, r.stats.wall_ms, r.stats.plan_ms, r.stats.scan_ms,
        r.stats.join_ms, r.stats.filter_ms, r.stats.result_rows,
        r.stats.intermediate_rows,
        r.stats.seed == QuerySeed::kTimeIndex ? "time" : "index",
        r.stats.time_seeds, r.stats.bind_probes);
    for (std::size_t j = 0; j < r.stats.join_rows.size(); ++j) {
      std::fprintf(f, "%s%zu", j ? ", " : "", r.stats.join_rows[j]);
    }
    std::fprintf(f, "], \"join_kinds\": [");
    for (std::size_t j = 0; j < r.stats.join_kinds.size(); ++j) {
      std::fprintf(f, "%s\"%s\"", j ? ", " : "",
                   r.stats.join_kinds[j] == JoinKind::kBind ? "bind"
                                                            : "hash");
    }
    std::fprintf(f, "]}%s\n", i + 1 < g_records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu records)\n", path, g_records.size());
}

/// Best-of-reps wall time; the stats of the best run land in *out.
double TimeMs(const std::function<QueryExecStats()>& fn, QueryExecStats* out,
              int reps = 3) {
  double best = 1e18;
  for (int i = 0; i < reps; ++i) {
    Stopwatch t;
    const QueryExecStats stats = fn();
    const double ms = t.ElapsedMillis();
    if (ms < best) {
      best = ms;
      if (out != nullptr) *out = stats;
    }
  }
  return best;
}

void RunScheme(const Workload& w, const PartitionScheme& scheme,
               ThreadPool* pool) {
  PartitionedRdfStore store;
  store.Load(w.triples, scheme, w.rdfizer->grid(), w.vocab->p_next_node);
  const int k = scheme.num_partitions();

  QueryEngine seq(&store, w.rdfizer.get(), nullptr);
  QueryEngine par(&store, w.rdfizer.get(), pool);
  const int pool_threads = static_cast<int>(pool->num_threads());

  const auto pruned = seq.PrunedPartitions(w.spatial_query);
  std::size_t path_rows_local = 0, path_rows_global = 0;
  QueryExecStats st;
  auto measure = [&](const Query& q, const QueryEngine& engine,
                     bool global, const char* name, int threads) {
    const double ms = TimeMs(
        [&] {
          const ResultSet rs =
              global ? engine.ExecuteGlobal(q) : engine.ExecuteLocal(q);
          return rs.stats;
        },
        &st);
    Record(name, global ? "global" : "local", scheme.name(), k, threads,
           st);
    return ms;
  };

  const double spatial_seq =
      measure(w.spatial_query, seq, false, "spatial", 0);
  const double spatial_par =
      measure(w.spatial_query, par, false, "spatial", pool_threads);
  const double star_seq = measure(w.star_query, seq, false, "star", 0);
  const double path_local = measure(w.path_query, seq, false, "path", 0);
  const double path_global = measure(w.path_query, seq, true, "path", 0);
  path_rows_global = st.result_rows;
  path_rows_local = seq.ExecuteLocal(w.path_query).stats.result_rows;
  const double join_global = measure(w.join_query, seq, true, "join", 0);

  std::printf(
      "%-15s %3d %8.3f %10.1f%% %6zu/%-3d %10.2f %10.2f %10.3f %10.2f "
      "%10.2f %10.2f %8.0f%%\n",
      scheme.name().c_str(), k, store.stats().balance_factor,
      100.0 * store.stats().cross_partition_edge_ratio, pruned.size(),
      store.num_partitions(), spatial_seq, spatial_par, star_seq,
      path_local, path_global, join_global,
      path_rows_global ? 100.0 * path_rows_local / path_rows_global : 0.0);
}

/// Thread sweep on the global-strategy join-heavy queries over the
/// Hilbert k=8 store: serial baseline vs pool of 1/2/4/8 workers, with
/// the determinism contract enforced (pooled rows must be byte-identical
/// to serial rows). Returns false on a determinism violation.
bool JoinSweep(const Workload& w) {
  auto scheme =
      HilbertPartitioner::Build(8, &w.rdfizer->tags(), w.rdfizer->grid());
  PartitionedRdfStore store;
  store.Load(w.triples, *scheme, w.rdfizer->grid(), w.vocab->p_next_node);
  QueryEngine seq(&store, w.rdfizer.get(), nullptr);

  struct Case {
    const char* name;
    const Query* query;
  };
  const Case cases[] = {{"join", &w.join_query}, {"path", &w.path_query}};

  std::printf(
      "\nE5b: global join sweep, hilbert k=8 (byte-identical at every "
      "thread count)\n");
  std::printf("%-6s %8s %10s %9s %9s %9s %9s %9s %9s\n", "query", "threads",
              "rows", "wall_ms", "plan_ms", "scan_ms", "join_ms",
              "filter_ms", "speedup");
  bool ok = true;
  for (const Case& c : cases) {
    QueryExecStats st;
    const ResultSet serial_rs = seq.ExecuteGlobal(*c.query);
    const double serial_ms =
        TimeMs([&] { return seq.ExecuteGlobal(*c.query).stats; }, &st);
    Record(c.name, "global", "hilbert", 8, 0, st);
    std::printf("%-6s %8s %10zu %9.2f %9.3f %9.2f %9.2f %9.3f %9s\n",
                c.name, "serial", serial_rs.rows.size(), serial_ms,
                st.plan_ms, st.scan_ms, st.join_ms, st.filter_ms, "1.0x");
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(threads);
      QueryEngine par(&store, w.rdfizer.get(), &pool);
      const ResultSet pooled_rs = par.ExecuteGlobal(*c.query);
      if (pooled_rs.rows != serial_rs.rows) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: %s global differs at %zu "
                     "threads\n",
                     c.name, threads);
        ok = false;
      }
      const double ms =
          TimeMs([&] { return par.ExecuteGlobal(*c.query).stats; }, &st);
      Record(c.name, "global", "hilbert", 8,
             static_cast<int>(threads), st);
      std::printf("%-6s %8zu %10zu %9.2f %9.3f %9.2f %9.2f %9.3f %8.1fx\n",
                  c.name, threads, pooled_rs.rows.size(), ms, st.plan_ms,
                  st.scan_ms, st.join_ms, st.filter_ms, serial_ms / ms);
    }
  }
  return ok;
}

/// Selective spatiotemporal queries over the Hilbert k=8 store, serial and
/// at 4 pool threads: the plans that start from the time index or bind-
/// join from one vessel's nodes. Returns false when pooled rows differ
/// from serial rows.
bool SelectiveQueries(const Workload& w, ThreadPool* pool) {
  auto scheme =
      HilbertPartitioner::Build(8, &w.rdfizer->tags(), w.rdfizer->grid());
  PartitionedRdfStore store;
  store.Load(w.triples, *scheme, w.rdfizer->grid(), w.vocab->p_next_node);
  QueryEngine seq(&store, w.rdfizer.get(), nullptr);
  QueryEngine par(&store, w.rdfizer.get(), pool);
  const int pool_threads = static_cast<int>(pool->num_threads());

  struct Case {
    const char* name;
    const Query* query;
    bool global;
  };
  const Case cases[] = {{"track", &w.track_query, false},
                        {"st_scan", &w.st_scan_query, false},
                        {"hop", &w.hop_query, true}};
  std::printf("\nE5c: selective spatiotemporal queries, hilbert k=8\n");
  std::printf("%-8s %-7s %6s %10s %10s %10s  %s\n", "query", "strategy",
              "rows", "serial_ms", "pooled_ms", "intermed", "plan");
  bool ok = true;
  for (const Case& c : cases) {
    auto run = [&](const QueryEngine& engine) {
      return c.global ? engine.ExecuteGlobal(*c.query)
                      : engine.ExecuteLocal(*c.query);
    };
    const ResultSet serial_rs = run(seq);
    if (run(par).rows != serial_rs.rows) {
      std::fprintf(stderr, "DETERMINISM VIOLATION: %s differs pooled\n",
                   c.name);
      ok = false;
    }
    const char* strategy = c.global ? "global" : "local";
    QueryExecStats st;
    const double serial_ms = TimeMs([&] { return run(seq).stats; }, &st, 20);
    Record(c.name, strategy, "hilbert", 8, 0, st);
    const double pooled_ms = TimeMs([&] { return run(par).stats; }, &st, 20);
    Record(c.name, strategy, "hilbert", 8, pool_threads, st);
    std::string joins;
    for (const JoinKind kind : st.join_kinds) {
      joins += kind == JoinKind::kBind ? " bind" : " hash";
    }
    std::printf("%-8s %-7s %6zu %10.3f %10.3f %10zu  seed=%s%s\n", c.name,
                strategy, serial_rs.rows.size(), serial_ms, pooled_ms,
                st.intermediate_rows,
                st.seed == QuerySeed::kTimeIndex ? "time" : "index",
                joins.c_str());
  }
  return ok;
}

}  // namespace

int Run(bool quick) {
  auto w = BuildWorkload(quick);
  ThreadPool pool(4);
  std::printf("E5: partitioning & parallel query (%zu triples%s)\n",
              w->triples.size(), quick ? ", quick" : "");
  std::printf(
      "%-15s %3s %8s %10s %10s %10s %10s %10s %10s %10s %10s %9s\n",
      "scheme", "k", "balance", "cross_edge", "pruned", "spatial_ms",
      "spatialP_ms", "star_ms", "pathL_ms", "pathG_ms", "joinG_ms",
      "localcompl");

  for (int k : {2, 4, 8}) {
    HashPartitioner hash(k, &w->rdfizer->tags());
    RunScheme(*w, hash, &pool);
    GridPartitioner grid(k, &w->rdfizer->tags(), w->rdfizer->grid());
    RunScheme(*w, grid, &pool);
    auto hilbert =
        HilbertPartitioner::Build(k, &w->rdfizer->tags(), w->rdfizer->grid());
    RunScheme(*w, *hilbert, &pool);
    auto temporal = TemporalPartitioner::Build(k, &w->rdfizer->tags());
    RunScheme(*w, *temporal, &pool);
    if (k >= 4) {
      auto st = SpatioTemporalPartitioner::Build(2, k / 2,
                                                 &w->rdfizer->tags(),
                                                 w->rdfizer->grid());
      RunScheme(*w, *st, &pool);
    }
  }

  const bool sweep_ok = JoinSweep(*w);
  const bool ok = SelectiveQueries(*w, &pool) && sweep_ok;
  WriteJson("BENCH_query.json", w->triples.size());

  // Companion snapshot of the process-wide metrics the sweep produced
  // (query.local/query.global counts, pool.queue_ns, ...).
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  snap.AddHistogram("pool.queue_ns", pool.QueueWaitNanos());
  if (std::FILE* f = std::fopen("BENCH_query_metrics.json", "w")) {
    const std::string json = snap.ToJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote BENCH_query_metrics.json\n");
  }
  return ok ? 0 : 1;
}

}  // namespace datacron

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  return datacron::Run(quick);
}
