#include "query/engine.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/strings.h"
#include "common/time_utils.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace datacron {

std::string QueryExecStats::ToString() const {
  std::string joins;
  for (const JoinKind kind : join_kinds) {
    joins += joins.empty() ? "" : ",";
    joins += kind == JoinKind::kBind ? "bind" : "hash";
  }
  return StrFormat(
      "partitions=%d/%d intermediate=%zu results=%zu wall=%.3fms "
      "(plan=%.3f scan=%.3f join=%.3f filter=%.3fms joins=%zu) "
      "seed=%s time_seeds=%zu join_kinds=[%s] bind_probes=%zu",
      partitions_scanned, partitions_total, intermediate_rows, result_rows,
      wall_ms, plan_ms, scan_ms, join_ms, filter_ms, join_rows.size(),
      seed == QuerySeed::kTimeIndex ? "time" : "index", time_seeds,
      joins.c_str(), bind_probes);
}

QueryEngine::QueryEngine(const PartitionedRdfStore* store,
                         const Rdfizer* rdfizer, ThreadPool* pool)
    : store_(store), rdfizer_(rdfizer), pool_(pool) {
  geo_.Reserve(rdfizer->node_geo().size());
  for (const auto& [node, geo] : rdfizer->node_geo()) geo_[node] = geo;
  // The time index lists each partition's distinct geo-tagged subjects:
  // a match whose subject variable binds node n in partition p has n as
  // a subject there.
  time_index_.resize(static_cast<std::size_t>(store->num_partitions()));
  for (std::size_t i = 0; i < time_index_.size(); ++i) {
    std::vector<TimedNode>& nodes = time_index_[i];
    TermId last = kInvalidTermId;
    for (const Triple& t :
         store_->partition(static_cast<int>(i)).Range(TriplePattern{})) {
      if (t.s == last) continue;
      last = t.s;
      if (const NodeGeo* g = geo_.Find(t.s)) {
        nodes.push_back({g->timestamp, t.s, g->lat_deg, g->lon_deg});
      }
    }
    std::sort(nodes.begin(), nodes.end(),
              [](const TimedNode& a, const TimedNode& b) {
                return a.t != b.t ? a.t < b.t : a.node < b.node;
              });
  }
}

namespace {

/// Substitutes current bindings into a pattern, producing a concrete
/// TriplePattern plus the variable index for each still-free position.
struct ResolvedPattern {
  TriplePattern concrete;
  int var_s = -1, var_p = -1, var_o = -1;
};

ResolvedPattern Resolve(const QueryTriple& qt, const Binding& binding) {
  ResolvedPattern r;
  auto resolve_one = [&binding](const QueryTerm& t, TermId* slot, int* var) {
    if (!t.IsVar()) {
      *slot = t.term;
    } else if (binding[t.var] != kInvalidTermId) {
      *slot = binding[t.var];
    } else {
      *var = t.var;
    }
  };
  resolve_one(qt.s, &r.concrete.s, &r.var_s);
  resolve_one(qt.p, &r.concrete.p, &r.var_p);
  resolve_one(qt.o, &r.concrete.o, &r.var_o);
  return r;
}

/// Binds the free positions of `rp` from a matched triple; returns false
/// when a repeated variable binds inconsistently. A pattern has at most 3
/// free positions, so the newly-bound set is a fixed stack array (the
/// caller unbinds `newly_bound[0..*num_newly)` afterwards either way).
bool BindMatch(const ResolvedPattern& rp, const Triple& t, Binding* binding,
               int newly_bound[3], int* num_newly) {
  auto bind_one = [&](int var, TermId value) {
    if (var < 0) return true;
    TermId& slot = (*binding)[var];
    if (slot == kInvalidTermId) {
      slot = value;
      newly_bound[(*num_newly)++] = var;
      return true;
    }
    return slot == value;
  };
  return bind_one(rp.var_s, t.s) && bind_one(rp.var_p, t.p) &&
         bind_one(rp.var_o, t.o);
}

/// Below this many rows a chunk is not worth a pool task. A scan or a
/// partition-local evaluation whose index count at its start is below it
/// runs on the calling thread: waking pool workers would cost more than
/// the work. Outputs concatenate in a fixed order either way.
constexpr std::size_t kMinRowsPerChunk = 4096;

/// Deterministic chunking: how many probe/filter chunks to cut `n` rows
/// into. The count may depend on the pool size — chunk outputs are always
/// concatenated in chunk order, so results are identical for any value.
/// Chunk count is work-proportional so small tables never pay task
/// overhead.
std::size_t NumChunks(std::size_t n, ThreadPool* pool) {
  if (n == 0) return 0;
  if (pool == nullptr || pool->num_threads() < 2) return 1;
  return std::max<std::size_t>(
      1, std::min(n / kMinRowsPerChunk, pool->num_threads() * 4));
}

void RunChunks(std::size_t chunks, ThreadPool* pool,
               const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr && chunks > 1) {
    pool->ParallelFor(chunks, fn);
  } else {
    for (std::size_t i = 0; i < chunks; ++i) fn(i);
  }
}

/// Columnar binding table of one pattern / join result: only the bound
/// variables as columns, rows stored row-major in one flat TermId array.
struct ColumnTable {
  std::vector<int> vars;      // sorted distinct variable indices
  std::vector<TermId> cells;  // rows * vars.size() entries
  std::size_t rows = 0;

  std::size_t width() const { return vars.size(); }
  const TermId* Row(std::size_t r) const {
    return cells.data() + r * vars.size();
  }
};

int ColumnOf(const std::vector<int>& vars, int var) {
  for (std::size_t i = 0; i < vars.size(); ++i) {
    if (vars[i] == var) return static_cast<int>(i);
  }
  return -1;
}

bool SharesVar(const std::vector<int>& a, const std::vector<int>& b) {
  for (int v : a) {
    if (ColumnOf(b, v) >= 0) return true;
  }
  return false;
}

/// Packs the join-key columns of a row into one u64: a single shared
/// variable is the TermId itself (exact); multiple shared variables are
/// hash-mixed (probes re-verify the actual values).
std::uint64_t PackKey(const TermId* row, const int* cols, std::size_t n) {
  if (n == 1) return row[cols[0]];
  std::uint64_t k = 0;
  for (std::size_t i = 0; i < n; ++i) k = MixU64(k ^ row[cols[i]]);
  return k;
}

constexpr std::uint32_t kChainEnd = 0xffffffffu;
/// Build-side shard count under a pool. Must stay a power of two; shard
/// selection uses the top 3 mix bits so it never correlates with the
/// FlatHashMap slot index (low mix bits).
constexpr std::size_t kJoinShards = 8;
/// Below this many build rows a single serial map build beats sharding.
constexpr std::size_t kMinShardedBuildRows = 16384;

std::size_t ShardOf(std::uint64_t key) { return MixU64(key) >> 61; }

/// Hash-joins two columnar tables on their shared vars (cartesian when
/// none). The smaller table is the build side. Deterministic at any
/// thread count: output rows are ordered by probe row index, then build
/// row index — because the build side chains its rows in row order
/// (sharded by key, not by arrival) and probe chunks concatenate in
/// chunk order.
ColumnTable JoinTables(const ColumnTable& left, const ColumnTable& right,
                       ThreadPool* pool) {
  ColumnTable out;
  out.vars = left.vars;
  for (int v : right.vars) {
    if (ColumnOf(out.vars, v) < 0) out.vars.push_back(v);
  }
  std::sort(out.vars.begin(), out.vars.end());
  const std::size_t ow = out.width();

  // The smaller table builds the hash map, the larger probes it. The
  // choice depends only on row counts, never on scheduling.
  const bool build_is_left = left.rows < right.rows;
  const ColumnTable& build = build_is_left ? left : right;
  const ColumnTable& probe = build_is_left ? right : left;

  std::vector<int> out_from_probe(ow), out_from_build(ow);
  for (std::size_t c = 0; c < ow; ++c) {
    out_from_probe[c] = ColumnOf(probe.vars, out.vars[c]);
    out_from_build[c] = ColumnOf(build.vars, out.vars[c]);
  }
  std::vector<int> pshared, bshared;
  for (std::size_t c = 0; c < probe.vars.size(); ++c) {
    const int bc = ColumnOf(build.vars, probe.vars[c]);
    if (bc >= 0) {
      pshared.push_back(static_cast<int>(c));
      bshared.push_back(bc);
    }
  }
  const std::size_t nshared = pshared.size();

  // Build side: packed key per row, then disjoint open-addressing maps
  // built in parallel (one per key shard). Each map chains its rows in
  // ascending row order through `next` (disjoint writes across shards).
  std::vector<std::uint64_t> bkeys(build.rows);
  {
    const std::size_t chunks = NumChunks(build.rows, pool);
    const std::size_t per =
        chunks ? (build.rows + chunks - 1) / chunks : 0;
    RunChunks(chunks, pool, [&](std::size_t c) {
      const std::size_t begin = c * per;
      const std::size_t end = std::min(build.rows, begin + per);
      for (std::size_t r = begin; r < end; ++r) {
        bkeys[r] = PackKey(build.Row(r), bshared.data(), nshared);
      }
    });
  }
  struct Chain {
    std::uint32_t head = kChainEnd;
    std::uint32_t tail = kChainEnd;
  };
  const std::size_t shards = (pool != nullptr && pool->num_threads() >= 2 &&
                              build.rows >= kMinShardedBuildRows)
                                 ? kJoinShards
                                 : 1;
  std::vector<FlatHashMap<std::uint64_t, Chain>> maps(shards);
  std::vector<std::uint32_t> next(build.rows, kChainEnd);
  RunChunks(shards, pool, [&](std::size_t s) {
    FlatHashMap<std::uint64_t, Chain>& m = maps[s];
    for (std::size_t r = 0; r < build.rows; ++r) {
      const std::uint64_t key = bkeys[r];
      if (shards > 1 && ShardOf(key) != s) continue;
      Chain& ch = m[key];
      const auto r32 = static_cast<std::uint32_t>(r);
      if (ch.head == kChainEnd) {
        ch.head = r32;
      } else {
        next[ch.tail] = r32;
      }
      ch.tail = r32;
    }
  });

  // Probe side: chunked over rows, chunk outputs concatenated in chunk
  // order = global probe-row order.
  const std::size_t chunks = NumChunks(probe.rows, pool);
  std::vector<std::vector<TermId>> chunk_cells(chunks);
  std::vector<std::size_t> chunk_rows(chunks, 0);
  const std::size_t per = chunks ? (probe.rows + chunks - 1) / chunks : 0;
  RunChunks(chunks, pool, [&](std::size_t c) {
    std::vector<TermId>& cells = chunk_cells[c];
    std::size_t emitted = 0;
    const std::size_t begin = c * per;
    const std::size_t end = std::min(probe.rows, begin + per);
    for (std::size_t r = begin; r < end; ++r) {
      const TermId* prow = probe.Row(r);
      const std::uint64_t key = PackKey(prow, pshared.data(), nshared);
      const Chain* ch = maps[shards > 1 ? ShardOf(key) : 0].Find(key);
      if (ch == nullptr) continue;
      for (std::uint32_t bi = ch->head; bi != kChainEnd; bi = next[bi]) {
        const TermId* brow = build.Row(bi);
        if (nshared > 1) {
          // Mixed keys can collide across distinct tuples — re-verify.
          bool eq = true;
          for (std::size_t i = 0; i < nshared; ++i) {
            if (prow[pshared[i]] != brow[bshared[i]]) {
              eq = false;
              break;
            }
          }
          if (!eq) continue;
        }
        for (std::size_t oc = 0; oc < ow; ++oc) {
          cells.push_back(out_from_probe[oc] >= 0
                              ? prow[out_from_probe[oc]]
                              : brow[out_from_build[oc]]);
        }
        ++emitted;
      }
    }
    chunk_rows[c] = emitted;
  });
  for (std::size_t c = 0; c < chunks; ++c) out.rows += chunk_rows[c];
  out.cells.reserve(out.rows * ow);
  for (std::size_t c = 0; c < chunks; ++c) {
    out.cells.insert(out.cells.end(), chunk_cells[c].begin(),
                     chunk_cells[c].end());
  }
  return out;
}

/// True when `value` satisfies every spatial and temporal constraint on
/// `var` (vacuously when `var` carries none). At most one geo lookup.
bool ValueSatisfies(const Query& query, int var, TermId value,
                    const FlatHashMap<TermId, NodeGeo>& geo) {
  const NodeGeo* g = nullptr;
  auto found = [&] {
    if (g == nullptr) g = geo.Find(value);
    return g != nullptr;
  };
  for (const SpatialConstraint& c : query.spatial) {
    if (c.var != var) continue;
    if (!found() || !c.box.Contains(LatLon{g->lat_deg, g->lon_deg})) {
      return false;
    }
  }
  for (const TemporalConstraint& c : query.temporal) {
    if (c.var != var) continue;
    if (!found() || g->timestamp < c.t_min || g->timestamp > c.t_max) {
      return false;
    }
  }
  return true;
}

bool IsConstrained(const Query& query, int var) {
  for (const SpatialConstraint& c : query.spatial) {
    if (c.var == var) return true;
  }
  for (const TemporalConstraint& c : query.temporal) {
    if (c.var == var) return true;
  }
  return false;
}

/// False when `query` provably matches nothing: an empty BGP, a constant
/// the dictionary does not hold, or a constraint on a variable the BGP
/// never mentions (both strategies check a constraint when its variable
/// binds, and every result row binds every BGP variable, so such a
/// constraint holds for no row).
bool CanMatch(const Query& query) {
  if (query.bgp.empty() || query.unsatisfiable) return false;
  auto mentioned = [&query](int var) {
    for (const QueryTriple& qt : query.bgp) {
      if (qt.s.var == var || qt.p.var == var || qt.o.var == var) return true;
    }
    return false;
  };
  for (const SpatialConstraint& c : query.spatial) {
    if (!mentioned(c.var)) return false;
  }
  for (const TemporalConstraint& c : query.temporal) {
    if (!mentioned(c.var)) return false;
  }
  return true;
}

/// Greedy static order of BGP patterns: cheapest (by `cost`) first, then
/// prefer patterns sharing a variable with what is already bound.
/// `seed_var` (or -1) is bound before the first pattern.
std::vector<int> PlanOrder(const Query& query,
                           const std::vector<std::size_t>& cost,
                           int seed_var) {
  const std::size_t n = query.bgp.size();
  std::vector<bool> used(n, false);
  std::vector<bool> var_bound(static_cast<std::size_t>(query.num_vars),
                              false);
  if (seed_var >= 0) var_bound[seed_var] = true;
  auto shares_var = [&](const QueryTriple& qt) {
    return (qt.s.IsVar() && var_bound[qt.s.var]) ||
           (qt.p.IsVar() && var_bound[qt.p.var]) ||
           (qt.o.IsVar() && var_bound[qt.o.var]);
  };
  auto mark_vars = [&](const QueryTriple& qt) {
    if (qt.s.IsVar()) var_bound[qt.s.var] = true;
    if (qt.p.IsVar()) var_bound[qt.p.var] = true;
    if (qt.o.IsVar()) var_bound[qt.o.var] = true;
  };
  std::vector<int> order;
  order.reserve(n);
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t best = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      if (best == n) {
        best = i;
        continue;
      }
      const bool i_shares = shares_var(query.bgp[i]);
      const bool b_shares = shares_var(query.bgp[best]);
      if (i_shares != b_shares) {
        if (i_shares) best = i;
        continue;
      }
      if (cost[i] < cost[best]) best = i;
    }
    used[best] = true;
    mark_vars(query.bgp[best]);
    order.push_back(static_cast<int>(best));
  }
  return order;
}

/// Everything precomputed about one pattern before its partition scans
/// and probes: the resolved pattern, its narrow column layout, and the
/// columns whose constraints are checked as they bind.
struct PatternScanSpec {
  ResolvedPattern rp;
  std::vector<int> vars;  // sorted distinct free variables
  int col_s = -1, col_p = -1, col_o = -1;
  /// Columns whose variable carries a spatial or temporal constraint.
  std::vector<int> constrained_cols;
};

PatternScanSpec MakeScanSpec(const QueryTriple& qt, const Query& query,
                             const Binding& empty) {
  PatternScanSpec spec;
  spec.rp = Resolve(qt, empty);
  auto add_var = [&spec](int var) {
    if (var >= 0 && ColumnOf(spec.vars, var) < 0) spec.vars.push_back(var);
  };
  add_var(spec.rp.var_s);
  add_var(spec.rp.var_p);
  add_var(spec.rp.var_o);
  std::sort(spec.vars.begin(), spec.vars.end());
  spec.col_s = spec.rp.var_s >= 0 ? ColumnOf(spec.vars, spec.rp.var_s) : -1;
  spec.col_p = spec.rp.var_p >= 0 ? ColumnOf(spec.vars, spec.rp.var_p) : -1;
  spec.col_o = spec.rp.var_o >= 0 ? ColumnOf(spec.vars, spec.rp.var_o) : -1;
  for (std::size_t col = 0; col < spec.vars.size(); ++col) {
    if (IsConstrained(query, spec.vars[col])) {
      spec.constrained_cols.push_back(static_cast<int>(col));
    }
  }
  return spec;
}

/// Scans one pattern within one partition, appending narrow rows to
/// `cells`; returns the number of rows emitted. Rows failing a constraint
/// on one of their columns are dropped here.
std::size_t ScanPatternPartition(const TripleStore& part,
                                 const PatternScanSpec& spec,
                                 const Query& query,
                                 const FlatHashMap<TermId, NodeGeo>& geo,
                                 std::vector<TermId>* cells) {
  const std::size_t w = spec.vars.size();
  std::size_t emitted = 0;
  for (const Triple& t : part.Range(spec.rp.concrete)) {
    TermId row[3] = {kInvalidTermId, kInvalidTermId, kInvalidTermId};
    bool ok = true;
    auto put = [&row, &ok](int col, TermId v) {
      if (col < 0) return;
      if (row[col] == kInvalidTermId) {
        row[col] = v;
      } else if (row[col] != v) {
        ok = false;  // repeated variable bound inconsistently
      }
    };
    put(spec.col_s, t.s);
    put(spec.col_p, t.p);
    put(spec.col_o, t.o);
    for (std::size_t i = 0; ok && i < spec.constrained_cols.size(); ++i) {
      const int col = spec.constrained_cols[i];
      ok = ValueSatisfies(query, spec.vars[col], row[col], geo);
    }
    if (!ok) continue;
    for (std::size_t i = 0; i < w; ++i) cells->push_back(row[i]);
    ++emitted;
  }
  return emitted;
}

/// A bind join costs about this many index probes' worth of work per
/// partition probe, relative to scanning one triple. ExecuteGlobal
/// bind-joins a pattern when its probe count × kBindProbeCost is below the
/// pattern's index count: acc.rows probes when the probe binds the
/// subject (SubjectRouted), acc.rows × candidate partitions otherwise.
constexpr std::size_t kBindProbeCost = 4;

/// True when every bind probe of `spec` from rows of `acc` binds the
/// subject — a constant, or a variable `acc` carries — so it can only
/// match in the subject's home partition.
bool SubjectRouted(const ColumnTable& acc, const PatternScanSpec& spec) {
  return spec.rp.concrete.s != kInvalidTermId ||
         ColumnOf(acc.vars, spec.rp.var_s) >= 0;
}

/// Bind (index nested loop) join: extends every row of `acc` through the
/// pattern of `spec` by substituting the row's values into the pattern and
/// probing it in each partition of `parts` — or, when the probe binds the
/// subject, only in the subject's home partition, skipping the row when
/// that partition is not in `parts`. Newly bound variables have their
/// constraints checked as they bind. Rows come out ordered by acc row,
/// then partition, then index order (a routed probe skips only partitions
/// holding no triple of its subject, so the order is the same); acc chunks
/// concatenate in chunk order, so the table is identical at any thread
/// count. Adds the partition probes issued to `*probes`.
ColumnTable BindJoin(const ColumnTable& acc, const PatternScanSpec& spec,
                     const std::vector<int>& parts,
                     const PartitionedRdfStore& store, const Query& query,
                     const FlatHashMap<TermId, NodeGeo>& geo,
                     ThreadPool* pool, std::size_t* probes) {
  ColumnTable out;
  out.vars = acc.vars;
  for (int v : spec.vars) {
    if (ColumnOf(out.vars, v) < 0) out.vars.push_back(v);
  }
  std::sort(out.vars.begin(), out.vars.end());
  const std::size_t ow = out.width();
  std::vector<int> out_from_acc(ow);
  std::vector<int> checked;  // new output columns carrying a constraint
  for (std::size_t c = 0; c < ow; ++c) {
    out_from_acc[c] = ColumnOf(acc.vars, out.vars[c]);
    if (out_from_acc[c] < 0 && IsConstrained(query, out.vars[c])) {
      checked.push_back(static_cast<int>(c));
    }
  }
  // Per pattern position: the acc column substituted into the probe, or
  // the output column the matched term fills.
  const int pos_var[3] = {spec.rp.var_s, spec.rp.var_p, spec.rp.var_o};
  int pos_acc[3] = {-1, -1, -1};
  int pos_out[3] = {-1, -1, -1};
  for (int i = 0; i < 3; ++i) {
    if (pos_var[i] < 0) continue;
    pos_acc[i] = ColumnOf(acc.vars, pos_var[i]);
    if (pos_acc[i] < 0) pos_out[i] = ColumnOf(out.vars, pos_var[i]);
  }
  const bool routed = SubjectRouted(acc, spec);
  std::vector<char> candidate(
      static_cast<std::size_t>(store.num_partitions()), 0);
  for (int part : parts) candidate[part] = 1;

  const std::size_t chunks = NumChunks(acc.rows, pool);
  std::vector<std::vector<TermId>> chunk_cells(chunks);
  std::vector<std::size_t> chunk_rows(chunks, 0);
  std::vector<std::size_t> chunk_probes(chunks, 0);
  const std::size_t per = chunks ? (acc.rows + chunks - 1) / chunks : 0;
  RunChunks(chunks, pool, [&](std::size_t c) {
    std::vector<TermId>& cells = chunk_cells[c];
    std::vector<TermId> row(ow);
    const std::size_t begin = c * per;
    const std::size_t end = std::min(acc.rows, begin + per);
    for (std::size_t r = begin; r < end; ++r) {
      const TermId* arow = acc.Row(r);
      TriplePattern probe = spec.rp.concrete;
      TermId* probe_pos[3] = {&probe.s, &probe.p, &probe.o};
      for (int i = 0; i < 3; ++i) {
        if (pos_acc[i] >= 0) *probe_pos[i] = arow[pos_acc[i]];
      }
      std::span<const int> targets = parts;
      int home = -1;
      if (routed) {
        home = store.HomeOf(probe.s);
        targets = home >= 0 && candidate[home] ? std::span<const int>(&home, 1)
                                               : std::span<const int>();
      }
      chunk_probes[c] += targets.size();
      for (int part : targets) {
        for (const Triple& t : store.partition(part).Range(probe)) {
          const TermId matched[3] = {t.s, t.p, t.o};
          for (std::size_t oc = 0; oc < ow; ++oc) {
            row[oc] = out_from_acc[oc] >= 0 ? arow[out_from_acc[oc]]
                                            : kInvalidTermId;
          }
          bool ok = true;
          for (int i = 0; ok && i < 3; ++i) {
            if (pos_out[i] < 0) continue;
            TermId& cell = row[pos_out[i]];
            if (cell == kInvalidTermId) {
              cell = matched[i];
            } else {
              ok = cell == matched[i];  // repeated variable
            }
          }
          for (std::size_t i = 0; ok && i < checked.size(); ++i) {
            ok = ValueSatisfies(query, out.vars[checked[i]], row[checked[i]],
                                geo);
          }
          if (!ok) continue;
          cells.insert(cells.end(), row.begin(), row.end());
          ++chunk_rows[c];
        }
      }
    }
  });
  for (std::size_t c = 0; c < chunks; ++c) {
    out.rows += chunk_rows[c];
    *probes += chunk_probes[c];
  }
  out.cells.reserve(out.rows * ow);
  for (std::size_t c = 0; c < chunks; ++c) {
    out.cells.insert(out.cells.end(), chunk_cells[c].begin(),
                     chunk_cells[c].end());
  }
  return out;
}

}  // namespace

void QueryEngine::Extend(const TripleStore& store, const Query& query,
                         const std::vector<int>& pattern_order,
                         std::size_t depth, Binding* binding,
                         std::vector<Binding>* out) const {
  if (depth == pattern_order.size()) {
    out->push_back(*binding);
    return;
  }
  const QueryTriple& qt = query.bgp[pattern_order[depth]];
  const ResolvedPattern rp = Resolve(qt, *binding);
  for (const Triple& t : store.Range(rp.concrete)) {
    int newly_bound[3];
    int num_newly = 0;
    bool ok = BindMatch(rp, t, binding, newly_bound, &num_newly);
    // Each constraint is checked once, when its variable binds.
    for (int i = 0; ok && i < num_newly; ++i) {
      ok = ValueSatisfies(query, newly_bound[i], (*binding)[newly_bound[i]],
                          geo_);
    }
    if (ok) Extend(store, query, pattern_order, depth + 1, binding, out);
    for (int i = 0; i < num_newly; ++i) {
      (*binding)[newly_bound[i]] = kInvalidTermId;
    }
  }
}

QueryEngine::PartitionPlan QueryEngine::PlanPartition(
    int part, const Query& query) const {
  PartitionPlan plan;
  plan.part = part;
  const TripleStore& store = store_->partition(part);
  const Binding empty(static_cast<std::size_t>(query.num_vars),
                      kInvalidTermId);
  std::vector<std::size_t> cost(query.bgp.size());
  for (std::size_t i = 0; i < cost.size(); ++i) {
    cost[i] = store.Count(Resolve(query.bgp[i], empty).concrete);
  }
  const std::size_t cheapest = *std::min_element(cost.begin(), cost.end());

  // The time-seed candidate: the DURING variable with the narrowest time
  // range here, among variables that are the subject of some pattern (the
  // time index lists this partition's subjects only).
  const std::vector<TimedNode>& nodes = time_index_[part];
  auto time_range = [&nodes](const TemporalConstraint& c) {
    const auto lo = std::partition_point(
        nodes.begin(), nodes.end(),
        [&c](const TimedNode& n) { return n.t < c.t_min; });
    // Searching from `lo` keeps the range empty, never negative, when
    // t_min > t_max.
    const auto hi = std::partition_point(
        lo, nodes.end(), [&c](const TimedNode& n) { return n.t <= c.t_max; });
    return std::span<const TimedNode>(lo, hi);
  };
  auto is_subject = [&query](int var) {
    for (const QueryTriple& qt : query.bgp) {
      if (qt.s.var == var) return true;
    }
    return false;
  };
  plan.start_rows = cheapest;
  for (const TemporalConstraint& c : query.temporal) {
    if (!is_subject(c.var)) continue;
    const std::span<const TimedNode> range = time_range(c);
    if (range.size() < plan.start_rows) {
      plan.seed_var = c.var;
      plan.seeds = range;
      plan.start_rows = range.size();
    }
  }
  plan.order = PlanOrder(query, cost, plan.seed_var);
  return plan;
}

void QueryEngine::EvalPartition(const PartitionPlan& plan,
                                const Query& query,
                                std::vector<Binding>* out) const {
  const TripleStore& store = store_->partition(plan.part);
  Binding binding(static_cast<std::size_t>(query.num_vars), kInvalidTermId);
  if (plan.seed_var < 0) {
    Extend(store, query, plan.order, 0, &binding, out);
    return;
  }
  const int var = plan.seed_var;
  for (const TimedNode& n : plan.seeds) {
    bool ok = true;
    for (const SpatialConstraint& c : query.spatial) {
      if (c.var == var && !c.box.Contains(LatLon{n.lat_deg, n.lon_deg})) {
        ok = false;
      }
    }
    for (const TemporalConstraint& c : query.temporal) {
      if (c.var == var && (n.t < c.t_min || n.t > c.t_max)) ok = false;
    }
    if (!ok) continue;
    binding[var] = n.node;
    Extend(store, query, plan.order, 0, &binding, out);
  }
}

std::vector<int> QueryEngine::PrunedPartitions(const Query& query,
                                               int var) const {
  std::vector<int> out;
  for (int i = 0; i < store_->num_partitions(); ++i) {
    const PartitionMeta& m = store_->meta(i);
    bool keep = true;
    if (m.tagged_resources > 0) {
      for (const SpatialConstraint& c : query.spatial) {
        if (var >= 0 && c.var != var) continue;
        if (!m.bbox.IsEmpty() && !m.bbox.Intersects(c.box)) {
          keep = false;
          break;
        }
      }
      if (keep && m.HasTimeRange()) {
        for (const TemporalConstraint& c : query.temporal) {
          if (var >= 0 && c.var != var) continue;
          const std::int64_t lo = rdfizer_->BucketOf(c.t_min);
          const std::int64_t hi = rdfizer_->BucketOf(c.t_max);
          if (m.max_bucket < lo || m.min_bucket > hi) {
            keep = false;
            break;
          }
        }
      }
    }
    if (keep) out.push_back(i);
  }
  return out;
}

ResultSet QueryEngine::ExecuteLocal(const Query& query) const {
  static obs::Counter* queries =
      obs::MetricsRegistry::Global().counter("query.local");
  static obs::Counter* time_seeds =
      obs::MetricsRegistry::Global().counter("query.time_seeds");
  queries->Add();
  Stopwatch timer;
  ResultSet rs;
  rs.stats.partitions_total = store_->num_partitions();

  Stopwatch plan_timer;
  obs::TraceSpan plan_span("query.plan", "query");
  // Constraint pruning plus predicate-existence skipping: a partition
  // lacking any bound predicate of the BGP cannot contribute a match.
  // Each surviving partition then picks its start from its own counts.
  std::vector<PartitionPlan> plans;
  std::size_t work = 0;
  if (CanMatch(query)) {
    for (int p : PrunedPartitions(query)) {
      bool possible = true;
      for (const QueryTriple& qt : query.bgp) {
        if (!qt.p.IsVar() && !store_->MightMatchPredicate(p, qt.p.term)) {
          possible = false;
          break;
        }
      }
      if (!possible) continue;
      plans.push_back(PlanPartition(p, query));
      work += plans.back().start_rows;
      if (plans.back().seed_var >= 0) ++rs.stats.time_seeds;
    }
  }
  plan_span.End();
  rs.stats.plan_ms = plan_timer.ElapsedMillis();
  rs.stats.partitions_scanned = static_cast<int>(plans.size());

  // Each partition evaluates into its own slot; slots concatenate in
  // partition-index order, so the row order is identical at any thread
  // count (never mutex-arrival order).
  Stopwatch scan_timer;
  obs::TraceSpan scan_span("query.scan", "query");
  std::vector<std::vector<Binding>> per_part(plans.size());
  RunChunks(plans.size(), work >= kMinRowsPerChunk ? pool_ : nullptr,
            [&](std::size_t i) {
              EvalPartition(plans[i], query, &per_part[i]);
            });
  std::size_t total = 0;
  for (const auto& rows : per_part) total += rows.size();
  rs.rows.reserve(total);
  for (auto& rows : per_part) {
    for (Binding& b : rows) rs.rows.push_back(std::move(b));
  }
  scan_span.End();
  rs.stats.scan_ms = scan_timer.ElapsedMillis();
  if (rs.stats.time_seeds > 0) {
    rs.stats.seed = QuerySeed::kTimeIndex;
    time_seeds->Add(rs.stats.time_seeds);
  }
  rs.stats.result_rows = rs.rows.size();
  rs.stats.wall_ms = timer.ElapsedMillis();
  return rs;
}

ResultSet QueryEngine::ExecuteGlobal(const Query& query) const {
  static obs::Counter* queries =
      obs::MetricsRegistry::Global().counter("query.global");
  static obs::Counter* bind_probes =
      obs::MetricsRegistry::Global().counter("query.bind_probes");
  queries->Add();
  Stopwatch timer;
  ResultSet rs;
  rs.stats.partitions_total = store_->num_partitions();
  if (!CanMatch(query)) return rs;

  Stopwatch plan_timer;
  obs::TraceSpan plan_span("query.plan", "query");
  // A pattern whose subject variable carries constraints is scanned on
  // the partitions those constraints leave (tagged subjects obey the
  // partition envelopes); all other patterns scan everything.
  std::vector<int> all_parts(
      static_cast<std::size_t>(store_->num_partitions()));
  for (int i = 0; i < store_->num_partitions(); ++i) all_parts[i] = i;

  // Per pattern: scan spec, candidate partitions (with predicate-existence
  // skipping) and the index count over them — the cost every plan choice
  // reads.
  const std::size_t n = query.bgp.size();
  Binding empty(static_cast<std::size_t>(query.num_vars), kInvalidTermId);
  std::vector<PatternScanSpec> specs;
  std::vector<std::vector<int>> cands(n);
  std::vector<std::size_t> cost(n, 0);
  specs.reserve(n);
  std::size_t max_scanned = 0;
  for (std::size_t pi = 0; pi < n; ++pi) {
    const QueryTriple& qt = query.bgp[pi];
    specs.push_back(MakeScanSpec(qt, query, empty));
    const bool subject_constrained =
        qt.s.IsVar() && IsConstrained(query, qt.s.var);
    for (int p : subject_constrained ? PrunedPartitions(query, qt.s.var)
                                     : all_parts) {
      if (store_->MightMatchPredicate(p, specs[pi].rp.concrete.p)) {
        cands[pi].push_back(p);
        cost[pi] += store_->partition(p).Count(specs[pi].rp.concrete);
      }
    }
    max_scanned = std::max(max_scanned, cands[pi].size());
  }
  rs.stats.partitions_scanned = static_cast<int>(max_scanned);
  plan_span.End();
  rs.stats.plan_ms = plan_timer.ElapsedMillis();

  // Scans one pattern over its candidate partitions into a narrow columnar
  // table, with constraint pushdown. Per-partition outputs concatenate in
  // partition-index order, so the table is identical at any thread count.
  auto scan = [&](std::size_t pi) {
    Stopwatch scan_timer;
    obs::TraceSpan scan_span("query.scan", "query");
    const std::vector<int>& parts = cands[pi];
    std::vector<std::vector<TermId>> part_cells(parts.size());
    std::vector<std::size_t> part_rows(parts.size(), 0);
    auto scan_one = [&](std::size_t j) {
      part_rows[j] = ScanPatternPartition(store_->partition(parts[j]),
                                          specs[pi], query, geo_,
                                          &part_cells[j]);
    };
    RunChunks(parts.size(), cost[pi] >= kMinRowsPerChunk ? pool_ : nullptr,
              scan_one);
    ColumnTable table;
    table.vars = specs[pi].vars;
    for (std::size_t j = 0; j < parts.size(); ++j) {
      table.rows += part_rows[j];
      table.cells.insert(table.cells.end(), part_cells[j].begin(),
                         part_cells[j].end());
    }
    rs.stats.intermediate_rows += table.rows;
    scan_span.End();
    rs.stats.scan_ms += scan_timer.ElapsedMillis();
    return table;
  };

  // Start from the cheapest pattern, then repeatedly take the cheapest
  // remaining pattern, preferring ones that share a variable with the
  // accumulated rows (ties go to the lower pattern index).
  std::vector<std::size_t> remaining(n);
  for (std::size_t i = 0; i < n; ++i) remaining[i] = i;
  auto take_next = [&](const std::vector<int>& bound_vars) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < remaining.size(); ++i) {
      const bool i_shares = SharesVar(bound_vars, specs[remaining[i]].vars);
      const bool b_shares =
          SharesVar(bound_vars, specs[remaining[best]].vars);
      if (i_shares != b_shares) {
        if (i_shares) best = i;
      } else if (cost[remaining[i]] < cost[remaining[best]]) {
        best = i;
      }
    }
    const std::size_t pi = remaining[best];
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(best));
    return pi;
  };
  ColumnTable acc = scan(take_next({}));
  while (!remaining.empty() && acc.rows > 0) {
    const std::size_t pi = take_next(acc.vars);
    const std::size_t probes_per_row =
        SubjectRouted(acc, specs[pi]) ? 1 : cands[pi].size();
    const bool bind = SharesVar(acc.vars, specs[pi].vars) &&
                      acc.rows * probes_per_row * kBindProbeCost < cost[pi];
    ColumnTable table;
    if (!bind) table = scan(pi);
    Stopwatch join_timer;
    obs::TraceSpan join_span("query.join", "query");
    if (bind) {
      std::size_t probes = 0;
      acc = BindJoin(acc, specs[pi], cands[pi], *store_, query, geo_, pool_,
                     &probes);
      rs.stats.bind_probes += probes;
      bind_probes->Add(probes);
    } else {
      acc = JoinTables(acc, table, pool_);
    }
    join_span.End();
    rs.stats.join_ms += join_timer.ElapsedMillis();
    rs.stats.intermediate_rows += acc.rows;
    rs.stats.join_rows.push_back(acc.rows);
    rs.stats.join_kinds.push_back(bind ? JoinKind::kBind : JoinKind::kHash);
  }

  // Every constraint was checked as its variable bound, so what remains is
  // widening the columnar rows back to full-width bindings. Chunk outputs
  // concatenate in chunk order — deterministic.
  Stopwatch filter_timer;
  obs::TraceSpan filter_span("query.filter", "query");
  if (acc.rows > 0) {
    const std::size_t ow = acc.width();
    const std::size_t chunks = NumChunks(acc.rows, pool_);
    std::vector<std::vector<Binding>> chunk_out(chunks);
    const std::size_t per = (acc.rows + chunks - 1) / chunks;
    RunChunks(chunks, pool_, [&](std::size_t c) {
      const std::size_t begin = c * per;
      const std::size_t end = std::min(acc.rows, begin + per);
      chunk_out[c].reserve(end - begin);
      for (std::size_t r = begin; r < end; ++r) {
        Binding b(static_cast<std::size_t>(query.num_vars), kInvalidTermId);
        const TermId* row = acc.Row(r);
        for (std::size_t i = 0; i < ow; ++i) b[acc.vars[i]] = row[i];
        chunk_out[c].push_back(std::move(b));
      }
    });
    rs.rows.reserve(acc.rows);
    for (auto& rows : chunk_out) {
      for (Binding& b : rows) rs.rows.push_back(std::move(b));
    }
  }
  filter_span.End();
  rs.stats.filter_ms = filter_timer.ElapsedMillis();
  rs.stats.result_rows = rs.rows.size();
  rs.stats.wall_ms = timer.ElapsedMillis();
  return rs;
}

}  // namespace datacron
