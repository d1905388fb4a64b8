#ifndef DATACRON_QUERY_ENGINE_H_
#define DATACRON_QUERY_ENGINE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "common/thread_pool.h"
#include "partition/partitioned_store.h"
#include "query/query.h"
#include "rdf/rdfizer.h"

namespace datacron {

/// Where evaluation starts: the cheapest pattern's index range, or the
/// per-partition time index of a DURING variable.
enum class QuerySeed { kIndexRange, kTimeIndex };

/// How one join step ran: a scan of the whole pattern plus a hash join, or
/// a bind join that probes the pattern's indexes once per accumulated row.
enum class JoinKind { kHash, kBind };

/// Execution diagnostics of one query run (E5 reports these), including a
/// per-stage wall-time breakdown so the bench can attribute cost to
/// planning, index scans, joins and the final row widening, plus the plan
/// that ran.
struct QueryExecStats {
  int partitions_total = 0;
  int partitions_scanned = 0;
  std::size_t intermediate_rows = 0;
  std::size_t result_rows = 0;
  double wall_ms = 0.0;
  double plan_ms = 0.0;
  double scan_ms = 0.0;
  double join_ms = 0.0;
  double filter_ms = 0.0;
  /// kTimeIndex when at least one partition was seeded from its time
  /// index (ExecuteLocal decides per partition).
  QuerySeed seed = QuerySeed::kIndexRange;
  /// Partitions seeded from their time index.
  std::size_t time_seeds = 0;
  /// Intermediate row count after each join, in join order.
  std::vector<std::size_t> join_rows;
  /// The kind of each join, parallel to join_rows.
  std::vector<JoinKind> join_kinds;
  /// Partition probes the bind joins issued: one per accumulated row and
  /// candidate partition, or one per row whose probe binds the subject and
  /// whose home partition is a candidate (none for the other routed rows).
  std::size_t bind_probes = 0;

  std::string ToString() const;
};

/// A query answer: the rows plus execution statistics. Row order is
/// deterministic — identical for serial and pooled execution at any
/// thread count (partition-index / row-index merge order, never
/// lock-arrival order).
struct ResultSet {
  std::vector<Binding> rows;
  QueryExecStats stats;
};

/// The spatiotemporal query-answering component: parallel BGP evaluation
/// with spatial/temporal filter pushdown over a PartitionedRdfStore.
///
/// Both strategies start from the most selective access path and reach
/// the remaining patterns through the sorted indexes:
///  - ExecuteLocal: each (pruned) partition evaluates the whole BGP
///    independently as an index nested loop, and results are unioned.
///    A partition starts from its cheapest pattern's index range, or,
///    when a DURING variable is the subject of some pattern and its time
///    range holds fewer nodes than that range, from the partition's time
///    index (WITHIN checked inline). Complete whenever every match's
///    triples are colocated (true for subject-star queries under
///    subject-based placement; true for neighborhood queries under
///    locality-preserving placement most of the time).
///  - ExecuteGlobal: only the cheapest pattern is scanned across its
///    candidate partitions into a columnar binding table (the pattern's
///    own variables, rows in one flat TermId array). Each next pattern
///    sharing a variable is bind-joined, one index probe per accumulated
///    row and candidate partition — or only in the subject's home
///    partition when the probe binds the subject — when that is cheaper
///    than its index count; otherwise it is scanned and hash-joined on
///    packed u64 keys over open-addressing FlatHashMaps with a
///    partitioned parallel build side. Always complete.
/// Every plan choice depends only on index counts and row counts, never on
/// the pool. The E5 benchmark quantifies the gap between the strategies —
/// the classic locality-versus-completeness trade in distributed RDF
/// stores.
class QueryEngine {
 public:
  /// `rdfizer` provides the node geometry/time side tables used by the
  /// constraints (snapshotted into a flat probe table and a per-partition
  /// time index at construction); `pool` may be null for sequential
  /// execution.
  QueryEngine(const PartitionedRdfStore* store, const Rdfizer* rdfizer,
              ThreadPool* pool = nullptr);

  ResultSet ExecuteLocal(const Query& query) const;
  ResultSet ExecuteGlobal(const Query& query) const;

  /// Partition indices surviving constraint-based pruning for `query`:
  /// by every constraint, or by the constraints on `var` only when
  /// `var >= 0`.
  std::vector<int> PrunedPartitions(const Query& query, int var = -1) const;

 private:
  /// A geo-tagged subject of one partition with its time and position
  /// inline, so a time-seeded plan checks WITHIN without a geo lookup.
  struct TimedNode {
    TimestampMs t = 0;
    TermId node = kInvalidTermId;
    double lat_deg = 0.0;
    double lon_deg = 0.0;
  };

  /// How one partition starts evaluating the BGP under ExecuteLocal.
  struct PartitionPlan {
    int part = -1;
    /// Greedy pattern order.
    std::vector<int> order;
    /// The time-seeded variable, or -1 to start from the first pattern's
    /// index range.
    int seed_var = -1;
    /// The seed variable's time range in the partition's time index.
    std::span<const TimedNode> seeds;
    /// Rows the start yields before any other check: the work estimate.
    std::size_t start_rows = 0;
  };

  /// Chooses one partition's start from its index counts and time index.
  PartitionPlan PlanPartition(int part, const Query& query) const;

  /// Index-nested-loop evaluation of the whole BGP within one partition.
  void EvalPartition(const PartitionPlan& plan, const Query& query,
                     std::vector<Binding>* out) const;

  /// Recursive pattern-at-a-time extension. Allocation-free per triple:
  /// a pattern has at most 3 free positions, so newly bound variables
  /// live in a fixed stack array.
  void Extend(const TripleStore& store, const Query& query,
              const std::vector<int>& pattern_order, std::size_t depth,
              Binding* binding, std::vector<Binding>* out) const;

  const PartitionedRdfStore* store_;
  const Rdfizer* rdfizer_;
  ThreadPool* pool_;
  /// Flat open-addressing snapshot of the rdfizer's node geometry table —
  /// the constraint checks probe this on every candidate row.
  FlatHashMap<TermId, NodeGeo> geo_;
  /// Per partition: its geo-tagged subjects sorted by (timestamp, id).
  std::vector<std::vector<TimedNode>> time_index_;
};

}  // namespace datacron

#endif  // DATACRON_QUERY_ENGINE_H_
