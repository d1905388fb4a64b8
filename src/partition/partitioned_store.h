#ifndef DATACRON_PARTITION_PARTITIONED_STORE_H_
#define DATACRON_PARTITION_PARTITIONED_STORE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "geo/bbox.h"
#include "partition/partitioner.h"
#include "rdf/triple_store.h"

namespace datacron {

class ThreadPool;

/// Pruning metadata of one partition: the spatiotemporal envelope of its
/// tagged resources. The parallel query executor skips partitions whose
/// envelope misses the query's spatial/temporal constraints.
struct PartitionMeta {
  BoundingBox bbox = BoundingBox::Empty();
  std::int64_t min_bucket = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_bucket = std::numeric_limits<std::int64_t>::min();
  std::size_t triple_count = 0;
  std::size_t tagged_resources = 0;

  bool HasTimeRange() const { return min_bucket <= max_bucket; }
};

/// Load-balance and locality statistics of a partitioning — what E5
/// reports per scheme.
struct PartitionStats {
  std::string scheme;
  int num_partitions = 0;
  std::size_t total_triples = 0;
  /// max partition size / mean partition size; 1.0 is perfect balance.
  double balance_factor = 0.0;
  /// Fraction of inter-node link triples (e.g. dc:hasNextNode) whose two
  /// endpoints live in different partitions — lower is better locality.
  double cross_partition_edge_ratio = 0.0;
  std::size_t link_edges = 0;

  std::string ToString() const;
};

/// The "parallel RDF store": k logical TripleStore partitions plus the
/// per-partition pruning metadata. Logical partitions + worker threads
/// stand in for datAcron's distributed stores (see DESIGN.md
/// substitutions); the partitioning and pruning algorithms are identical.
class PartitionedRdfStore {
 public:
  /// Distributes `triples` by `scheme`, seals every partition and computes
  /// metadata. `grid` must be the grid the tags were computed on;
  /// `link_predicate` (may be kInvalidTermId) identifies the edge
  /// predicate used for the locality statistic. With a pool, partition
  /// assignment runs as a chunked parallel pass and partitions gather and
  /// seal concurrently; partitions, metadata and stats are identical to
  /// the serial path.
  void Load(const std::vector<Triple>& triples, const PartitionScheme& scheme,
            const UniformGrid& grid, TermId link_predicate = kInvalidTermId,
            ThreadPool* pool = nullptr);

  int num_partitions() const { return static_cast<int>(parts_.size()); }
  const TripleStore& partition(int i) const { return parts_[i]; }
  const PartitionMeta& meta(int i) const { return meta_[i]; }
  const PartitionStats& stats() const { return stats_; }
  std::size_t TotalTriples() const;

  /// True unless `p` is a bound predicate partition `part` lacks — one
  /// lookup in the partition's predicate directory. A pattern with such a
  /// predicate cannot match there, so the executor skips the partition.
  bool MightMatchPredicate(int part, TermId p) const {
    return p == kInvalidTermId ||
           parts_[part].Count({kInvalidTermId, p, kInvalidTermId}) > 0;
  }

  /// The partition holding `subject`'s triples, or -1 when no partition
  /// holds a triple with that subject. Placement is subject-based, so a
  /// pattern with a bound subject can only match in this partition.
  int HomeOf(TermId subject) const {
    const int* home = home_.Find(subject);
    return home != nullptr ? *home : -1;
  }

  /// Partitions whose envelope intersects the given constraints
  /// (empty box / inverted bucket range = unconstrained).
  std::vector<int> PruneCandidates(const BoundingBox& box,
                                   std::int64_t min_bucket,
                                   std::int64_t max_bucket) const;

 private:
  std::vector<TripleStore> parts_;
  std::vector<PartitionMeta> meta_;
  /// Subject -> its partition, recorded by Load from the sealed parts.
  FlatHashMap<TermId, int> home_;
  PartitionStats stats_;
};

}  // namespace datacron

#endif  // DATACRON_PARTITION_PARTITIONED_STORE_H_
