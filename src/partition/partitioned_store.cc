#include "partition/partitioned_store.h"

#include <algorithm>

#include "common/strings.h"
#include "common/thread_pool.h"

namespace datacron {

std::string PartitionStats::ToString() const {
  return StrFormat(
      "scheme=%s k=%d triples=%zu balance=%.3f cross_edges=%.2f%% (%zu "
      "links)",
      scheme.c_str(), num_partitions, total_triples, balance_factor,
      100.0 * cross_partition_edge_ratio, link_edges);
}

void PartitionedRdfStore::Load(const std::vector<Triple>& triples,
                               const PartitionScheme& scheme,
                               const UniformGrid& grid,
                               TermId link_predicate, ThreadPool* pool) {
  const int k = scheme.num_partitions();
  parts_.assign(static_cast<std::size_t>(k), TripleStore());
  meta_.assign(static_cast<std::size_t>(k), PartitionMeta());

  std::size_t cross_edges = 0;
  std::size_t link_edges = 0;
  const bool parallel =
      pool != nullptr && pool->num_threads() >= 2 && triples.size() >= 4096;
  if (parallel) {
    // Pass 1 (parallel): each input chunk scatters its triples into
    // chunk-local per-partition buckets and tallies edge stats.
    const std::size_t chunks = pool->num_threads() * 2;
    const std::size_t per_chunk = (triples.size() + chunks - 1) / chunks;
    struct ChunkScatter {
      std::vector<std::vector<Triple>> buckets;
      std::size_t link_edges = 0;
      std::size_t cross_edges = 0;
    };
    std::vector<ChunkScatter> partial(chunks);
    pool->ParallelFor(chunks, [&](std::size_t c) {
      const std::size_t begin = c * per_chunk;
      const std::size_t end = std::min(triples.size(), begin + per_chunk);
      partial[c].buckets.resize(static_cast<std::size_t>(k));
      for (std::size_t i = begin; i < end; ++i) {
        const Triple& t = triples[i];
        const int p = scheme.PartitionOf(t);
        partial[c].buckets[p].push_back(t);
        if (link_predicate != kInvalidTermId && t.p == link_predicate) {
          ++partial[c].link_edges;
          if (scheme.PartitionOfNode(t.o) != p) ++partial[c].cross_edges;
        }
      }
    });
    for (const ChunkScatter& s : partial) {
      link_edges += s.link_edges;
      cross_edges += s.cross_edges;
    }
    // Pass 2 (parallel): each partition concatenates its buckets in chunk
    // (= input) order and seals. Contents match the serial scatter.
    pool->ParallelFor(static_cast<std::size_t>(k), [&](std::size_t p) {
      std::size_t total = 0;
      for (const ChunkScatter& s : partial) total += s.buckets[p].size();
      parts_[p].Reserve(total);
      for (const ChunkScatter& s : partial) parts_[p].AddBatch(s.buckets[p]);
      meta_[p].triple_count = total;
      parts_[p].Seal();
    });
  } else {
    for (const Triple& t : triples) {
      const int p = scheme.PartitionOf(t);
      parts_[p].Add(t);
      ++meta_[p].triple_count;
      if (link_predicate != kInvalidTermId && t.p == link_predicate) {
        ++link_edges;
        if (scheme.PartitionOfNode(t.o) != p) ++cross_edges;
      }
    }
  }

  // Spatiotemporal envelopes: union of the cell bounds / bucket range of
  // every tagged resource placed in the partition. Untagged resources do
  // not contribute (their partitions are never pruned, see below).
  if (scheme.tag_table() != nullptr) {
    for (const auto& [node, tag] : *scheme.tag_table()) {
      const int p = scheme.PartitionOfNode(node);
      PartitionMeta& m = meta_[p];
      m.bbox.Extend(grid.CellBounds(tag.cell).Center());
      m.min_bucket = std::min(m.min_bucket, tag.bucket);
      m.max_bucket = std::max(m.max_bucket, tag.bucket);
      ++m.tagged_resources;
    }
  }
  // Inflate envelopes by one cell so cell-center unions cover full cells.
  for (PartitionMeta& m : meta_) {
    if (!m.bbox.IsEmpty()) m.bbox = m.bbox.Inflated(grid.cell_deg());
  }

  for (TripleStore& part : parts_) part.Seal();

  // Each subject's home partition, read off the sealed partitions so it
  // names exactly where the subject's triples landed.
  std::size_t subjects = 0;
  for (const TripleStore& part : parts_) subjects += part.subjects();
  home_.Clear();
  home_.Reserve(subjects);
  for (int p = 0; p < k; ++p) {
    TermId last = kInvalidTermId;
    for (const Triple& t : parts_[p].Range(TriplePattern{})) {
      if (t.s != last) home_[t.s] = p;
      last = t.s;
    }
  }

  stats_ = PartitionStats();
  stats_.scheme = scheme.name();
  stats_.num_partitions = k;
  stats_.total_triples = triples.size();
  std::size_t max_size = 0;
  for (const PartitionMeta& m : meta_) {
    max_size = std::max(max_size, m.triple_count);
  }
  const double mean =
      k > 0 ? static_cast<double>(triples.size()) / k : 0.0;
  stats_.balance_factor = mean > 0 ? max_size / mean : 0.0;
  stats_.link_edges = link_edges;
  stats_.cross_partition_edge_ratio =
      link_edges > 0 ? static_cast<double>(cross_edges) / link_edges : 0.0;
}

std::size_t PartitionedRdfStore::TotalTriples() const {
  std::size_t n = 0;
  for (const TripleStore& p : parts_) n += p.size();
  return n;
}

std::vector<int> PartitionedRdfStore::PruneCandidates(
    const BoundingBox& box, std::int64_t min_bucket,
    std::int64_t max_bucket) const {
  std::vector<int> out;
  const bool spatial = !box.IsEmpty();
  const bool temporal = min_bucket <= max_bucket;
  for (int i = 0; i < num_partitions(); ++i) {
    const PartitionMeta& m = meta_[i];
    // Partitions with no tagged resources can hold untagged (entity-level)
    // triples, so they are never pruned.
    if (m.tagged_resources > 0) {
      if (spatial && !m.bbox.IsEmpty() && !m.bbox.Intersects(box)) continue;
      if (temporal && m.HasTimeRange() &&
          (m.max_bucket < min_bucket || m.min_bucket > max_bucket)) {
        continue;
      }
    }
    out.push_back(i);
  }
  return out;
}

}  // namespace datacron
