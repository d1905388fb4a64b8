#ifndef DATACRON_RDF_RDFIZER_H_
#define DATACRON_RDF_RDFIZER_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "geo/bbox.h"
#include "geo/grid.h"
#include "rdf/triple_store.h"
#include "rdf/vocab.h"
#include "sources/model.h"
#include "sources/weather.h"
#include "synopses/critical_points.h"
#include "trajectory/episodes.h"

namespace datacron {

class ThreadPool;

/// Spatiotemporal placement of a resource: grid cell + time bucket.
/// Partitioners and the query planner prune on these.
struct StTag {
  GridCell cell;
  std::int64_t bucket = 0;

  bool operator==(const StTag&) const = default;
};

/// Exact geometry/time of a position node, kept as a side table so spatial
/// and temporal FILTERs evaluate without string-decoding literals.
struct NodeGeo {
  double lat_deg = 0.0;
  double lon_deg = 0.0;
  double alt_m = 0.0;
  TimestampMs timestamp = 0;

  bool operator==(const NodeGeo&) const = default;
};

/// Where one entity's node sequence stands: the timestamp and ordinal of
/// its last node. The ordinal names the node (PositionNodeIri): the
/// entity's first node is 0, and it advances whenever a point's timestamp
/// differs from the last node's, so a point that repeats that timestamp
/// (a GapStart or TrajectoryEnd after the same report) shares its node.
struct NodeCursor {
  TimestampMs ts = 0;
  std::uint64_t ordinal = 0;
};

/// Hash of an (entity, timestamp) key.
struct NodeKeyHash {
  std::size_t operator()(const std::pair<EntityId, TimestampMs>& key) const {
    return MixU64(key.first ^ MixU64(static_cast<std::uint64_t>(key.second)));
  }
};

/// (entity, timestamp) -> node ordinal: the index behind
/// Rdfizer::NodeIdOf.
using NodeIndex = std::unordered_map<std::pair<EntityId, TimestampMs>,
                                     std::uint64_t, NodeKeyHash>;

/// The "data transformation" component (paper Section 2): converts
/// position reports, synopses (critical points) and archival weather into
/// the common RDF representation, tagging every spatiotemporal resource
/// with its grid cell and time bucket.
class Rdfizer {
 public:
  struct Config {
    BoundingBox region = BoundingBox::Of(35.0, 23.0, 39.0, 27.0);
    double cell_deg = 0.25;
    DurationMs bucket_ms = kHour;
    /// Bucket 0 starts here.
    TimestampMs epoch = 1490000000000;
    /// Also emit dc:hasNextNode links between consecutive nodes of the
    /// same entity (costs one triple per report; enables path queries).
    bool emit_sequence_links = true;
  };

  /// Where one transform call reads/writes shared ingest state. The serial
  /// path points this at the members; parallel paths (TransformBatch
  /// chunks, the sharded engine's shard-epoch arenas) point it at local
  /// tables (with a TermBatch as the term source) so workers never
  /// contend, then merge deterministically. Node ids come from the
  /// cursors alone, so a sink needs no earlier TermId to continue an
  /// entity's node sequence.
  struct Sink {
    TermSource* terms = nullptr;
    std::unordered_map<TermId, StTag>* tags = nullptr;
    std::unordered_map<TermId, NodeGeo>* node_geo = nullptr;
    /// An entity is typed with its first node, when its cursor is made.
    std::unordered_map<EntityId, NodeCursor>* cursors = nullptr;
    /// Member path only.
    NodeIndex* node_index = nullptr;
  };

  Rdfizer(const Config& config, TermDictionary* dict, const Vocab* vocab);

  /// Triples for one position report (~10 per report). The node resource
  /// is registered in tags() and node_geo().
  std::vector<Triple> TransformReport(const PositionReport& report);

  /// Re-entrant TransformReport: all mutable state lives in `sink`, so
  /// shard workers can transform concurrently against per-shard sinks.
  /// No Rdfizer member is touched.
  void TransformReportInto(const PositionReport& report, const Sink& sink,
                           std::vector<Triple>* out) const;

  /// Re-entrant TransformCriticalPoint (see TransformReportInto).
  void TransformCriticalPointInto(const CriticalPoint& cp, const Sink& sink,
                                  std::vector<Triple>* out) const;

  /// Re-entrant TransformEpisode: needs only sink.terms/tags/node_geo.
  void TransformEpisodeInto(const Episode& episode, const Sink& sink,
                            std::vector<Triple>* out) const;

  /// Merges sink-local tags/node_geo tables (keyed by possibly batch-local
  /// TermIds) into the member side tables, rewriting ids through `remap`
  /// (pass an empty remap when the sink interned straight into the global
  /// dictionary).
  void AbsorbSideTables(const std::unordered_map<TermId, StTag>& tags,
                        const std::unordered_map<TermId, NodeGeo>& node_geo,
                        const std::vector<TermId>& remap);

  /// Bulk variant of TransformReport: fans contiguous report chunks across
  /// `pool` workers, each interning into a thread-local TermBatch, then
  /// merges chunk results in input order. A serial pre-pass fixes every
  /// report's node ordinal first, so each chunk starts from the cursors
  /// serial would have and chains its sequence links across chunk
  /// boundaries itself. The merged dictionary ids, tags()/node_geo() side
  /// tables and triples are identical to calling TransformReport serially
  /// — independent of thread count and chunking. Falls back to the serial loop when `pool` is null
  /// or the batch is small.
  std::vector<Triple> TransformBatch(const std::vector<PositionReport>& reports,
                                     ThreadPool* pool);

  /// Triples for one critical point — a report plus its semantic node
  /// kind. This is what flows to the store on the synopses path.
  std::vector<Triple> TransformCriticalPoint(const CriticalPoint& cp);

  /// Triples for one archival weather observation.
  std::vector<Triple> TransformWeather(const WeatherSample& sample);

  /// Triples for one semantic-trajectory episode; the episode resource is
  /// tagged by its start position/time so partitioning and pruning apply.
  std::vector<Triple> TransformEpisode(const Episode& episode);

  /// The node's StTag index (cell/bucket of every transformed resource).
  const std::unordered_map<TermId, StTag>& tags() const { return tags_; }

  /// Exact geometry side table for position nodes.
  const std::unordered_map<TermId, NodeGeo>& node_geo() const {
    return node_geo_;
  }

  const UniformGrid& grid() const { return grid_; }
  const Config& config() const { return config_; }

  std::int64_t BucketOf(TimestampMs t) const {
    return (t - config_.epoch) / config_.bucket_ms;
  }

  /// The TermId of the node a report transformed through this Rdfizer's
  /// own tables (TransformReport, TransformCriticalPoint, TransformBatch)
  /// got, looked up by (entity, timestamp); kInvalidTermId if none did.
  TermId NodeIdOf(const PositionReport& report) const;

 private:
  /// Emits the shared node skeleton (type, entity, kinematics, cell,
  /// bucket, optional sequence link) and advances the entity's cursor;
  /// returns the node TermId.
  TermId EmitNode(const PositionReport& report, const Sink& sink,
                  std::vector<Triple>* out) const;

  /// Sink over the member state (the serial path).
  Sink MemberSink();

  Config config_;
  TermDictionary* dict_;
  const Vocab* vocab_;
  UniformGrid grid_;
  std::unordered_map<TermId, StTag> tags_;
  std::unordered_map<TermId, NodeGeo> node_geo_;
  std::unordered_map<EntityId, NodeCursor> cursors_;
  NodeIndex node_index_;
};

}  // namespace datacron

#endif  // DATACRON_RDF_RDFIZER_H_
