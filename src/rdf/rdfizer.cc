#include "rdf/rdfizer.h"

#include <unordered_set>

#include "common/thread_pool.h"

namespace datacron {

namespace {

/// Below this batch size the chunk/merge overhead of the parallel path is
/// not worth paying.
constexpr std::size_t kMinParallelBatch = 256;

/// Where AdvanceCursor put an entity: the ordinal of the node it is at,
/// and whether that is its first node or one after an earlier node (a
/// node to link from). Neither: it repeats the last node's timestamp.
struct NodeStep {
  std::uint64_t ordinal = 0;
  bool first = false;
  bool moved = false;
};

/// Moves `entity`'s cursor to a node at `ts` (see NodeCursor).
NodeStep AdvanceCursor(std::unordered_map<EntityId, NodeCursor>* cursors,
                       EntityId entity, TimestampMs ts) {
  auto [it, first] = cursors->try_emplace(entity, NodeCursor{ts, 0});
  NodeCursor& cursor = it->second;
  const bool moved = !first && cursor.ts != ts;
  if (moved) {
    cursor.ts = ts;
    ++cursor.ordinal;
  }
  return {cursor.ordinal, first, moved};
}

}  // namespace

Rdfizer::Rdfizer(const Config& config, TermDictionary* dict,
                 const Vocab* vocab)
    : config_(config),
      dict_(dict),
      vocab_(vocab),
      grid_(config.region, config.cell_deg) {}

TermId Rdfizer::NodeIdOf(const PositionReport& report) const {
  auto it = node_index_.find({report.entity_id, report.timestamp});
  if (it == node_index_.end()) return kInvalidTermId;
  return dict_->Find(PositionNodeIri(report.entity_id, it->second));
}

Rdfizer::Sink Rdfizer::MemberSink() {
  Sink sink;
  sink.terms = dict_;
  sink.tags = &tags_;
  sink.node_geo = &node_geo_;
  sink.cursors = &cursors_;
  sink.node_index = &node_index_;
  return sink;
}

TermId Rdfizer::EmitNode(const PositionReport& report, const Sink& sink,
                         std::vector<Triple>* out) const {
  TermSource& terms = *sink.terms;
  const NodeStep step =
      AdvanceCursor(sink.cursors, report.entity_id, report.timestamp);
  const TermId node = terms.InternNode(report.entity_id, step.ordinal);
  if (sink.node_index != nullptr) {
    (*sink.node_index)[{report.entity_id, report.timestamp}] = step.ordinal;
  }
  const TermId entity = terms.Intern(EntityIri(report.entity_id));
  const TermId traj = terms.Intern(TrajectoryIri(report.entity_id));

  // Entity-level triples, with the entity's first node.
  if (step.first) {
    out->push_back({entity, vocab_->p_type,
                    report.domain == Domain::kMaritime ? vocab_->c_vessel
                                                       : vocab_->c_aircraft});
    out->push_back({traj, vocab_->p_type, vocab_->c_trajectory});
  }

  const GridCell cell = grid_.CellOf(report.position.ll());
  const std::int64_t bucket = BucketOf(report.timestamp);

  out->push_back({node, vocab_->p_type, vocab_->c_position_node});
  out->push_back({node, vocab_->p_of_entity, entity});
  out->push_back({traj, vocab_->p_has_node, node});
  out->push_back(
      {node, vocab_->p_timestamp, terms.InternDateTime(report.timestamp)});
  out->push_back(
      {node, vocab_->p_lat, terms.InternDouble(report.position.lat_deg)});
  out->push_back(
      {node, vocab_->p_lon, terms.InternDouble(report.position.lon_deg)});
  if (report.domain == Domain::kAviation) {
    out->push_back(
        {node, vocab_->p_alt, terms.InternDouble(report.position.alt_m)});
    out->push_back({node, vocab_->p_vrate,
                    terms.InternDouble(report.vertical_rate_mps)});
  }
  out->push_back(
      {node, vocab_->p_speed, terms.InternDouble(report.speed_mps)});
  out->push_back(
      {node, vocab_->p_course, terms.InternDouble(report.course_deg)});
  out->push_back(
      {node, vocab_->p_in_cell, terms.Intern(CellIri(cell.ix, cell.iy))});
  out->push_back(
      {node, vocab_->p_in_bucket, terms.Intern(BucketIri(bucket))});

  if (config_.emit_sequence_links && step.moved) {
    out->push_back({terms.InternNode(report.entity_id, step.ordinal - 1),
                    vocab_->p_next_node, node});
  }

  (*sink.tags)[node] = StTag{cell, bucket};
  (*sink.node_geo)[node] =
      NodeGeo{report.position.lat_deg, report.position.lon_deg,
              report.position.alt_m, report.timestamp};
  return node;
}

std::vector<Triple> Rdfizer::TransformReport(const PositionReport& report) {
  std::vector<Triple> out;
  out.reserve(14);
  TransformReportInto(report, MemberSink(), &out);
  return out;
}

void Rdfizer::TransformReportInto(const PositionReport& report,
                                  const Sink& sink,
                                  std::vector<Triple>* out) const {
  EmitNode(report, sink, out);
}

void Rdfizer::TransformCriticalPointInto(const CriticalPoint& cp,
                                         const Sink& sink,
                                         std::vector<Triple>* out) const {
  const TermId node = EmitNode(cp.report, sink, out);
  out->push_back({node, vocab_->p_node_kind,
                  sink.terms->Intern(CriticalPointTypeName(cp.type),
                                     TermKind::kLiteralString)});
}

void Rdfizer::TransformEpisodeInto(const Episode& episode, const Sink& sink,
                                   std::vector<Triple>* out) const {
  TermSource& terms = *sink.terms;
  const TermId ep =
      terms.Intern(EpisodeIri(episode.entity, episode.start_time));
  const TermId entity = terms.Intern(EntityIri(episode.entity));
  out->push_back({ep, vocab_->p_type, vocab_->c_episode});
  out->push_back({ep, vocab_->p_of_entity, entity});
  out->push_back({ep, vocab_->p_episode_kind,
                  terms.Intern(EpisodeKindName(episode.kind),
                               TermKind::kLiteralString)});
  out->push_back({ep, vocab_->p_episode_start,
                  terms.InternDateTime(episode.start_time)});
  out->push_back(
      {ep, vocab_->p_episode_end, terms.InternDateTime(episode.end_time)});
  out->push_back(
      {ep, vocab_->p_path_length, terms.InternDouble(episode.path_m)});
  if (!episode.area.empty()) {
    const TermId area = terms.Intern(AreaIri(episode.area));
    out->push_back({area, vocab_->p_type, vocab_->c_area});
    out->push_back({ep, vocab_->p_within_area, area});
  }
  const GridCell cell = grid_.CellOf(episode.start_pos.ll());
  const std::int64_t bucket = BucketOf(episode.start_time);
  out->push_back(
      {ep, vocab_->p_in_cell, terms.Intern(CellIri(cell.ix, cell.iy))});
  out->push_back(
      {ep, vocab_->p_in_bucket, terms.Intern(BucketIri(bucket))});
  (*sink.tags)[ep] = StTag{cell, bucket};
  (*sink.node_geo)[ep] =
      NodeGeo{episode.start_pos.lat_deg, episode.start_pos.lon_deg,
              episode.start_pos.alt_m, episode.start_time};
}

void Rdfizer::AbsorbSideTables(
    const std::unordered_map<TermId, StTag>& tags,
    const std::unordered_map<TermId, NodeGeo>& node_geo,
    const std::vector<TermId>& remap) {
  for (const auto& [node, tag] : tags) {
    tags_[RemapTerm(node, remap)] = tag;
  }
  for (const auto& [node, geo] : node_geo) {
    node_geo_[RemapTerm(node, remap)] = geo;
  }
}

std::vector<Triple> Rdfizer::TransformBatch(
    const std::vector<PositionReport>& reports, ThreadPool* pool) {
  std::vector<Triple> out;
  if (reports.empty()) return out;

  const std::size_t max_chunks = std::max<std::size_t>(1, reports.size() / 64);
  const std::size_t chunks =
      pool == nullptr
          ? 1
          : std::min(max_chunks, pool->num_threads() * 2);
  if (chunks < 2 || reports.size() < kMinParallelBatch) {
    out.reserve(reports.size() * 12);
    for (const PositionReport& r : reports) {
      const auto ts = TransformReport(r);
      out.insert(out.end(), ts.begin(), ts.end());
    }
    return out;
  }

  // Phase 1: chunk-local transform. Each worker interns into its own
  // TermBatch (read-only probes of the shared dictionary, batch-local ids
  // for new terms) and advances chunk-local cursors.
  struct Chunk {
    explicit Chunk(const TermDictionary* global) : terms(global) {}
    TermBatch terms;
    std::vector<Triple> triples;
    std::unordered_map<TermId, StTag> tags;
    std::unordered_map<TermId, NodeGeo> node_geo;
    std::unordered_map<EntityId, NodeCursor> cursors;
  };
  const std::size_t per_chunk = (reports.size() + chunks - 1) / chunks;
  std::vector<Chunk> results;
  results.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) results.emplace_back(dict_);

  // Serial ordinal pre-pass: walks the member cursors over the batch, and
  // hands each chunk the cursors its entities had at the chunk's start, so
  // every chunk names serial's nodes, links its first node of an entity
  // to the one before it and types only entities without a cursor.
  std::unordered_set<EntityId> seen;
  for (std::size_t c = 0; c < chunks; ++c) {
    seen.clear();
    const std::size_t end = std::min(reports.size(), (c + 1) * per_chunk);
    for (std::size_t i = c * per_chunk; i < end; ++i) {
      const PositionReport& r = reports[i];
      if (seen.insert(r.entity_id).second) {
        auto it = cursors_.find(r.entity_id);
        if (it != cursors_.end()) results[c].cursors.emplace(*it);
      }
      node_index_[{r.entity_id, r.timestamp}] =
          AdvanceCursor(&cursors_, r.entity_id, r.timestamp).ordinal;
    }
  }

  pool->ParallelFor(chunks, [&](std::size_t c) {
    Chunk& ch = results[c];
    const std::size_t begin = c * per_chunk;
    const std::size_t end = std::min(reports.size(), begin + per_chunk);
    Sink sink;
    sink.terms = &ch.terms;
    sink.tags = &ch.tags;
    sink.node_geo = &ch.node_geo;
    sink.cursors = &ch.cursors;
    ch.triples.reserve((end - begin) * 12);
    for (std::size_t i = begin; i < end; ++i) {
      EmitNode(reports[i], sink, &ch.triples);
    }
  });

  // Phase 2: deterministic merge in chunk (= input) order. Merging local
  // dictionaries in order reproduces the global first-occurrence order of
  // every term, so the ids match the serial path exactly.
  out.reserve(reports.size() * 12);
  for (Chunk& ch : results) {
    const std::vector<TermId> remap = dict_->MergeBatch(ch.terms);
    for (const Triple& t : ch.triples) {
      out.push_back({RemapTerm(t.s, remap), RemapTerm(t.p, remap),
                     RemapTerm(t.o, remap)});
    }
    AbsorbSideTables(ch.tags, ch.node_geo, remap);
  }
  return out;
}

std::vector<Triple> Rdfizer::TransformCriticalPoint(const CriticalPoint& cp) {
  std::vector<Triple> out;
  out.reserve(15);
  TransformCriticalPointInto(cp, MemberSink(), &out);
  return out;
}

std::vector<Triple> Rdfizer::TransformEpisode(const Episode& episode) {
  std::vector<Triple> out;
  out.reserve(9);
  TransformEpisodeInto(episode, MemberSink(), &out);
  return out;
}

std::vector<Triple> Rdfizer::TransformWeather(const WeatherSample& sample) {
  std::vector<Triple> out;
  out.reserve(7);
  const std::int64_t bucket = BucketOf(sample.bucket_start);
  const TermId wx = dict_->Intern(
      WeatherIri(sample.cell.ix, sample.cell.iy, bucket));
  out.push_back({wx, vocab_->p_type, vocab_->c_weather_obs});
  out.push_back({wx, vocab_->p_in_cell,
                 dict_->Intern(CellIri(sample.cell.ix, sample.cell.iy))});
  out.push_back({wx, vocab_->p_in_bucket, dict_->Intern(BucketIri(bucket))});
  out.push_back(
      {wx, vocab_->p_wind_u, dict_->InternDouble(sample.wind_u_mps)});
  out.push_back(
      {wx, vocab_->p_wind_v, dict_->InternDouble(sample.wind_v_mps)});
  out.push_back(
      {wx, vocab_->p_wave_height, dict_->InternDouble(sample.wave_height_m)});
  tags_[wx] = StTag{sample.cell, bucket};
  return out;
}

}  // namespace datacron
