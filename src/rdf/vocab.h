#ifndef DATACRON_RDF_VOCAB_H_
#define DATACRON_RDF_VOCAB_H_

#include "rdf/term.h"

namespace datacron {

/// The library's RDF vocabulary — a pragmatic subset of the datAcron
/// ontology (moving entities, semantic trajectory nodes, weather,
/// events). All predicates/classes are interned once into a shared
/// dictionary so modules can compare TermIds directly.
struct Vocab {
  explicit Vocab(TermDictionary* dict);

  // Classes.
  TermId c_vessel;
  TermId c_aircraft;
  TermId c_position_node;    // one semantic node per (kept) position report
  TermId c_trajectory;
  TermId c_weather_obs;
  TermId c_event;
  TermId c_area;

  // Core predicates.
  TermId p_type;             // rdf:type
  TermId p_of_entity;        // node -> moving entity
  TermId p_timestamp;        // node -> dateTime literal
  TermId p_lat;
  TermId p_lon;
  TermId p_alt;
  TermId p_speed;
  TermId p_course;
  TermId p_vrate;
  TermId p_node_kind;        // critical point kind literal
  TermId p_in_cell;          // node -> grid cell resource
  TermId p_in_bucket;        // node -> time bucket resource
  TermId p_has_node;         // trajectory -> node
  TermId p_next_node;        // node -> node (temporal succession)

  // Weather predicates.
  TermId p_wind_u;
  TermId p_wind_v;
  TermId p_wave_height;

  // Link-discovery predicates (the interlinking component's output).
  TermId p_near_entity;      // node -> other entity (proximity link)
  TermId p_within_area;      // node -> area
  TermId p_weather_at;       // node -> weather observation

  // Event predicates.
  TermId p_event_kind;
  TermId p_involves;
  TermId p_event_start;
  TermId p_event_end;

  // Semantic-trajectory episode vocabulary.
  TermId c_episode;
  TermId p_episode_kind;
  TermId p_episode_start;
  TermId p_episode_end;
  TermId p_path_length;

  TermDictionary* dict;
};

/// IRI builders for instance resources. Placement is not read from names:
/// every transformed resource's grid cell and time bucket live in the
/// Rdfizer's StTag side table, which partitioners and the query planner
/// prune on. Only weather observations embed cell and bucket in the IRI,
/// as they are keyed by them. A position node is named by its entity and
/// its per-entity node ordinal (0, 1, 2, ... in time order), not by its
/// timestamp, which is read through dc:hasTimestamp; the pair is packed
/// into an inline TermId (see kInlineTermBit), so node IRIs never enter
/// the dictionary unless the entity or ordinal is 2^30 or more.
std::string EntityIri(std::uint32_t entity_id);
std::string PositionNodeIri(std::uint32_t entity_id, std::uint64_t ordinal);
std::string TrajectoryIri(std::uint32_t entity_id);
std::string CellIri(std::int32_t ix, std::int32_t iy);
std::string BucketIri(std::int64_t bucket_index);
std::string WeatherIri(std::int32_t ix, std::int32_t iy,
                       std::int64_t bucket_index);
std::string AreaIri(const std::string& name);
std::string EventIri(std::uint64_t event_seq);
std::string EpisodeIri(std::uint32_t entity_id, std::int64_t start_time);

}  // namespace datacron

#endif  // DATACRON_RDF_VOCAB_H_
