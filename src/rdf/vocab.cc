#include "rdf/vocab.h"

#include "common/strings.h"

namespace datacron {

Vocab::Vocab(TermDictionary* d) : dict(d) {
  c_vessel = d->Intern("dc:Vessel");
  c_aircraft = d->Intern("dc:Aircraft");
  c_position_node = d->Intern("dc:PositionNode");
  c_trajectory = d->Intern("dc:Trajectory");
  c_weather_obs = d->Intern("dc:WeatherObservation");
  c_event = d->Intern("dc:Event");
  c_area = d->Intern("dc:Area");

  p_type = d->Intern("rdf:type");
  p_of_entity = d->Intern("dc:ofMovingObject");
  p_timestamp = d->Intern("dc:hasTimestamp");
  p_lat = d->Intern("dc:hasLatitude");
  p_lon = d->Intern("dc:hasLongitude");
  p_alt = d->Intern("dc:hasAltitude");
  p_speed = d->Intern("dc:hasSpeed");
  p_course = d->Intern("dc:hasCourse");
  p_vrate = d->Intern("dc:hasVerticalRate");
  p_node_kind = d->Intern("dc:hasNodeKind");
  p_in_cell = d->Intern("dc:inSpatialCell");
  p_in_bucket = d->Intern("dc:inTimeBucket");
  p_has_node = d->Intern("dc:hasNode");
  p_next_node = d->Intern("dc:hasNextNode");

  p_wind_u = d->Intern("dc:windU");
  p_wind_v = d->Intern("dc:windV");
  p_wave_height = d->Intern("dc:waveHeight");

  p_near_entity = d->Intern("dc:nearEntity");
  p_within_area = d->Intern("dc:withinArea");
  p_weather_at = d->Intern("dc:experiencedWeather");

  p_event_kind = d->Intern("dc:eventKind");
  p_involves = d->Intern("dc:involves");
  p_event_start = d->Intern("dc:eventStart");
  p_event_end = d->Intern("dc:eventEnd");

  c_episode = d->Intern("dc:Episode");
  p_episode_kind = d->Intern("dc:episodeKind");
  p_episode_start = d->Intern("dc:episodeStart");
  p_episode_end = d->Intern("dc:episodeEnd");
  p_path_length = d->Intern("dc:pathLength");
}

std::string EntityIri(std::uint32_t entity_id) {
  return StrFormat("ent:%u", entity_id);
}

std::string PositionNodeIri(std::uint32_t entity_id, std::uint64_t ordinal) {
  return StrFormat("node:%u#%llu", entity_id,
                   static_cast<unsigned long long>(ordinal));
}

std::string TrajectoryIri(std::uint32_t entity_id) {
  return StrFormat("traj:%u", entity_id);
}

std::string CellIri(std::int32_t ix, std::int32_t iy) {
  return StrFormat("cell:%d_%d", ix, iy);
}

std::string BucketIri(std::int64_t bucket_index) {
  return StrFormat("bucket:%lld", static_cast<long long>(bucket_index));
}

std::string WeatherIri(std::int32_t ix, std::int32_t iy,
                       std::int64_t bucket_index) {
  return StrFormat("wx:%d_%d/%lld", ix, iy,
                   static_cast<long long>(bucket_index));
}

std::string AreaIri(const std::string& name) { return "area:" + name; }

std::string EventIri(std::uint64_t event_seq) {
  return StrFormat("evt:%llu", static_cast<unsigned long long>(event_seq));
}

std::string EpisodeIri(std::uint32_t entity_id, std::int64_t start_time) {
  return StrFormat("ep:%u/%lld", entity_id,
                   static_cast<long long>(start_time));
}

}  // namespace datacron
