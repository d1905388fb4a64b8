#include "trajectory/episodes.h"

#include "common/strings.h"
#include "geo/geo.h"

namespace datacron {

const char* EpisodeKindName(EpisodeKind kind) {
  switch (kind) {
    case EpisodeKind::kStop:
      return "stop";
    case EpisodeKind::kMove:
      return "move";
    case EpisodeKind::kGap:
      return "gap";
  }
  return "?";
}

EpisodeBuilder::EpisodeBuilder(std::vector<NamedArea> areas)
    : areas_(std::move(areas)) {}

std::string EpisodeBuilder::AreaOf(const LatLon& p) const {
  for (const NamedArea& a : areas_) {
    if (a.polygon.Contains(p)) return a.name;
  }
  return "";
}

void EpisodeBuilder::Open(EntityState* st, const CriticalPoint& cp,
                          EpisodeKind kind) {
  st->open = true;
  st->current = Episode();
  st->current.entity = cp.report.entity_id;
  st->current.kind = kind;
  st->current.start_time = cp.report.timestamp;
  st->current.start_pos = cp.report.position;
  st->current.end_time = cp.report.timestamp;
  st->current.end_pos = cp.report.position;
}

void EpisodeBuilder::Close(EntityState* st, const CriticalPoint& cp,
                           std::vector<Episode>* out) {
  if (!st->open) return;
  Episode& e = st->current;
  e.path_m +=
      HaversineMeters(e.end_pos.ll(), cp.report.position.ll());
  e.end_time = cp.report.timestamp;
  e.end_pos = cp.report.position;
  e.displacement_m = HaversineMeters(e.start_pos.ll(), e.end_pos.ll());
  // Stops are annotated by their anchor; moves/gaps only when both ends
  // share an area (fully-inside semantics).
  if (e.kind == EpisodeKind::kStop) {
    e.area = AreaOf(e.start_pos.ll());
  } else {
    const std::string a = AreaOf(e.start_pos.ll());
    if (!a.empty() && a == AreaOf(e.end_pos.ll())) e.area = a;
  }
  out->push_back(e);
  st->open = false;
}

void EpisodeBuilder::Process(const CriticalPoint& cp,
                             std::vector<Episode>* out) {
  EntityState& st = state_[cp.report.entity_id];
  // Accumulate path length of the running episode.
  if (st.open) {
    st.current.path_m += HaversineMeters(st.current.end_pos.ll(),
                                         cp.report.position.ll());
    st.current.end_pos = cp.report.position;
    st.current.end_time = cp.report.timestamp;
  }
  switch (cp.type) {
    case CriticalPointType::kTrajectoryStart:
      Open(&st, cp,
           cp.report.speed_mps < 0.25 ? EpisodeKind::kStop
                                      : EpisodeKind::kMove);
      break;
    case CriticalPointType::kStopStart:
      Close(&st, cp, out);
      Open(&st, cp, EpisodeKind::kStop);
      break;
    case CriticalPointType::kStopEnd:
      Close(&st, cp, out);
      Open(&st, cp, EpisodeKind::kMove);
      break;
    case CriticalPointType::kGapStart:
      Close(&st, cp, out);
      Open(&st, cp, EpisodeKind::kGap);
      break;
    case CriticalPointType::kGapEnd:
      Close(&st, cp, out);
      Open(&st, cp, EpisodeKind::kMove);
      break;
    case CriticalPointType::kTrajectoryEnd:
      Close(&st, cp, out);
      break;
    case CriticalPointType::kTurningPoint:
    case CriticalPointType::kSpeedChange:
    case CriticalPointType::kAltitudeChange:
    case CriticalPointType::kHeartbeat:
      // Interior points only extend the running episode (handled above);
      // if nothing is open (stream started mid-trajectory) open a move.
      if (!st.open) Open(&st, cp, EpisodeKind::kMove);
      break;
  }
}

void EpisodeBuilder::Flush(std::vector<Episode>* out) {
  while (!state_.empty()) Flush(state_.begin()->first, out);
}

void EpisodeBuilder::Flush(EntityId entity, std::vector<Episode>* out) {
  const auto it = state_.find(entity);
  if (it == state_.end()) return;
  if (it->second.open) {
    Episode& e = it->second.current;
    e.displacement_m = HaversineMeters(e.start_pos.ll(), e.end_pos.ll());
    if (e.kind == EpisodeKind::kStop) e.area = AreaOf(e.start_pos.ll());
    out->push_back(e);
  }
  state_.erase(it);
}

std::vector<Episode> EpisodeBuilder::Build(
    const std::vector<CriticalPoint>& synopsis) {
  std::vector<Episode> out;
  for (const CriticalPoint& cp : synopsis) Process(cp, &out);
  Flush(&out);
  return out;
}

std::string ToString(const Episode& e) {
  std::string out = StrFormat(
      "%s[%u] %s %lldmin", EpisodeKindName(e.kind), e.entity,
      FormatIso8601(e.start_time).c_str(),
      static_cast<long long>(e.Duration() / kMinute));
  if (e.kind == EpisodeKind::kMove) {
    out += StrFormat(" %.1fkm", e.path_m / 1000.0);
  }
  if (!e.area.empty()) out += " @" + e.area;
  return out;
}

}  // namespace datacron
