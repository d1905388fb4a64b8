#ifndef DATACRON_TRAJECTORY_EPISODES_H_
#define DATACRON_TRAJECTORY_EPISODES_H_

#include <map>
#include <string>
#include <vector>

#include "geo/polygon.h"
#include "sources/model.h"
#include "synopses/critical_points.h"

namespace datacron {

/// Episode kinds of a *semantic trajectory* — datAcron's flagship data
/// model: instead of raw point sequences, a trajectory is a sequence of
/// meaningful episodes (stopped here, moved there, went dark in between),
/// each annotatable against geography.
enum class EpisodeKind : std::uint8_t { kStop = 0, kMove, kGap };

const char* EpisodeKindName(EpisodeKind kind);

/// One episode of an entity's semantic trajectory.
struct Episode {
  EntityId entity = 0;
  EpisodeKind kind = EpisodeKind::kMove;
  TimestampMs start_time = 0;
  TimestampMs end_time = 0;
  GeoPoint start_pos;
  GeoPoint end_pos;
  /// Name of the area the episode's anchor position falls in (stop
  /// episodes: the stop location; move/gap: empty unless fully inside).
  std::string area;
  /// Straight-line displacement (meters); moves also accumulate the
  /// critical-point path length in `path_m`.
  double displacement_m = 0.0;
  double path_m = 0.0;

  DurationMs Duration() const { return end_time - start_time; }

  /// Field-wise equality; lets tests assert byte-identity of episode
  /// streams across serial and sharded engine runs.
  bool operator==(const Episode&) const = default;
};

/// Derives episodes from the critical-point synopsis (not the raw stream —
/// the synopsis already marks stop/gap boundaries, which is exactly why
/// the in-situ layer keeps those points). Handles interleaved entities.
/// Stops are annotated against `areas` by their anchor position.
class EpisodeBuilder {
 public:
  /// All state is per entity: safe to shard by entity. (Not an Operator
  /// subclass, but placed like one by the sharded engine.)
  static constexpr StageKind kStage = StageKind::kKeyed;

  explicit EpisodeBuilder(std::vector<NamedArea> areas = {});

  /// Consumes one critical point; completed episodes are appended to
  /// `out`. Call Flush() to close trailing episodes.
  void Process(const CriticalPoint& cp, std::vector<Episode>* out);

  void Flush(std::vector<Episode>* out);

  /// Flush() for one entity: closes its trailing episode, if any.
  void Flush(EntityId entity, std::vector<Episode>* out);

  /// Convenience: run a whole synopsis batch.
  std::vector<Episode> Build(const std::vector<CriticalPoint>& synopsis);

 private:
  struct EntityState {
    bool open = false;
    Episode current;
  };

  /// Area containing p, or "".
  std::string AreaOf(const LatLon& p) const;

  void Open(EntityState* st, const CriticalPoint& cp, EpisodeKind kind);
  void Close(EntityState* st, const CriticalPoint& cp,
             std::vector<Episode>* out);

  std::vector<NamedArea> areas_;
  std::map<EntityId, EntityState> state_;
};

/// Compact one-line rendering ("STOP 12min @port_x", "MOVE 8.2km ...").
std::string ToString(const Episode& episode);

}  // namespace datacron

#endif  // DATACRON_TRAJECTORY_EPISODES_H_
