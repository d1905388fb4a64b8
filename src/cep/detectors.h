#ifndef DATACRON_CEP_DETECTORS_H_
#define DATACRON_CEP_DETECTORS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "cep/cpa.h"
#include "cep/event.h"
#include "cep/fleet_snapshot.h"
#include "common/flat_hash.h"
#include "common/thread_pool.h"
#include "geo/grid.h"
#include "geo/kernels.h"
#include "geo/polygon.h"
#include "obs/metrics.h"
#include "stream/operator.h"

namespace datacron {

/// Streaming encounter + collision-forecast detector.
///
/// Keeps the latest report per entity in a spatial grid; each incoming
/// report is checked against its grid neighborhood:
///  - current distance < encounter threshold  -> kEncounter
///  - CPA within lookahead & below the danger radius -> kCollisionForecast
/// Re-alarms for the same pair are suppressed for `realarm_interval`.
///
/// Two entry points share one batch pipeline (plan -> CPA eval -> emit):
/// Process() runs it over a single report, ProcessBatch() over an epoch
/// of reports with the CPA evaluations fanned out over grid cells on a
/// ThreadPool. The plan and emit passes are serial and replay input
/// order, so batch output is byte-identical to calling Process() per
/// report — the serial path is literally the batch-of-one case.
class ProximityDetector : public Operator<PositionReport, Event> {
 public:
  /// Pair state spans entities: must see the whole stream.
  static constexpr StageKind kStage = StageKind::kGlobal;

  struct Config {
    BoundingBox region = BoundingBox::Of(35.0, 23.0, 39.0, 27.0);
    /// Encounter distance.
    double encounter_m = 2000.0;
    /// Collision forecast: horizontal danger radius at CPA...
    double danger_cpa_m = 500.0;
    /// ...within this lookahead.
    DurationMs cpa_lookahead = 20 * kMinute;
    /// Vertical separation below which aviation pairs are in conflict.
    double danger_alt_m = 300.0;
    /// A stored report older than this is ignored as a partner.
    DurationMs staleness = 3 * kMinute;
    DurationMs realarm_interval = 5 * kMinute;
    /// Grid cell sizing: covers max(encounter, lookahead reach) blocking.
    double blocking_cell_deg = 0.05;
    /// Reports between eviction sweeps of entities staler than
    /// `staleness` (bounds detector state on long-running fleets). The
    /// sweep runs at identical report counts on the serial and batch
    /// paths, so it never perturbs serial/batch equivalence.
    std::size_t evict_sweep_interval = 1024;
    /// Below this many candidate pairs a batch is evaluated inline even
    /// when a pool is available (dispatch would cost more than the math).
    std::size_t min_parallel_pairs = 256;
  };

  explicit ProximityDetector(Config config);

  void Process(const PositionReport& report,
               std::vector<Event>* out) override;

  /// Epoch-batched form: plans candidate pairs serially in input order,
  /// evaluates CPA per grid-cell group in parallel on `pool` (inline when
  /// null), then rate-limits and emits serially in input order. Events
  /// append to `events`; when `offsets` is non-null it receives
  /// reports.size()+1 cumulative event positions so the caller can splice
  /// per-report slices back into a serial-identical interleaving.
  void ProcessBatch(std::span<const PositionReport> reports,
                    ThreadPool* pool, std::vector<Event>* events,
                    std::vector<std::size_t>* offsets);

  /// ProcessBatch + operator-metrics accounting (per-item items_in/out;
  /// the batch's cost is split evenly into one latency sample per item).
  void ProcessBatchCounted(std::span<const PositionReport> reports,
                           ThreadPool* pool, std::vector<Event>* events,
                           std::vector<std::size_t>* offsets);

  /// Introspection for state-bound tests and benches.
  struct StateStats {
    std::size_t tracked_entities = 0;
    /// Rows in the SoA snapshot log (>= tracked until compaction).
    std::size_t snapshot_rows = 0;
    std::size_t occupied_cells = 0;
    std::size_t rate_entries = 0;
  };
  StateStats Stats() const;

  /// Candidate CPA pairs evaluated by the most recent batch (bench).
  std::size_t last_batch_pairs() const { return candidates_.size(); }

 private:
  /// One planned CPA evaluation: latest-row indices into fleet_ for the
  /// incoming report (a) and its partner (b) at plan time. Snapshot rows
  /// are immutable, so the pair can be evaluated on any thread later.
  /// Aliased to the batch kernel's pair type so a planned slice feeds
  /// ComputeCpaBatch directly.
  using Candidate = CpaPair;

  void RunBatch(std::span<const PositionReport> reports, ThreadPool* pool,
                std::vector<Event>* events,
                std::vector<std::size_t>* offsets);
  /// Serial plan step for one report: re-files it in the blocking grid,
  /// appends its snapshot row, collects candidate partners, assigns the
  /// report to its cell's evaluation group, and runs the amortized
  /// eviction sweep when due.
  void PlanReport(const PositionReport& report);
  /// Drops entities staler than `staleness` by rebuilding the
  /// tombstone-free maps. Plan-coupled: runs mid-plan at sweep points.
  void EvictStaleEntities();
  /// Drops rate-limit entries older than the re-alarm interval relative
  /// to `watermark`. Emit-coupled: the plan pass only schedules it (see
  /// pending_prunes_); the emit pass replays it at the exact report index
  /// a serial run would have pruned at.
  void PruneRateMaps(TimestampMs watermark);
  /// Rewrites fleet_ to live rows only when the append log has bloated
  /// past ~2x the live fleet. Runs only between batches (mid-batch rows
  /// are referenced by candidates).
  void CompactSnapshotIfBloated(std::size_t incoming);

  Config config_;
  UniformGrid grid_;
  /// Append-only SoA log of processed reports; latest_row_ points at the
  /// current row per entity.
  FleetSnapshot fleet_;
  FlatHashMap<EntityId, std::uint32_t> latest_row_;
  /// Entity -> GridCell::Key() it is filed under.
  FlatHashMap<EntityId, std::uint64_t> entity_cell_;
  /// GridCell::Key() -> entities currently filed there.
  FlatHashMap<std::uint64_t, std::vector<EntityId>> cell_members_;
  /// Packed (min,max) entity pair -> last alarm time, per alarm family.
  FlatHashMap<std::uint64_t, TimestampMs> last_encounter_;
  FlatHashMap<std::uint64_t, TimestampMs> last_collision_;
  TimestampMs watermark_ = 0;
  bool has_watermark_ = false;
  std::size_t reports_since_sweep_ = 0;

  /// Rate-map prune scheduled by the plan pass for the emit pass.
  struct PendingPrune {
    std::uint32_t report_idx = 0;
    TimestampMs watermark = 0;
  };

  // Per-batch scratch, reused across batches to avoid reallocation.
  std::vector<PendingPrune> pending_prunes_;
  std::vector<Candidate> candidates_;
  /// candidates_ prefix end per planned report (report i owns
  /// [cand_end_[i-1], cand_end_[i])).
  std::vector<std::size_t> cand_end_;
  std::vector<CpaResult> cpa_;
  /// Cell key -> evaluation-group index for the current batch.
  FlatHashMap<std::uint64_t, std::uint32_t> cell_group_;
  /// Group -> indices of planned reports in that cell (first
  /// `live_groups_` entries are active this batch).
  std::vector<std::vector<std::uint32_t>> groups_;
  std::size_t live_groups_ = 0;

  obs::Counter* cpa_pairs_counter_;
  obs::AtomicLogHistogram* cpa_pairs_hist_;
};

/// Area entry/exit recognizer over named polygons.
class AreaEventDetector : public Operator<PositionReport, Event> {
 public:
  /// Inside/outside state is per (entity, area): safe to shard by entity.
  static constexpr StageKind kStage = StageKind::kKeyed;

  explicit AreaEventDetector(std::vector<NamedArea> areas);

  void Process(const PositionReport& report,
               std::vector<Event>* out) override;

 private:
  std::vector<NamedArea> areas_;
  /// (entity, area index) -> inside?
  std::map<std::pair<EntityId, std::size_t>, bool> inside_;
};

/// Loitering: the entity keeps reporting with nonzero speed but its net
/// displacement over the window stays under the radius.
class LoiteringDetector : public Operator<PositionReport, Event> {
 public:
  /// Displacement window is per entity: safe to shard by entity.
  static constexpr StageKind kStage = StageKind::kKeyed;

  struct Config {
    DurationMs window = 20 * kMinute;
    double radius_m = 1000.0;
    /// Entity must be nominally under way (anchored vessels don't loiter).
    double min_speed_mps = 0.5;
    DurationMs realarm_interval = 30 * kMinute;
  };

  explicit LoiteringDetector(Config config);

  void Process(const PositionReport& report,
               std::vector<Event>* out) override;

 private:
  Config config_;
  std::map<EntityId, std::deque<PositionReport>> window_;
  std::map<EntityId, TimestampMs> last_alarm_;
};

/// Sector occupancy monitor with demand forecasting (the ATM use case:
/// "prediction of ... capacity demand"). Occupancy is evaluated per
/// entity report; when the number of entities currently inside a sector
/// exceeds its capacity -> kCapacityWarning. Dead-reckoning entities
/// `forecast_horizon` ahead gives predicted occupancy ->
/// kCapacityForecast before the overload happens.
///
/// Occupancy is maintained *incrementally*: each report retires the
/// entity's previous sector contributions and adds its new ones (plus a
/// staleness-expiry heap), so per-report cost is O(sectors) regardless of
/// fleet size. CapacityRescanOracle (cep/capacity_oracle.h) is the
/// O(fleet x sectors) rescan it must match.
class CapacityMonitor : public Operator<PositionReport, Event> {
 public:
  /// Sector occupancy counts all entities: must see the whole stream.
  static constexpr StageKind kStage = StageKind::kGlobal;

  struct Sector {
    std::string name;
    Polygon polygon;
    int capacity = 10;
  };
  struct Config {
    DurationMs forecast_horizon = 10 * kMinute;
    /// Entities unseen for longer are dropped from occupancy.
    DurationMs staleness = 5 * kMinute;
    DurationMs realarm_interval = 5 * kMinute;
    /// Fastest entity the evaluation prefilter must account for: sector
    /// alarm checks consider any report within
    /// max_speed_mps * forecast_horizon (plus a margin) of the sector
    /// bbox, so a fast mover can trigger a forecast for a sector it can
    /// dead-reckon into even while still outside it. 350 m/s covers
    /// airliner cruise; maritime-only deployments may lower it.
    double max_speed_mps = 350.0;
    /// Reports between amortized rebuilds dropping expired entities.
    std::size_t compact_interval = 4096;
  };

  CapacityMonitor(std::vector<Sector> sectors, Config config);

  void Process(const PositionReport& report,
               std::vector<Event>* out) override;

  /// Entities currently contributing to occupancy (tests).
  std::size_t tracked_entities() const { return active_entities_; }

 private:
  /// The reference rescan shares the evaluation gate and alarm state.
  friend class CapacityRescanOracle;

  /// Per-entity contribution ledger.
  struct EntityState {
    TimestampMs ts = 0;
    /// Bumped on every update; expiry-heap entries carry the version they
    /// were pushed for, so superseded entries are ignored on pop.
    std::uint32_t version = 0;
    bool active = false;
    /// Sector indices this entity currently counts toward.
    std::vector<std::uint32_t> inside;
    std::vector<std::uint32_t> predicted;
  };
  struct Expiry {
    TimestampMs at = 0;
    EntityId entity = 0;
    std::uint32_t version = 0;
  };
  /// Comparator making std::push_heap/pop_heap a min-heap on `at`.
  static bool HeapLater(const Expiry& a, const Expiry& b) {
    return a.at > b.at;
  }

  /// Removes `st`'s sector contributions from the counters.
  void Retire(EntityState* st);
  /// Pops every entity whose latest report has gone stale as of
  /// `watermark_` and retires its contributions.
  void ExpireStale();
  /// Emits warning/forecast events for sectors near the report, from
  /// the given per-sector counts.
  void EmitAlarms(const PositionReport& report,
                  std::span<const int> occupancy,
                  std::span<const int> predicted, std::vector<Event>* out);
  void CompactEntities();

  std::vector<Sector> sectors_;
  Config config_;
  /// Per-sector alarm-evaluation gate: sector bbox inflated by the
  /// dead-reckoning reach (max_speed_mps x forecast_horizon), never less
  /// than the legacy 0.5 deg margin.
  std::vector<BoundingBox> eval_bbox_;
  /// Same boxes as SIMD lanes, plus per-report hit bytes (scratch):
  /// one batched containment test replaces the per-sector predicate in
  /// the rescan/alarm loops. Bit-identical kernel, so gating decisions
  /// are unchanged.
  BboxSoa eval_bbox_soa_;
  std::vector<std::uint8_t> bbox_near_;

  FlatHashMap<EntityId, EntityState> entities_;
  std::vector<int> occupancy_;
  std::vector<int> predicted_;
  /// Min-heap on `at` (std::greater via HeapLater).
  std::vector<Expiry> expiry_;
  TimestampMs watermark_ = 0;
  bool has_watermark_ = false;
  std::size_t active_entities_ = 0;
  std::size_t reports_since_compact_ = 0;

  FlatHashMap<std::size_t, TimestampMs> last_warning_;
  FlatHashMap<std::size_t, TimestampMs> last_forecast_;

  obs::Counter* delta_updates_counter_;
};

}  // namespace datacron

#endif  // DATACRON_CEP_DETECTORS_H_
