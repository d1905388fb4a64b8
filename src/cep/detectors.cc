#include "cep/detectors.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/trace.h"

namespace datacron {

namespace {

/// Packed order-free pair key: (max << 32) | min. EntityId is uint32, so
/// the pair fits one FlatHashMap u64 key.
std::uint64_t PairKey(EntityId a, EntityId b) {
  const std::uint64_t lo = a < b ? a : b;
  const std::uint64_t hi = a < b ? b : a;
  return (hi << 32) | lo;
}

/// Rate-limits alarms per key; returns true when a new alarm may fire.
template <typename Key>
bool MayAlarm(std::map<Key, TimestampMs>* last, const Key& key,
              TimestampMs now, DurationMs interval) {
  auto it = last->find(key);
  if (it != last->end() && now - it->second < interval) return false;
  (*last)[key] = now;
  return true;
}

/// FlatHashMap flavor used by the global detectors.
template <typename Key>
bool MayAlarm(FlatHashMap<Key, TimestampMs>* last, const Key& key,
              TimestampMs now, DurationMs interval) {
  TimestampMs* at = last->Find(key);
  if (at != nullptr) {
    if (now - *at < interval) return false;
    *at = now;
    return true;
  }
  (*last)[key] = now;
  return true;
}

}  // namespace

ProximityDetector::ProximityDetector(Config config)
    : Operator<PositionReport, Event>("proximity_detector"),
      config_(config),
      grid_(config.region, config.blocking_cell_deg),
      cpa_pairs_counter_(
          obs::MetricsRegistry::Global().counter("cep.cpa_pairs")),
      cpa_pairs_hist_(obs::MetricsRegistry::Global().histogram(
          "cep.cpa_pairs_per_epoch")) {}

void ProximityDetector::Process(const PositionReport& report,
                                std::vector<Event>* out) {
  RunBatch(std::span<const PositionReport>(&report, 1), nullptr, out,
           nullptr);
}

void ProximityDetector::ProcessBatch(std::span<const PositionReport> reports,
                                     ThreadPool* pool,
                                     std::vector<Event>* events,
                                     std::vector<std::size_t>* offsets) {
  RunBatch(reports, pool, events, offsets);
}

void ProximityDetector::ProcessBatchCounted(
    std::span<const PositionReport> reports, ThreadPool* pool,
    std::vector<Event>* events, std::vector<std::size_t>* offsets) {
  const std::size_t before = events->size();
  const std::int64_t t0 = MonotonicNanos();
  RunBatch(reports, pool, events, offsets);
  CountBatch(reports.size(), events->size() - before,
             MonotonicNanos() - t0);
}

void ProximityDetector::PlanReport(const PositionReport& report) {
  if (!has_watermark_ || report.timestamp > watermark_) {
    watermark_ = report.timestamp;
    has_watermark_ = true;
  }
  // Amortized state bound. The sweep triggers at identical report counts
  // on the serial (batch-of-one) and epoch-batched paths, so both see the
  // same membership state for every report. Entity eviction is
  // plan-coupled (it shapes candidate generation) and runs here; the
  // rate-limit prune is emit-coupled — the plan pass runs ahead of the
  // emit pass within an epoch, and pruning with this (future) watermark
  // would drop entries that must still suppress earlier reports' alarms —
  // so it is deferred to the emit pass at exactly this report index.
  if (++reports_since_sweep_ >= config_.evict_sweep_interval) {
    reports_since_sweep_ = 0;
    EvictStaleEntities();
    pending_prunes_.push_back(PendingPrune{
        static_cast<std::uint32_t>(cand_end_.size()), watermark_});
  }

  // Re-file the entity in the grid.
  const GridCell cell = grid_.CellOf(report.position.ll());
  const std::uint64_t cell_key = cell.Key();
  std::uint64_t* filed = entity_cell_.Find(report.entity_id);
  if (filed == nullptr || *filed != cell_key) {
    if (filed != nullptr) {
      std::vector<EntityId>* members = cell_members_.Find(*filed);
      if (members != nullptr) {
        members->erase(std::remove(members->begin(), members->end(),
                                   report.entity_id),
                       members->end());
      }
      *filed = cell_key;
    } else {
      entity_cell_[report.entity_id] = cell_key;
    }
    cell_members_[cell_key].push_back(report.entity_id);
  }
  const std::uint32_t a_row = fleet_.Append(report);
  latest_row_[report.entity_id] = a_row;

  // Assign the report to its cell's evaluation group; all CPA work of one
  // cell runs on one pool task.
  const std::uint32_t report_idx = static_cast<std::uint32_t>(
      cand_end_.size());
  std::uint32_t group;
  if (const std::uint32_t* g = cell_group_.Find(cell_key)) {
    group = *g;
  } else {
    group = static_cast<std::uint32_t>(live_groups_);
    if (groups_.size() == live_groups_) {
      groups_.emplace_back();
    } else {
      groups_[live_groups_].clear();
    }
    ++live_groups_;
    cell_group_[cell_key] = group;
  }
  groups_[group].push_back(report_idx);

  // Candidate partners from the own cell then the 3x3 neighborhood, in
  // the same order the per-report walk used to check them.
  auto consider = [&](EntityId other_id) {
    if (other_id == report.entity_id) return;
    const std::uint32_t* row = latest_row_.Find(other_id);
    // A member without a row was evicted; never default-insert a blank
    // report for an unknown id (the old code's latest_[other_id] bug).
    if (row == nullptr) return;
    if (report.timestamp - fleet_.ts[*row] > config_.staleness) return;
    // Different domains never conflict (vessels vs aircraft).
    if (fleet_.domain[*row] != static_cast<std::uint8_t>(report.domain)) {
      return;
    }
    candidates_.push_back(Candidate{a_row, *row});
  };
  if (const std::vector<EntityId>* own = cell_members_.Find(cell_key)) {
    for (EntityId other : *own) consider(other);
  }
  for (const GridCell& nb : grid_.Neighbors(cell)) {
    const std::vector<EntityId>* members = cell_members_.Find(nb.Key());
    if (members == nullptr) continue;
    for (EntityId other : *members) consider(other);
  }
  cand_end_.push_back(candidates_.size());
}

void ProximityDetector::RunBatch(std::span<const PositionReport> reports,
                                 ThreadPool* pool, std::vector<Event>* events,
                                 std::vector<std::size_t>* offsets) {
  const std::size_t n = reports.size();
  candidates_.clear();
  cand_end_.clear();
  cand_end_.reserve(n);
  cell_group_.Clear();
  live_groups_ = 0;
  pending_prunes_.clear();
  CompactSnapshotIfBloated(n);

  // Plan pass — serial, in input order: replays the exact per-report grid
  // and latest-state mutations of a serial run, recording each candidate
  // pair as (row, row) into the immutable snapshot log. Partner rows are
  // captured at plan time, so a later report of the same entity in the
  // same batch never changes an earlier report's pairing.
  for (const PositionReport& r : reports) PlanReport(r);

  // Evaluation pass — pure math over disjoint result slots, partitioned
  // by grid cell. Any schedule of the groups writes the same cpa_ values,
  // so parallelism cannot perturb output.
  cpa_.resize(candidates_.size());
  cpa_pairs_counter_->Add(candidates_.size());
  cpa_pairs_hist_->Observe(static_cast<double>(candidates_.size()));
  {
    DATACRON_TRACE_SPAN("cep.cpa_pairs", "cep");
    auto eval_group = [this](std::size_t g) {
      for (const std::uint32_t ri : groups_[g]) {
        const std::size_t begin = ri == 0 ? 0 : cand_end_[ri - 1];
        const std::size_t len = cand_end_[ri] - begin;
        if (len == 0) continue;
        // SIMD batch over the report's planned slice; lanes are
        // bit-identical to the per-pair ComputeCpa this replaced.
        ComputeCpaBatch(fleet_, candidates_.data() + begin, len,
                        cpa_.data() + begin);
      }
    };
    if (pool != nullptr && live_groups_ > 1 &&
        candidates_.size() >= config_.min_parallel_pairs) {
      pool->ParallelFor(live_groups_, eval_group);
    } else {
      for (std::size_t g = 0; g < live_groups_; ++g) eval_group(g);
    }
  }

  // Emit pass — serial, in input order: rate limiting and event
  // construction see reports in exactly the serial sequence.
  if (offsets != nullptr) {
    offsets->clear();
    offsets->reserve(n + 1);
    offsets->push_back(events->size());
  }
  std::size_t next_prune = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // Replay rate-map prunes at the report index where the plan pass
    // scheduled them, with the watermark the serial run used there.
    while (next_prune < pending_prunes_.size() &&
           pending_prunes_[next_prune].report_idx == i) {
      PruneRateMaps(pending_prunes_[next_prune].watermark);
      ++next_prune;
    }
    const PositionReport& report = reports[i];
    const std::size_t begin = i == 0 ? 0 : cand_end_[i - 1];
    for (std::size_t c = begin; c < cand_end_[i]; ++c) {
      const Candidate& cand = candidates_[c];
      const CpaResult& cpa = cpa_[c];
      const EntityId other_id = fleet_.entity[cand.b_row];
      const bool vertical_relevant = report.domain == Domain::kAviation;
      if (cpa.d_now_m <= config_.encounter_m &&
          (!vertical_relevant ||
           std::fabs(report.position.alt_m - fleet_.alt_m[cand.b_row]) <=
               config_.danger_alt_m * 3)) {
        if (MayAlarm(&last_encounter_, PairKey(report.entity_id, other_id),
                     report.timestamp, config_.realarm_interval)) {
          Event e;
          e.kind = EventKind::kEncounter;
          e.time = report.timestamp;
          e.predicted_time = report.timestamp;
          e.entities = {report.entity_id, other_id};
          e.position = report.position;
          e.attributes["distance_m"] = cpa.d_now_m;
          events->push_back(std::move(e));
        }
      }

      if (cpa.t_cpa_s > 0 &&
          cpa.t_cpa_s * 1000 <= config_.cpa_lookahead &&
          cpa.d_cpa_m <= config_.danger_cpa_m &&
          (!vertical_relevant || cpa.d_alt_m <= config_.danger_alt_m)) {
        if (MayAlarm(&last_collision_, PairKey(report.entity_id, other_id),
                     report.timestamp, config_.realarm_interval)) {
          Event e;
          e.kind = EventKind::kCollisionForecast;
          e.time = report.timestamp;
          e.predicted_time =
              report.timestamp + static_cast<TimestampMs>(cpa.t_cpa_s * 1000);
          e.entities = {report.entity_id, other_id};
          e.position = report.position;
          e.attributes["cpa_m"] = cpa.d_cpa_m;
          e.attributes["d_now_m"] = cpa.d_now_m;
          if (vertical_relevant) e.attributes["cpa_alt_m"] = cpa.d_alt_m;
          events->push_back(std::move(e));
        }
      }
    }
    if (offsets != nullptr) offsets->push_back(events->size());
  }
}

void ProximityDetector::EvictStaleEntities() {
  // An entity whose latest report is stale can never pass the partner
  // staleness gate again on a time-ordered stream, so dropping it is
  // event-neutral. The maps are rebuilt wholesale because FlatHashMap
  // probing is tombstone-free (no per-entry erase).
  bool any_stale = false;
  latest_row_.ForEach([&](EntityId, const std::uint32_t& row) {
    if (watermark_ - fleet_.ts[row] > config_.staleness) any_stale = true;
  });
  if (any_stale) {
    FlatHashMap<EntityId, std::uint32_t> live;
    live.Reserve(latest_row_.size());
    latest_row_.ForEach([&](EntityId id, const std::uint32_t& row) {
      if (watermark_ - fleet_.ts[row] <= config_.staleness) live[id] = row;
    });
    FlatHashMap<EntityId, std::uint64_t> cells;
    cells.Reserve(live.size());
    entity_cell_.ForEach([&](EntityId id, const std::uint64_t& cell) {
      if (live.Contains(id)) cells[id] = cell;
    });
    FlatHashMap<std::uint64_t, std::vector<EntityId>> members;
    members.Reserve(cell_members_.size());
    cell_members_.ForEach(
        [&](std::uint64_t key, const std::vector<EntityId>& ids) {
          std::vector<EntityId> kept;
          kept.reserve(ids.size());
          for (EntityId id : ids) {
            if (live.Contains(id)) kept.push_back(id);
          }
          if (!kept.empty()) members[key] = std::move(kept);
        });
    latest_row_ = std::move(live);
    entity_cell_ = std::move(cells);
    cell_members_ = std::move(members);
  }
}

void ProximityDetector::PruneRateMaps(TimestampMs watermark) {
  // A rate-limit entry older than the re-alarm interval can never
  // suppress again, so dropping it is event-neutral — but only against
  // the watermark the serial run would have pruned with, which the emit
  // pass supplies.
  auto prune = [&](FlatHashMap<std::uint64_t, TimestampMs>* map) {
    bool any_dead = false;
    map->ForEach([&](std::uint64_t, const TimestampMs& t) {
      if (watermark - t >= config_.realarm_interval) any_dead = true;
    });
    if (!any_dead) return;
    FlatHashMap<std::uint64_t, TimestampMs> kept;
    kept.Reserve(map->size());
    map->ForEach([&](std::uint64_t key, const TimestampMs& t) {
      if (watermark - t < config_.realarm_interval) kept[key] = t;
    });
    *map = std::move(kept);
  };
  prune(&last_encounter_);
  prune(&last_collision_);
}

void ProximityDetector::CompactSnapshotIfBloated(std::size_t incoming) {
  const std::size_t projected = fleet_.size() + incoming;
  if (projected < 4096 ||
      projected < latest_row_.size() * 2 + incoming) {
    return;
  }
  FleetSnapshot compact;
  compact.Reserve(latest_row_.size() + incoming);
  FlatHashMap<EntityId, std::uint32_t> rows;
  rows.Reserve(latest_row_.size());
  latest_row_.ForEach([&](EntityId id, const std::uint32_t& row) {
    rows[id] = compact.Append(fleet_.ReportAt(row));
  });
  fleet_ = std::move(compact);
  latest_row_ = std::move(rows);
}

ProximityDetector::StateStats ProximityDetector::Stats() const {
  StateStats s;
  s.tracked_entities = latest_row_.size();
  s.snapshot_rows = fleet_.size();
  s.occupied_cells = cell_members_.size();
  s.rate_entries = last_encounter_.size() + last_collision_.size();
  return s;
}

AreaEventDetector::AreaEventDetector(std::vector<NamedArea> areas)
    : Operator<PositionReport, Event>("area_event_detector"),
      areas_(std::move(areas)) {}

void AreaEventDetector::Process(const PositionReport& report,
                                std::vector<Event>* out) {
  for (std::size_t ai = 0; ai < areas_.size(); ++ai) {
    const bool now = areas_[ai].polygon.Contains(report.position.ll());
    bool& was = inside_[{report.entity_id, ai}];
    if (now == was) continue;
    Event e;
    e.kind = now ? EventKind::kAreaEntry : EventKind::kAreaExit;
    e.time = report.timestamp;
    e.predicted_time = report.timestamp;
    e.entities = {report.entity_id};
    e.position = report.position;
    e.label = areas_[ai].name;
    out->push_back(std::move(e));
    was = now;
  }
}

LoiteringDetector::LoiteringDetector(Config config)
    : Operator<PositionReport, Event>("loitering_detector"),
      config_(config) {}

void LoiteringDetector::Process(const PositionReport& report,
                                std::vector<Event>* out) {
  std::deque<PositionReport>& win = window_[report.entity_id];
  win.push_back(report);
  while (!win.empty() &&
         report.timestamp - win.front().timestamp > config_.window) {
    win.pop_front();
  }
  // Need the window to actually span (most of) the configured duration.
  if (win.size() < 3 ||
      report.timestamp - win.front().timestamp < config_.window * 9 / 10) {
    return;
  }
  if (report.speed_mps < config_.min_speed_mps) return;
  // Max excursion within the window; the first point beyond the radius
  // decides "no alarm", so the scan stops there. The latitude cosine is
  // hoisted out of the loop (the window stays within the loitering
  // radius, so one reference latitude serves every pair).
  double max_excursion = 0.0;
  const double cos_lat = std::cos(report.position.lat_deg * kDegToRad);
  for (const PositionReport& p : win) {
    const double d = EquirectangularMetersWithCos(cos_lat, p.position.ll(),
                                                  report.position.ll());
    if (d > config_.radius_m) return;
    max_excursion = std::max(max_excursion, d);
  }
  if (!MayAlarm(&last_alarm_, report.entity_id, report.timestamp,
                config_.realarm_interval)) {
    return;
  }
  Event e;
  e.kind = EventKind::kLoitering;
  e.time = report.timestamp;
  e.predicted_time = report.timestamp;
  e.entities = {report.entity_id};
  e.position = report.position;
  e.attributes["excursion_m"] = max_excursion;
  e.attributes["window_s"] = config_.window / 1000.0;
  out->push_back(std::move(e));
}

CapacityMonitor::CapacityMonitor(std::vector<Sector> sectors, Config config)
    : Operator<PositionReport, Event>("capacity_monitor"),
      sectors_(std::move(sectors)),
      config_(config),
      delta_updates_counter_(obs::MetricsRegistry::Global().counter(
          "cep.sector_delta_updates")) {
  occupancy_.assign(sectors_.size(), 0);
  predicted_.assign(sectors_.size(), 0);

  // Alarm-evaluation gate per sector: the legacy fixed 0.5 deg inflation
  // skipped sectors a fast mover could dead-reckon into within the
  // forecast horizon, silently suppressing kCapacityForecast near the
  // bbox edge. Size the margin from the worst-case reach instead.
  const double horizon_s =
      static_cast<double>(config_.forecast_horizon) / 1000.0;
  const double reach_m = config_.max_speed_mps * horizon_s;
  const double meters_per_deg = kEarthRadiusMeters * kDegToRad;
  eval_bbox_.reserve(sectors_.size());
  for (const Sector& sector : sectors_) {
    const BoundingBox& bb = sector.polygon.bbox();
    // Longitude degrees shrink by cos(lat); use the sector's extreme
    // latitude, clamped away from the poles.
    const double lat_deg = std::max(std::fabs(bb.min_lat),
                                    std::fabs(bb.max_lat));
    const double cos_lat = std::max(0.1, std::cos(lat_deg * kDegToRad));
    const double reach_deg = reach_m / (meters_per_deg * cos_lat);
    eval_bbox_.push_back(bb.Inflated(std::max(0.5, reach_deg)));
  }
  for (const BoundingBox& bb : eval_bbox_) eval_bbox_soa_.Add(bb);
  bbox_near_.resize(eval_bbox_.size());
}

void CapacityMonitor::Retire(EntityState* st) {
  for (const std::uint32_t si : st->inside) --occupancy_[si];
  for (const std::uint32_t si : st->predicted) --predicted_[si];
  st->inside.clear();
  st->predicted.clear();
  st->active = false;
  --active_entities_;
}

void CapacityMonitor::ExpireStale() {
  // at = ts + staleness, so `at < watermark` is exactly the reference
  // rescan's strict `now - ts > staleness` on a time-ordered stream.
  while (!expiry_.empty() && expiry_.front().at < watermark_) {
    std::pop_heap(expiry_.begin(), expiry_.end(), HeapLater);
    const Expiry e = expiry_.back();
    expiry_.pop_back();
    EntityState* st = entities_.Find(e.entity);
    // Superseded entries (entity re-reported since) carry an old version.
    if (st != nullptr && st->active && st->version == e.version) {
      Retire(st);
    }
  }
}

void CapacityMonitor::Process(const PositionReport& report,
                              std::vector<Event>* out) {
  if (!has_watermark_ || report.timestamp > watermark_) {
    watermark_ = report.timestamp;
    has_watermark_ = true;
  }
  ExpireStale();

  // Delta update: retire the entity's previous sector contributions, add
  // its new ones. O(sectors) per report, independent of fleet size.
  EntityState& st = entities_[report.entity_id];
  if (st.active) Retire(&st);
  st.ts = report.timestamp;
  ++st.version;
  st.active = true;
  ++active_entities_;
  const GeoPoint future =
      DeadReckon(report.position, report.course_deg, report.speed_mps,
                 report.vertical_rate_mps, config_.forecast_horizon / 1000.0);
  for (std::size_t si = 0; si < sectors_.size(); ++si) {
    const Sector& sector = sectors_[si];
    if (sector.polygon.Contains(report.position.ll())) {
      ++occupancy_[si];
      st.inside.push_back(static_cast<std::uint32_t>(si));
    }
    if (sector.polygon.Contains(future.ll())) {
      ++predicted_[si];
      st.predicted.push_back(static_cast<std::uint32_t>(si));
    }
  }
  delta_updates_counter_->Add();
  expiry_.push_back(Expiry{report.timestamp + config_.staleness,
                           report.entity_id, st.version});
  std::push_heap(expiry_.begin(), expiry_.end(), HeapLater);

  EmitAlarms(report, occupancy_, predicted_, out);

  if (++reports_since_compact_ >= config_.compact_interval) {
    reports_since_compact_ = 0;
    CompactEntities();
  }
}

void CapacityMonitor::EmitAlarms(const PositionReport& report,
                                 std::span<const int> occupancy,
                                 std::span<const int> predicted,
                                 std::vector<Event>* out) {
  BboxContainsBatch(eval_bbox_soa_, report.position.ll(), bbox_near_.data());
  for (std::size_t si = 0; si < sectors_.size(); ++si) {
    if (!bbox_near_[si]) continue;
    const Sector& sector = sectors_[si];
    if (occupancy[si] > sector.capacity &&
        MayAlarm(&last_warning_, si, report.timestamp,
                 config_.realarm_interval)) {
      Event e;
      e.kind = EventKind::kCapacityWarning;
      e.time = report.timestamp;
      e.predicted_time = report.timestamp;
      e.position = {sector.polygon.Centroid().lat_deg,
                    sector.polygon.Centroid().lon_deg, 0.0};
      e.label = sector.name;
      e.attributes["occupancy"] = occupancy[si];
      e.attributes["capacity"] = sector.capacity;
      out->push_back(std::move(e));
    }
    if (predicted[si] > sector.capacity && occupancy[si] <= sector.capacity &&
        MayAlarm(&last_forecast_, si, report.timestamp,
                 config_.realarm_interval)) {
      Event e;
      e.kind = EventKind::kCapacityForecast;
      e.time = report.timestamp;
      e.predicted_time = report.timestamp + config_.forecast_horizon;
      e.position = {sector.polygon.Centroid().lat_deg,
                    sector.polygon.Centroid().lon_deg, 0.0};
      e.label = sector.name;
      e.attributes["predicted_occupancy"] = predicted[si];
      e.attributes["capacity"] = sector.capacity;
      out->push_back(std::move(e));
    }
  }
}

void CapacityMonitor::CompactEntities() {
  // Drop inactive (expired) entities; FlatHashMap has no erase, so the
  // table is rebuilt. Heap entries of dropped entities are filtered too —
  // a re-appearing entity restarts at version 1, and a stale heap entry
  // must not be able to collide with the new version stream.
  bool any_inactive = false;
  entities_.ForEach([&](EntityId, const EntityState& st) {
    if (!st.active) any_inactive = true;
  });
  if (!any_inactive) return;
  FlatHashMap<EntityId, EntityState> live;
  live.Reserve(entities_.size());
  entities_.ForEach([&](EntityId id, const EntityState& st) {
    if (st.active) live[id] = st;
  });
  entities_ = std::move(live);
  std::vector<Expiry> kept;
  kept.reserve(expiry_.size());
  for (const Expiry& e : expiry_) {
    if (entities_.Contains(e.entity)) kept.push_back(e);
  }
  expiry_ = std::move(kept);
  std::make_heap(expiry_.begin(), expiry_.end(), HeapLater);
}

}  // namespace datacron
