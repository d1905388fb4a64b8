#include "datacron/engine.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string_view>

#include "common/flat_hash.h"
#include "common/thread_pool.h"
#include "common/time_utils.h"
#include "obs/trace.h"
#include "stream/sharded_runtime.h"

namespace datacron {

// The engine's placement of each operator must agree with the operator's
// own declared stage kind — a keyed operator accidentally holding
// cross-entity state would silently break shard-count invariance.
static_assert(CriticalPointDetector::kStage == StageKind::kKeyed);
static_assert(AreaEventDetector::kStage == StageKind::kKeyed);
static_assert(LoiteringDetector::kStage == StageKind::kKeyed);
static_assert(GapDetector::kStage == StageKind::kKeyed);
static_assert(SpeedAnomalyDetector::kStage == StageKind::kKeyed);
static_assert(EpisodeBuilder::kStage == StageKind::kKeyed);
static_assert(ProximityDetector::kStage == StageKind::kGlobal);
static_assert(CapacityMonitor::kStage == StageKind::kGlobal);
static_assert(HotspotDetector::kStage == StageKind::kGlobal);

DatacronEngine::DatacronEngine(Config config)
    : config_(std::move(config)),
      merge_terms_counter_(
          obs::MetricsRegistry::Global().counter("engine.merge_terms")),
      merge_terms_hist_(obs::MetricsRegistry::Global().histogram(
          "engine.merge_terms_per_epoch")),
      vocab_(std::make_unique<Vocab>(&dict_)),
      rdfizer_(std::make_unique<Rdfizer>(config_.rdf, &dict_, vocab_.get())),
      proximity_(config_.proximity) {
  if (config_.num_shards == 0) config_.num_shards = 1;
  shards_.reserve(config_.num_shards);
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    shards_.emplace_back(config_);
  }
  SubscriptionRegistry::Options sub_opts;
  sub_opts.num_shards = config_.num_shards;
  subs_ = std::make_unique<SubscriptionRegistry>(sub_opts);
  if (!config_.sectors.empty()) {
    capacity_ = std::make_unique<CapacityMonitor>(config_.sectors,
                                                  config_.capacity);
  }
  if (config_.hotspot_window > 0) {
    hotspots_ = std::make_unique<HotspotDetector>(config_.hotspot,
                                                  config_.hotspot_window);
  }
}

std::size_t DatacronEngine::ShardOf(EntityId entity) const {
  return MixU64(entity) % shards_.size();
}

void DatacronEngine::ProcessKeyedArena(std::size_t shard_idx,
                                       const PositionReport& report,
                                       ShardSlot* slot, EpochArena* arena) {
  Shard* shard = &shards_[shard_idx];

  // 1. In-situ processing: synopses.
  const std::int64_t t0 = MonotonicNanos();
  std::vector<CriticalPoint> cps;
  shard->detector.ProcessCounted(report, &cps);
  const std::int64_t t1 = MonotonicNanos();

  // 2. Data transformation: critical points (or everything) to RDF, and
  //    semantic-trajectory episodes derived from the synopsis.
  if (config_.rdfize_all_reports || !cps.empty()) {
    TransformKeyed(shard, report.entity_id, &report, cps, arena);
  }
  const std::int64_t t2 = MonotonicNanos();

  // 4a. Keyed complex event recognition (global CEP runs in the absorb
  //     stage, which splices these events in after proximity).
  shard->area_events.ProcessCounted(report, &arena->events);
  shard->loitering.ProcessCounted(report, &arena->events);
  shard->gap.ProcessCounted(report, &arena->events);
  shard->speed_anomaly.ProcessCounted(report, &arena->events);

  // 4c. Shard-local standing-query evaluation: geofence transitions and
  //     hotspot count increments land in the shard's epoch arena and
  //     cross the barrier only when a subscription fires.
  if (subs_->keyed_active()) {
    subs_->EvalKeyed(shard_idx, report, &arena->sub_deltas,
                     &arena->sub_counts);
  }

  slot->entity = report.entity_id;
  slot->cp_count = static_cast<std::uint32_t>(cps.size());
  MarkSlot(*arena, slot);
  slot->synopses_ns = t1 - t0;
  slot->transform_ns = t2 - t1;
  slot->keyed_cep_ns = MonotonicNanos() - t2;
}

void DatacronEngine::TransformKeyed(Shard* shard, EntityId entity,
                                    const PositionReport* report,
                                    std::span<const CriticalPoint> cps,
                                    EpochArena* arena) {
  TermSource* terms = arena->terms != nullptr
                          ? static_cast<TermSource*>(arena->terms.get())
                          : &dict_;

  Rdfizer::Sink rdf_sink;
  rdf_sink.terms = terms;
  rdf_sink.tags = &arena->tags;
  rdf_sink.node_geo = &arena->node_geo;
  rdf_sink.cursors = &shard->node_cursors;

  if (config_.rdfize_all_reports) {
    if (report != nullptr) {
      rdfizer_->TransformReportInto(*report, rdf_sink, &arena->triples);
    }
  } else {
    for (const CriticalPoint& cp : cps) {
      rdfizer_->TransformCriticalPointInto(cp, rdf_sink, &arena->triples);
    }
  }
  std::vector<Episode> episodes;
  for (const CriticalPoint& cp : cps) {
    shard->episode_builder.Process(cp, &episodes);
  }
  if (report == nullptr) shard->episode_builder.Flush(entity, &episodes);
  for (const Episode& e : episodes) {
    rdfizer_->TransformEpisodeInto(e, rdf_sink, &arena->triples);
  }
  arena->episodes.insert(arena->episodes.end(),
                         std::make_move_iterator(episodes.begin()),
                         std::make_move_iterator(episodes.end()));
}

void DatacronEngine::MarkSlot(const EpochArena& arena, ShardSlot* slot) const {
  slot->terms_end =
      arena.terms != nullptr ? arena.terms->local_size() : dict_.size();
  slot->triples_end = arena.triples.size();
  slot->episodes_end = arena.episodes.size();
  slot->events_end = arena.events.size();
  slot->subs_end = arena.sub_deltas.size();
}

std::vector<std::vector<TermId>> DatacronEngine::MergeEpochTerms(
    std::span<const ShardSlot> slots, std::span<const EpochArena> arenas) {
  // One coalesced dictionary merge for the whole epoch. Each report's new
  // terms occupy the contiguous TermBatch slice between its predecessor's
  // watermark and its own, so replaying those slices in input order
  // reproduces serial first-occurrence id assignment exactly (cross-shard
  // duplicates are idempotent re-interns).
  DATACRON_TRACE_SPAN("engine.term_merge_epoch", "engine");
  const std::size_t n = arenas.size();
  std::vector<std::vector<TermId>> remaps(n);
  for (std::size_t s = 0; s < n; ++s) {
    if (arenas[s].terms != nullptr) {
      remaps[s].reserve(arenas[s].terms->local_size());
    }
  }
  // remaps[s].size() is shard s's replay cursor: the next report's slice
  // starts where the previous one ended.
  std::size_t merged = 0;
  for (const ShardSlot& slot : slots) {
    const TermBatch* batch = arenas[slot.shard].terms.get();
    if (batch == nullptr) continue;
    std::vector<TermId>& remap = remaps[slot.shard];
    for (std::size_t j = remap.size(); j < slot.terms_end; ++j) {
      remap.push_back(dict_.Intern(batch->local_text(j),
                                   batch->local_kind(j)));
      ++merged;
    }
  }
  merge_terms_counter_->Add(merged);
  merge_terms_hist_->Observe(static_cast<double>(merged));
  return remaps;
}

void DatacronEngine::AbsorbEpoch(std::span<const PositionReport> items,
                                 std::span<const ShardSlot> slots,
                                 std::span<EpochArena> arenas,
                                 std::span<const std::vector<TermId>> remaps,
                                 std::vector<Event>* events,
                                 ThreadPool* pool) {
  RemapArenas(arenas, remaps);

  // Phase 3a — epoch-batched global proximity CEP: the detector plans
  // candidate CPA pairs serially in input order, evaluates them
  // cell-parallel on the pool, and emits into prox_events_ with
  // per-report offsets. Running it once over the whole epoch (instead of
  // per report in the walk below) is what lets the pairwise CPA math —
  // the dominant global cost — leave the coordinator thread.
  std::int64_t prox_ns = 0;
  {
    DATACRON_TRACE_SPAN("engine.global_cep_epoch", "engine");
    prox_events_.clear();
    const std::int64_t b0 = MonotonicNanos();
    proximity_.ProcessBatchCounted(items, pool, &prox_events_,
                                   &prox_offsets_);
    prox_ns = MonotonicNanos() - b0;
  }
  // The batch cost is attributed evenly across the epoch's reports in
  // the per-report stage histograms.
  const std::int64_t prox_share_ns =
      items.empty() ? 0
                    : prox_ns / static_cast<std::int64_t>(items.size());

  // Phase 3b — input-order walk: splice each report's arena slices and
  // its proximity slice into the global sequences and run the remaining
  // cross-entity CEP per report, so triples/episodes/events land
  // byte-identically to a serial run.
  // prev[s] holds the watermarks of arena s's previous report: where the
  // next report's slices start.
  std::vector<ShardSlot> prev(arenas.size());
  const bool subs_active = subs_->ever_active();
  for (std::size_t i = 0; i < items.size(); ++i) {
    const PositionReport& report = items[i];
    const ShardSlot& slot = slots[i];
    EpochArena& a = arenas[slot.shard];
    ShardSlot& from = prev[slot.shard];
    ++reports_ingested_;

    const std::int64_t t0 = MonotonicNanos();
    SpliceSlot(from, slot, &a);
    trajectories_.Add(report);
    predictor_.Observe(report);
    const std::int64_t t1 = MonotonicNanos();

    events->insert(events->end(), prox_events_.begin() + prox_offsets_[i],
                   prox_events_.begin() + prox_offsets_[i + 1]);
    events->insert(events->end(), a.events.begin() + from.events_end,
                   a.events.begin() + slot.events_end);
    if (capacity_ != nullptr) capacity_->ProcessCounted(report, events);
    if (hotspots_ != nullptr) hotspots_->ProcessCounted(report, events);

    // Subscription barrier feed in global input order: each report's
    // shard-local delta slice, then the proximity events that can wake
    // proximity subscriptions — the same interleaving the serial path
    // produces per report.
    if (subs_active) {
      subs_->AddKeyedDeltas(std::span<const SubDelta>(
          a.sub_deltas.data() + from.subs_end,
          slot.subs_end - from.subs_end));
      subs_->AddGlobalEvents(std::span<const Event>(
          prox_events_.data() + prox_offsets_[i],
          prox_offsets_[i + 1] - prox_offsets_[i]));
    }
    const std::int64_t t2 = MonotonicNanos();
    from = slot;

    const std::int64_t trajectory_ns = t1 - t0;
    const std::int64_t cep_ns = slot.keyed_cep_ns + (t2 - t1) + prox_share_ns;
    synopses_ns_.Add(static_cast<double>(slot.synopses_ns));
    transform_ns_.Add(static_cast<double>(slot.transform_ns));
    trajectory_ns_.Add(static_cast<double>(trajectory_ns));
    cep_ns_.Add(static_cast<double>(cep_ns));
    report_ns_.Add(static_cast<double>(slot.synopses_ns + slot.transform_ns +
                                       trajectory_ns + cep_ns));
  }

  // Hotspot counts are summed (order-independent), so the per-shard maps
  // fold in at the end; then the epoch closes — coalesce + delta push.
  if (subs_active) {
    for (const EpochArena& a : arenas) subs_->AddHotspotCounts(a.sub_counts);
    subs_->CloseEpoch(items.empty() ? 0 : items.back().timestamp);
  }
}

void DatacronEngine::RemapArenas(
    std::span<EpochArena> arenas,
    std::span<const std::vector<TermId>> remaps) {
  static const std::vector<TermId> kNoRemap;
  // Phase 2 — columnar bulk remap, one pass per shard arena (phase 1,
  // which built `remaps`, is the only part that differs by source). Side
  // tables are key→value overwrites whose shared keys always carry equal
  // values (grid-cell tags) or are entity-owned (node geometry), so
  // per-arena absorption is order-independent.
  for (std::size_t s = 0; s < arenas.size(); ++s) {
    EpochArena& a = arenas[s];
    const std::vector<TermId>& remap =
        s < remaps.size() ? remaps[s] : kNoRemap;
    if (!remap.empty()) {
      for (Triple& t : a.triples) {
        t.s = RemapTerm(t.s, remap);
        t.p = RemapTerm(t.p, remap);
        t.o = RemapTerm(t.o, remap);
      }
    }
    if (!a.tags.empty() || !a.node_geo.empty()) {
      rdfizer_->AbsorbSideTables(a.tags, a.node_geo, remap);
    }
  }
}

void DatacronEngine::SpliceSlot(const ShardSlot& from, const ShardSlot& slot,
                                EpochArena* arena) {
  critical_points_ += slot.cp_count;
  triples_.insert(triples_.end(), arena->triples.begin() + from.triples_end,
                  arena->triples.begin() + slot.triples_end);
  for (std::size_t j = from.episodes_end; j < slot.episodes_end; ++j) {
    episodes_.push_back(std::move(arena->episodes[j]));
  }
}

std::vector<Event> DatacronEngine::Ingest(const PositionReport& report) {
  DATACRON_TRACE_SPAN("engine.ingest", "engine");
  // An epoch of one: interns straight into the engine dictionary (no
  // phase 1), and AbsorbEpoch closes one subscription epoch per report.
  std::vector<Event> events;
  EpochArena arena;
  ShardSlot slot;
  ProcessKeyedArena(ShardOf(report.entity_id), report, &slot, &arena);
  AbsorbEpoch(std::span<const PositionReport>(&report, 1),
              std::span<const ShardSlot>(&slot, 1),
              std::span<EpochArena>(&arena, 1), {}, &events, nullptr);
  return events;
}

void DatacronEngine::ProcessKeyedEpoch(std::span<const PositionReport> reports,
                                       EpochArena* arena,
                                       std::vector<ShardSlot>* slots) {
  slots->assign(reports.size(), ShardSlot{});
  for (std::size_t i = 0; i < reports.size(); ++i) {
    ProcessKeyedArena(ShardOf(reports[i].entity_id), reports[i],
                      &(*slots)[i], arena);
  }
}

std::vector<Event> DatacronEngine::IngestBatch(
    std::span<const PositionReport> reports, ThreadPool* pool) {
  std::vector<Event> events;
  ShardedRuntime<PositionReport, ShardSlot, EpochArena> runtime(
      shards_.size(),
      EpochWindow(config_.epoch_size, config_.max_epochs_in_flight));

  // Without real parallelism, intern straight into the global dictionary
  // (no TermBatch indirection); the runtime routes by the same key and
  // accumulates into the same arenas either way, so keyed state and the
  // epoch-granular absorb path are identical.
  const bool parallel = pool != nullptr && shards_.size() > 1;
  runtime.Run(
      reports, parallel ? pool : nullptr,
      [](const PositionReport& r) { return MixU64(r.entity_id); },
      [this, parallel](std::size_t shard, const PositionReport& r,
                       ShardSlot* slot, EpochArena* arena) {
        // One batch-local dictionary per shard-epoch; every report of the
        // shard's epoch interns into it, so the merge cost is paid once
        // per epoch, not once per report.
        if (parallel && arena->terms == nullptr) {
          arena->terms = std::make_unique<TermBatch>(&dict_);
        }
        slot->shard = static_cast<std::uint32_t>(shard);
        ProcessKeyedArena(shard, r, slot, arena);
      },
      [this, &events, pool](std::span<const PositionReport> items,
                            std::span<ShardSlot> slots,
                            std::span<EpochArena> arenas) {
        // The CPA fan-out takes the pool whenever one exists — even a
        // single-shard run parallelizes the global stage.
        AbsorbEpoch(items, slots, arenas, MergeEpochTerms(slots, arenas),
                    &events, pool);
      });
  return events;
}

std::vector<Event> DatacronEngine::Finish() {
  // The end-of-stream epoch goes through phase 1 like a parallel epoch:
  // the flush interns into a TermBatch and MergeEpochTerms replays it
  // slot by slot, in ascending entity order.
  EpochArena arena;
  arena.terms = std::make_unique<TermBatch>(&dict_);
  std::vector<ShardSlot> slots;
  ProcessFinalEpoch(&arena, &slots);
  const std::span<EpochArena> arenas(&arena, 1);
  std::vector<Event> events;
  AbsorbFinalEpoch(slots, arenas, MergeEpochTerms(slots, arenas), &events);
  return events;
}

void DatacronEngine::ProcessFinalEpoch(EpochArena* arena,
                                       std::vector<ShardSlot>* slots) {
  // Every shard's trajectory-end points, merged in ascending entity order
  // — exactly the std::map iteration order a single detector would emit.
  // Entity sets are disjoint across shards, so the order is total.
  std::vector<CriticalPoint> cps;
  for (Shard& s : shards_) s.detector.Flush(&cps);
  std::stable_sort(cps.begin(), cps.end(),
                   [](const CriticalPoint& a, const CriticalPoint& b) {
                     return a.report.entity_id < b.report.entity_id;
                   });
  slots->clear();
  for (auto first = cps.begin(); first != cps.end();) {
    const EntityId entity = first->report.entity_id;
    const auto last =
        std::find_if(first, cps.end(), [entity](const CriticalPoint& cp) {
          return cp.report.entity_id != entity;
        });
    TransformKeyed(&shards_[ShardOf(entity)], entity, nullptr,
                   std::span<const CriticalPoint>(first, last), arena);
    ShardSlot& slot = slots->emplace_back();
    slot.entity = entity;
    slot.cp_count = static_cast<std::uint32_t>(last - first);
    MarkSlot(*arena, &slot);
    first = last;
  }
}

void DatacronEngine::AbsorbFinalEpoch(
    std::span<const ShardSlot> slots, std::span<EpochArena> arenas,
    std::span<const std::vector<TermId>> remaps, std::vector<Event>* events) {
  RemapArenas(arenas, remaps);
  std::vector<ShardSlot> prev(arenas.size());
  for (const ShardSlot& slot : slots) {
    SpliceSlot(prev[slot.shard], slot, &arenas[slot.shard]);
    prev[slot.shard] = slot;
  }
  proximity_.Flush(events);
  if (capacity_ != nullptr) capacity_->Flush(events);
  if (hotspots_ != nullptr) hotspots_->Flush(events);
}

TripleStore DatacronEngine::BuildStore(ThreadPool* pool) const {
  TripleStore store;
  store.AddBatch(triples_);
  store.Seal(pool);
  return store;
}

obs::MetricsSnapshot DatacronEngine::MetricsSnapshot() const {
  obs::MetricsSnapshot snap;
  // Operators count as instances once this engine has run their half of
  // the dataflow. A cluster node runs only the keyed half and the
  // coordinator only the global half, so merged over a cluster the keyed
  // rows count the nodes' shards and the global rows count one.
  bool ran_keyed = false;
  for (const Shard& s : shards_) {
    ran_keyed = ran_keyed || s.detector.metrics().items_in > 0;
  }
  const bool ran_global = proximity_.metrics().items_in > 0;
  // Each shard's instance folds in on its own: keyed rows sum over shards
  // here exactly as they sum over nodes in a cluster merge.
  const auto add = [&snap](const char* stage, const OperatorMetrics& m,
                           bool ran) {
    const std::string prefix = std::string("engine.") + stage + "." + m.name;
    snap.AddCounter(prefix + ".items_in", m.items_in);
    snap.AddCounter(prefix + ".items_out", m.items_out);
    snap.AddCounter(prefix + ".instances", ran ? 1 : 0);
    snap.AddHistogram(prefix + ".process_ns", m.latency_ns);
  };
  for (const Shard& s : shards_) {
    add("synopses", s.detector.metrics(), ran_keyed);
    add("cep-keyed", s.area_events.metrics(), ran_keyed);
    add("cep-keyed", s.loitering.metrics(), ran_keyed);
    add("cep-keyed", s.gap.metrics(), ran_keyed);
    add("cep-keyed", s.speed_anomaly.metrics(), ran_keyed);
  }
  add("cep-global", proximity_.metrics(), ran_global);
  if (capacity_ != nullptr) {
    add("cep-global", capacity_->metrics(), ran_global);
  }
  if (hotspots_ != nullptr) {
    add("cep-global", hotspots_->metrics(), ran_global);
  }
  snap.AddCounter("engine.reports", reports_ingested_);
  snap.AddCounter("engine.critical_points", critical_points_);
  snap.AddCounter("engine.triples", triples_.size());
  snap.AddCounter("engine.episodes", episodes_.size());
  snap.AddCounter("engine.admission_dropped", admission_dropped_);
  snap.AddHistogram("engine.synopses_ns", synopses_ns_);
  snap.AddHistogram("engine.transform_ns", transform_ns_);
  snap.AddHistogram("engine.trajectory_ns", trajectory_ns_);
  snap.AddHistogram("engine.cep_ns", cep_ns_);
  snap.AddHistogram("engine.report_ns", report_ns_);
  return snap;
}

std::string DatacronEngine::MetricsReport() const {
  return MetricsReport(MetricsSnapshot());
}

std::string DatacronEngine::MetricsReport(
    const obs::MetricsSnapshot& snap) const {
  const auto counter = [&snap](const std::string& name) -> std::size_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%-10s %-24s %6s %10s %10s %7s %10s %10s\n", "stage",
                "operator", "shards", "items_in", "items_out", "sel%",
                "p50_ns", "p99_ns");
  out += line;
  // One row per "engine.<stage>.<operator>.items_in" counter, in the
  // snapshot's name order.
  constexpr std::string_view kRoot = "engine.";
  constexpr std::string_view kItemsIn = ".items_in";
  for (const auto& [name, items_in] : snap.counters) {
    if (!name.starts_with(kRoot) || !name.ends_with(kItemsIn)) continue;
    const std::string prefix = name.substr(0, name.size() - kItemsIn.size());
    const std::size_t dot = prefix.find('.', kRoot.size());
    if (dot == std::string::npos) continue;
    const std::string stage =
        prefix.substr(kRoot.size(), dot - kRoot.size());
    const std::string op = prefix.substr(dot + 1);
    const std::size_t items_out = counter(prefix + ".items_out");
    const auto hist = snap.histograms.find(prefix + ".process_ns");
    const LogHistogram ns =
        hist == snap.histograms.end() ? LogHistogram() : hist->second;
    std::snprintf(line, sizeof(line),
                  "%-10s %-24s %6zu %10zu %10zu %6.1f%% %10.0f %10.0f\n",
                  stage.c_str(), op.c_str(), counter(prefix + ".instances"),
                  static_cast<std::size_t>(items_in), items_out,
                  items_in == 0 ? 0.0 : 100.0 * items_out / items_in,
                  ns.p50(), ns.p99());
    out += line;
  }
  // A lossy admission policy is part of the engine's observable contract,
  // so the report names it even before anything was shed.
  const std::size_t dropped = counter("engine.admission_dropped");
  if (dropped > 0 || config_.admission != AdmissionPolicy::kBlock) {
    std::snprintf(line, sizeof(line),
                  "admission: policy=%s dropped=%zu entities_hit=%zu\n",
                  AdmissionPolicyName(config_.admission), dropped,
                  admission_drops_.size());
    out += line;
    // Worst offenders first so the report names who was shed.
    std::vector<std::pair<std::uint64_t, std::size_t>> by_count =
        admission_drops_;
    std::stable_sort(by_count.begin(), by_count.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    const std::size_t shown = std::min<std::size_t>(by_count.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
      std::snprintf(line, sizeof(line),
                    "  entity %llu: %zu dropped\n",
                    static_cast<unsigned long long>(by_count[i].first),
                    by_count[i].second);
      out += line;
    }
  }
  return out;
}

std::unique_ptr<AdmissionQueue<PositionReport>>
DatacronEngine::NewAdmissionQueue() const {
  AdmissionQueue<PositionReport>::Options opts;
  const EpochWindow window(config_.epoch_size, config_.max_epochs_in_flight);
  opts.capacity = config_.admission_capacity != 0 ? config_.admission_capacity
                                                  : window.items();
  opts.policy = config_.admission;
  opts.drop_key = [](const PositionReport& r) {
    return static_cast<std::uint64_t>(r.entity_id);
  };
  return std::make_unique<AdmissionQueue<PositionReport>>(std::move(opts));
}

std::vector<Event> DatacronEngine::IngestFromQueue(
    AdmissionQueue<PositionReport>* queue, ThreadPool* pool) {
  std::vector<Event> events;
  for (;;) {
    const std::vector<PositionReport> batch = queue->PopBatch(
        EpochWindow(config_.epoch_size, config_.max_epochs_in_flight).items());
    if (batch.empty()) break;  // closed and drained
    const std::vector<Event> evs = IngestBatch(batch, pool);
    events.insert(events.end(), evs.begin(), evs.end());
  }
  RecordAdmissionDrops(*queue);
  return events;
}

void DatacronEngine::RecordAdmissionDrops(
    const AdmissionQueue<PositionReport>& queue) {
  admission_dropped_ = queue.dropped();
  admission_drops_ = queue.DropsByKey();
}

}  // namespace datacron
