#ifndef DATACRON_DATACRON_ENGINE_H_
#define DATACRON_DATACRON_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cep/anomaly.h"
#include "cep/detectors.h"
#include "cep/event.h"
#include "cep/hotspot.h"
#include "common/flat_hash.h"
#include "common/stats.h"
#include "forecast/kinematic.h"
#include "obs/metrics.h"
#include "link/link_discovery.h"
#include "rdf/rdfizer.h"
#include "rdf/triple_store.h"
#include "sources/model.h"
#include "stream/admission.h"
#include "stream/operator.h"
#include "sub/registry.h"
#include "synopses/critical_points.h"
#include "trajectory/episodes.h"
#include "trajectory/trajectory_store.h"

namespace datacron {

/// The overall datAcron architecture (paper Section 2) as one object:
///
///   data sources -> in-situ processing (synopses) -> data transformation
///   (RDF-ization) -> store  +  analytics (trajectory mgmt, CEP,
///   forecasting) fed directly from the stream.
///
/// Ingest() pushes one report through every stage and accounts wall time
/// per stage — the "operational latency in ms" requirement of Section 4
/// is validated by E10 over MetricsSnapshot()'s engine.*_ns histograms.
///
/// The engine is key-partitioned: every per-entity ("keyed") operator —
/// synopses, keyed CEP detectors, episode building, per-entity RDF
/// continuation state — lives in one of `Config::num_shards` shards,
/// selected by hashing the entity id. IngestBatch() runs the shards in
/// parallel on a ThreadPool via ShardedRuntime while the cross-entity
/// ("global") stages — proximity/capacity/hotspot CEP, dictionary merge,
/// trajectory store, predictor — consume the per-report outputs on the
/// calling thread in input order. Events, triples, episodes, trajectories
/// and dictionary ids are byte-identical to a serial run at any shard
/// count (see DESIGN.md, "Sharded online engine").
class DatacronEngine {
 public:
  struct Config {
    BoundingBox region = BoundingBox::Of(35.0, 23.0, 39.0, 27.0);
    CriticalPointConfig synopses;
    Rdfizer::Config rdf;
    ProximityDetector::Config proximity;
    LoiteringDetector::Config loitering;
    GapDetector::Config gap;
    SpeedAnomalyDetector::Config speed_anomaly;
    std::vector<NamedArea> areas;
    /// ATM-style capacity-monitored sectors (empty = monitor disabled).
    std::vector<CapacityMonitor::Sector> sectors;
    CapacityMonitor::Config capacity;
    /// Hotspot analysis window (0 = hotspot detection disabled).
    DurationMs hotspot_window = 0;
    HotspotAnalyzer::Config hotspot;
    /// RDF-ize every report instead of only critical points (costlier;
    /// default keeps the synopses-compressed path the paper advocates).
    bool rdfize_all_reports = false;
    /// Keyed-state partitions (clamped to >= 1). IngestBatch runs them in
    /// parallel; output is identical at any value.
    std::size_t num_shards = 1;
    /// Reports per epoch of the sharded runtime (IngestBatch only).
    std::size_t epoch_size = 1024;
    /// Epochs the router may run ahead of the in-order merge stage.
    std::size_t max_epochs_in_flight = 4;
    /// What a live push source does when the in-flight window is full
    /// (see NewAdmissionQueue / IngestFromQueue).
    AdmissionPolicy admission = AdmissionPolicy::kBlock;
    /// Admission buffer capacity; 0 derives the in-flight window
    /// (epoch_size * max_epochs_in_flight).
    std::size_t admission_capacity = 0;
  };

  explicit DatacronEngine(Config config);

  /// Processes one report through all stages; returns the complex events
  /// it triggered. An epoch of one on IngestBatch's arena path: the report
  /// runs through its shard inline, then through AbsorbEpoch.
  std::vector<Event> Ingest(const PositionReport& report);

  /// Processes a batch through the sharded runtime: keyed stages in
  /// parallel on `pool` (null pool or a single shard degrade to the
  /// serial path), global stages on the calling thread in input order.
  /// Returns the concatenated events in the same order a serial
  /// report-by-report Ingest loop would produce.
  std::vector<Event> IngestBatch(std::span<const PositionReport> reports,
                                 ThreadPool* pool);

  /// Drains a live push source: repeatedly pops admitted batches from
  /// `queue` and runs them through IngestBatch until the queue is closed
  /// and empty. With Config::admission == kBlock the source stalls when
  /// the engine lags; with kDropOldest stale reports are shed at the
  /// queue (queue->dropped() counts them) and everything admitted is
  /// still processed in arrival order.
  std::vector<Event> IngestFromQueue(AdmissionQueue<PositionReport>* queue,
                                     ThreadPool* pool);

  /// Builds the admission buffer matching this engine's configuration:
  /// capacity = Config::admission_capacity (default: the in-flight window
  /// epoch_size * max_epochs_in_flight) and policy = Config::admission.
  /// The queue counts kDropOldest evictions per entity id.
  std::unique_ptr<AdmissionQueue<PositionReport>> NewAdmissionQueue() const;

  /// Copies `queue`'s cumulative shedding totals (dropped() and
  /// DropsByKey()) into this engine so MetricsReport()/MetricsSnapshot()
  /// can attribute load shedding. IngestFromQueue calls it on drain; the
  /// cluster coordinator calls it for its own queue loop.
  void RecordAdmissionDrops(const AdmissionQueue<PositionReport>& queue);

  /// Runs the end-of-stream epoch: ProcessFinalEpoch drains every shard
  /// into one arena (one slot per flushed entity, ascending entity order,
  /// so the result is independent of the shard count), AbsorbFinalEpoch
  /// splices it and flushes the global detectors.
  std::vector<Event> Finish();

  // -- keyed→global handoff ---------------------------------------------
  //
  // The keyed half hands the global half exactly one unit: an EpochArena
  // per (shard, epoch) plus one ShardSlot per report. IngestBatch fills
  // one arena per local shard; serial Ingest is an epoch of one; a
  // cluster node fills one arena for its whole sub-batch
  // (ProcessKeyedEpoch against the node-local dictionary) and ships it to
  // the coordinator, which resolves the node's term ids and calls
  // AbsorbEpoch. End of stream is one more epoch of the same unit, with
  // one slot per flushed entity instead of per report (ProcessFinalEpoch →
  // AbsorbFinalEpoch). Every path shares one absorb, so cluster output is
  // byte-identical to a serial run by construction.

  /// Per-(shard, epoch) accumulator: everything a shard's reports produce
  /// lands in these contiguous buffers; ShardSlot watermarks cut them back
  /// into per-report slices so the global stage can replay input order.
  struct EpochArena {
    /// Batch-local dictionary for every new term the shard's reports
    /// intern this epoch (IngestBatch with real parallelism only; null
    /// means the keyed stage interned straight into the engine
    /// dictionary).
    std::unique_ptr<TermBatch> terms;
    std::vector<Triple> triples;
    std::vector<Episode> episodes;
    std::vector<Event> events;  // keyed CEP events
    std::unordered_map<TermId, StTag> tags;
    std::unordered_map<TermId, NodeGeo> node_geo;
    /// Subscription deltas in shard-report order (sliced per report via
    /// ShardSlot::subs_end) and the epoch's hotspot counts by sub id.
    std::vector<SubDelta> sub_deltas;
    FlatHashMap<std::uint64_t, double> sub_counts;
  };

  /// Per-report slot (per flushed entity in the end-of-stream epoch):
  /// scalar results plus watermarks into the report's EpochArena (buffer
  /// sizes *after* the report ran; the preceding report's watermark in
  /// the same arena starts the slice).
  struct ShardSlot {
    /// Index of the report's arena in the epoch's arena span.
    std::uint32_t shard = 0;
    /// The report's entity (the flushed entity at end of stream).
    EntityId entity = 0;
    std::uint32_t cp_count = 0;
    /// TermBatch::local_size() when the arena has a batch, else the size
    /// of the dictionary the report interned into.
    std::size_t terms_end = 0;
    std::size_t triples_end = 0;
    std::size_t episodes_end = 0;
    std::size_t events_end = 0;
    std::size_t subs_end = 0;
    std::int64_t synopses_ns = 0;
    std::int64_t transform_ns = 0;
    std::int64_t keyed_cep_ns = 0;

    bool operator==(const ShardSlot&) const = default;
  };

  /// Keyed half of one epoch on a cluster node: runs every report on the
  /// local shard its entity hashes to, interning into this engine's
  /// dictionary, and accumulates all of them into `arena` with one slot
  /// per report (slot.terms_end = dictionary size after the report). No
  /// global stage runs.
  void ProcessKeyedEpoch(std::span<const PositionReport> reports,
                         EpochArena* arena, std::vector<ShardSlot>* slots);

  /// Global half of one report epoch, on the calling thread, in input
  /// order:
  /// columnar remap of each arena through `remaps[s]` (batch-local ids
  /// only; an empty span means every id is already this engine's), side
  /// tables, one epoch-batched proximity run (candidate CPA pairs
  /// evaluated cell-parallel on `pool`; null = inline), then an
  /// input-order walk splicing per-report slices through the remaining
  /// global CEP exactly like a serial run, and finally one subscription
  /// epoch close. `slots[i]` belongs to `items[i]`; each arena's slots
  /// must cut its buffers into consecutive slices (the cluster codec
  /// validates a node's reply before it gets here).
  void AbsorbEpoch(std::span<const PositionReport> items,
                   std::span<const ShardSlot> slots,
                   std::span<EpochArena> arenas,
                   std::span<const std::vector<TermId>> remaps,
                   std::vector<Event>* events, ThreadPool* pool);

  /// Keyed half of the end-of-stream epoch: flushes every local shard's
  /// critical-point detector and, per flushed entity in ascending entity
  /// order, RDF-izes its trajectory-end points, then its completed and
  /// still-open episodes into `arena`, with one slot per entity. Interns
  /// into the arena's TermBatch when it has one (Finish), else into this
  /// engine's dictionary (a cluster node). No global stage runs.
  void ProcessFinalEpoch(EpochArena* arena, std::vector<ShardSlot>* slots);

  /// Global half of the end-of-stream epoch: AbsorbEpoch's remap, side
  /// table and splice phases over `slots` (one per flushed entity, in
  /// ascending entity order across all arenas), then the global
  /// detectors' flushes. No per-report stage runs and no subscription
  /// epoch closes.
  void AbsorbFinalEpoch(std::span<const ShardSlot> slots,
                        std::span<EpochArena> arenas,
                        std::span<const std::vector<TermId>> remaps,
                        std::vector<Event>* events);

  // -- continuous-query subscriptions (src/sub) -----------------------

  /// The standing-query registry evaluated inside this engine's shards.
  /// Register/unregister between ingest calls (control plane and data
  /// plane are phased); deltas are coalesced and pushed at the end of
  /// every AbsorbEpoch — per IngestBatch epoch, per cluster epoch, and
  /// after every report of serial Ingest (an epoch of one).
  SubscriptionRegistry* subscriptions() { return subs_.get(); }
  const SubscriptionRegistry* subscriptions() const { return subs_.get(); }

  // -- component access -----------------------------------------------

  const TrajectoryStore& trajectories() const { return trajectories_; }
  TermDictionary* dictionary() { return &dict_; }
  const TermDictionary& dictionary() const { return dict_; }
  const Vocab& vocab() const { return *vocab_; }
  Rdfizer* rdfizer() { return rdfizer_.get(); }

  /// All triples produced so far (synopses path + links); sealed copy.
  const std::vector<Triple>& triples() const { return triples_; }

  /// Semantic-trajectory episodes completed so far (stop/move/gap per
  /// entity, derived online from the synopsis and also RDF-ized).
  const std::vector<Episode>& episodes() const { return episodes_; }

  /// Convenience: sealed single-node store over triples(). With a pool,
  /// sealing (the three permutation sorts) runs on the pool.
  TripleStore BuildStore(ThreadPool* pool = nullptr) const;

  /// Dead-reckoning predictor fed from the live stream (always-on cheap
  /// forecaster; heavier predictors are offline-trained, see forecast/).
  const DeadReckoningPredictor& predictor() const { return predictor_; }

  // -- metrics ---------------------------------------------------------

  std::size_t reports_ingested() const { return reports_ingested_; }
  std::size_t critical_points() const { return critical_points_; }
  std::size_t num_shards() const { return shards_.size(); }

  /// The engine's only metrics export: one mergeable snapshot in the
  /// src/obs format, built from this engine's own counters. It holds
  ///  - per operator instance, folded shard by shard:
  ///    "engine.<stage>.<operator>.items_in/items_out/instances" counters
  ///    and a ".process_ns" histogram (one sample per item in);
  ///    "instances" counts the shards of a keyed operator (one for a
  ///    global one) once this engine has run that half of the dataflow,
  ///    so merged across a cluster the keyed rows count the nodes' shards
  ///    and not the coordinator's idle ones;
  ///  - "engine.reports/critical_points/triples/episodes" totals and
  ///    "engine.admission_dropped" (the latest admission queue's drops);
  ///  - per-report stage wall times as "engine.synopses_ns",
  ///    "engine.transform_ns", "engine.trajectory_ns", "engine.cep_ns" and
  ///    their sum "engine.report_ns".
  /// No name here is also published by obs::MetricsRegistry::Global(), so
  /// the two merge without double counting.
  obs::MetricsSnapshot MetricsSnapshot() const;

  /// MetricsReport(MetricsSnapshot()).
  std::string MetricsReport() const;

  /// Renders `snap` (this engine's snapshot, or one merged across a
  /// cluster) as the per-stage, per-operator table — shards (instances),
  /// items in/out, selectivity and p50/p99 process ns — followed by this
  /// engine's admission section: when a kDropOldest policy is configured
  /// or reports were shed (IngestFromQueue / RecordAdmissionDrops), the
  /// policy, the total and the per-entity drop counts.
  std::string MetricsReport(const obs::MetricsSnapshot& snap) const;

 private:
  /// All keyed (entity-partitioned) state. Each entity is owned by
  /// exactly one shard (ShardOf), so shards never share mutable state and
  /// the keyed stage runs lock-free in parallel.
  struct Shard {
    explicit Shard(const Config& config)
        : detector(config.synopses),
          area_events(config.areas),
          loitering(config.loitering),
          gap(config.gap),
          speed_anomaly(config.speed_anomaly),
          episode_builder(config.areas) {}

    CriticalPointDetector detector;
    AreaEventDetector area_events;
    LoiteringDetector loitering;
    GapDetector gap;
    SpeedAnomalyDetector speed_anomaly;
    EpisodeBuilder episode_builder;
    /// Each entity's RDF node cursor, which the transform sink advances
    /// in place: node ids, sequence links and entity typing continue
    /// across reports and epochs without the shard holding (possibly
    /// batch-local) TermIds.
    std::unordered_map<EntityId, NodeCursor> node_cursors;
  };

  std::size_t ShardOf(EntityId entity) const;

  /// The keyed stage for one report: synopses, RDF transform, episode
  /// building, keyed CEP, shard-local subscription evaluation. Touches
  /// only shard `shard`'s state and `arena`, interning into the arena's
  /// TermBatch when it has one and into the engine dictionary otherwise,
  /// and records the report's watermarks in `slot` (all but
  /// slot->shard, which the caller owns).
  void ProcessKeyedArena(std::size_t shard, const PositionReport& report,
                         ShardSlot* slot, EpochArena* arena);

  /// The keyed RDF/episode step of one entity, shared by reports and the
  /// end-of-stream flush: RDF-izes `cps` (with rdfize_all_reports,
  /// `*report` instead) into `arena` against the entity's continuation
  /// state, feeds `cps` to the episode builder and RDF-izes the episodes
  /// they complete. A null `report` is the flush: it also closes the
  /// entity's still-open episode, and rdfize_all_reports has no report
  /// to transform.
  void TransformKeyed(Shard* shard, EntityId entity,
                      const PositionReport* report,
                      std::span<const CriticalPoint> cps, EpochArena* arena);

  /// Records `arena`'s buffer sizes as `slot`'s watermarks.
  void MarkSlot(const EpochArena& arena, ShardSlot* slot) const;

  /// Phase 2 of both absorbs: remaps each arena's triples through
  /// `remaps[s]` and absorbs its side tables.
  void RemapArenas(std::span<EpochArena> arenas,
                   std::span<const std::vector<TermId>> remaps);

  /// The splice every slot gets, report or flushed entity: appends the
  /// slot's triples and episodes (from `from`'s watermarks on) and counts
  /// its critical points.
  void SpliceSlot(const ShardSlot& from, const ShardSlot& slot,
                  EpochArena* arena);

  /// Phase 1 of the in-process absorb: replays each report's TermBatch
  /// sub-range in input order (serial first-occurrence id assignment) and
  /// returns remaps[s], shard s's batch-local-to-global id table.
  std::vector<std::vector<TermId>> MergeEpochTerms(
      std::span<const ShardSlot> slots, std::span<const EpochArena> arenas);

  Config config_;
  TermDictionary dict_;
  /// Process-wide registry instruments for the per-epoch term merge,
  /// resolved once at construction (no static-guard check per epoch).
  obs::Counter* merge_terms_counter_;
  obs::AtomicLogHistogram* merge_terms_hist_;
  std::unique_ptr<Vocab> vocab_;
  std::unique_ptr<Rdfizer> rdfizer_;
  std::vector<Shard> shards_;
  /// Standing-query registry, sharded like shards_. Always constructed;
  /// every hook is guarded by ever_active()/keyed_active() so a
  /// subscription-free stream pays one predictable branch per report.
  std::unique_ptr<SubscriptionRegistry> subs_;
  ProximityDetector proximity_;
  std::unique_ptr<CapacityMonitor> capacity_;   // null when no sectors
  std::unique_ptr<HotspotDetector> hotspots_;   // null when window == 0
  std::vector<Episode> episodes_;
  TrajectoryStore trajectories_;
  DeadReckoningPredictor predictor_;
  std::vector<Triple> triples_;
  /// Per-report stage wall times in ns (MetricsSnapshot's engine.*_ns);
  /// the AbsorbEpoch walk is their only writer.
  LogHistogram synopses_ns_;
  LogHistogram transform_ns_;
  LogHistogram trajectory_ns_;
  LogHistogram cep_ns_;
  LogHistogram report_ns_;
  std::size_t reports_ingested_ = 0;
  std::size_t critical_points_ = 0;
  /// AbsorbEpoch scratch for the epoch-batched proximity stage, reused
  /// across epochs: the epoch's proximity events and the per-report
  /// cumulative offsets that slice them back into input order.
  std::vector<Event> prox_events_;
  std::vector<std::size_t> prox_offsets_;
  /// Latest admission-queue shedding totals, captured by IngestFromQueue
  /// when its queue closes (cumulative per queue; kBlock leaves them 0).
  std::size_t admission_dropped_ = 0;
  std::vector<std::pair<std::uint64_t, std::size_t>> admission_drops_;
};

}  // namespace datacron

#endif  // DATACRON_DATACRON_ENGINE_H_
