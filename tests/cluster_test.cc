// Cluster runtime: byte-identity of the multi-node engine with serial
// Ingest at 1/2/4 nodes over loopback and TCP transports, including
// epoch-boundary edge cases; admission-policy semantics of the live push
// path; and the fleet-wide metrics merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/local_cluster.h"
#include "common/thread_pool.h"
#include "datacron/engine.h"
#include "net/codec.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sources/adsb_generator.h"
#include "sources/ais_generator.h"
#include "stream/admission.h"

namespace datacron {
namespace {

DatacronEngine::Config ClusterConfig(std::size_t epoch_size = 128) {
  DatacronEngine::Config cfg;
  cfg.areas.push_back(NamedArea{
      "port_alpha", Polygon::Rectangle(BoundingBox::Of(36, 24, 36.5, 24.5))});
  cfg.sectors.push_back(CapacityMonitor::Sector{
      "aegean", Polygon::Rectangle(BoundingBox::Of(35.0, 23.0, 39.0, 27.0)),
      5});
  cfg.hotspot_window = 10 * kMinute;
  cfg.hotspot.zscore_threshold = 2.0;
  cfg.gap.gap_threshold = 5 * kMinute;
  cfg.synopses.gap_threshold = 5 * kMinute;
  cfg.epoch_size = epoch_size;
  return cfg;
}

/// Mixed AIS + ADS-B replay with an injected silence window, same shape as
/// the in-process shard identity test: gap state, episode flushes and the
/// RDF continuation tables all cross epoch and node boundaries.
std::vector<PositionReport> MixedStream() {
  AisGeneratorConfig fleet;
  fleet.num_vessels = 10;
  fleet.duration = 30 * kMinute;
  ObservationConfig obs;
  obs.fixed_interval_ms = 15 * kSecond;
  std::vector<PositionReport> ais = ObserveFleet(GenerateAisFleet(fleet), obs);
  // One vessel's id is 2^30 or more, so its position nodes are dictionary
  // terms while every other node id is inline: both id spaces mix.
  const EntityId wide = ais.back().entity_id;
  for (PositionReport& r : ais) {
    if (r.entity_id == wide) r.entity_id |= EntityId{1} << 30;
  }

  AdsbGeneratorConfig air;
  air.region = BoundingBox::Of(35.0, 23.0, 39.0, 27.0);
  air.num_airports = 3;
  air.num_flights = 5;
  air.duration = 30 * kMinute;
  air.departure_window = 10 * kMinute;
  ObservationConfig air_obs;
  air_obs.fixed_interval_ms = 10 * kSecond;
  std::vector<PositionReport> adsb =
      ObserveFleet(GenerateAdsbTraffic(air), air_obs);

  std::vector<PositionReport> merged;
  merged.reserve(ais.size() + adsb.size());
  merged.insert(merged.end(), ais.begin(), ais.end());
  merged.insert(merged.end(), adsb.begin(), adsb.end());
  std::sort(merged.begin(), merged.end(), ReportTimeOrder());

  const EntityId silenced = merged.front().entity_id;
  const TimestampMs t0 = merged.front().timestamp + 8 * kMinute;
  const TimestampMs t1 = t0 + 15 * kMinute;
  std::erase_if(merged, [&](const PositionReport& r) {
    return r.entity_id == silenced && r.timestamp >= t0 && r.timestamp < t1;
  });
  return merged;
}

struct RunOutputs {
  std::vector<Event> events;
  std::vector<Triple> triples;
  std::vector<Episode> episodes;
  std::size_t critical_points = 0;
  std::size_t reports = 0;
  std::size_t dict_size = 0;
  std::size_t entity_count = 0;
  std::size_t total_points = 0;
};

RunOutputs Snapshot(const DatacronEngine& engine, std::vector<Event> events) {
  RunOutputs run;
  run.events = std::move(events);
  run.triples = engine.triples();
  run.episodes = engine.episodes();
  run.critical_points = engine.critical_points();
  run.reports = engine.reports_ingested();
  run.dict_size = engine.dictionary().size();
  run.entity_count = engine.trajectories().EntityCount();
  run.total_points = engine.trajectories().TotalPoints();
  return run;
}

RunOutputs RunSerial(const std::vector<PositionReport>& stream,
                     const DatacronEngine::Config& cfg = ClusterConfig()) {
  DatacronEngine engine(cfg);
  std::vector<Event> events;
  for (const PositionReport& r : stream) {
    const auto evs = engine.Ingest(r);
    events.insert(events.end(), evs.begin(), evs.end());
  }
  const auto final_events = engine.Finish();
  events.insert(events.end(), final_events.begin(), final_events.end());
  return Snapshot(engine, std::move(events));
}

RunOutputs RunCluster(const std::vector<PositionReport>& stream,
                      std::size_t num_nodes, LocalCluster::Wire wire,
                      const DatacronEngine::Config& cfg = ClusterConfig()) {
  LocalCluster::Options opts;
  opts.engine = cfg;
  opts.num_nodes = num_nodes;
  opts.wire = wire;
  Result<std::unique_ptr<LocalCluster>> cluster = LocalCluster::Start(opts);
  EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
  if (!cluster.ok()) return {};

  Result<std::vector<Event>> events =
      cluster.value()->engine().IngestBatch(stream);
  EXPECT_TRUE(events.ok()) << events.status().ToString();
  if (!events.ok()) return {};
  Result<std::vector<Event>> final_events =
      cluster.value()->engine().Finish();
  EXPECT_TRUE(final_events.ok()) << final_events.status().ToString();
  if (!final_events.ok()) return {};

  std::vector<Event> all = std::move(events).value();
  all.insert(all.end(), final_events.value().begin(),
             final_events.value().end());
  RunOutputs run =
      Snapshot(cluster.value()->engine().engine(), std::move(all));
  const Status stop = cluster.value()->Stop();
  EXPECT_TRUE(stop.ok()) << stop.ToString();
  return run;
}

void ExpectIdentical(const RunOutputs& a, const RunOutputs& b) {
  EXPECT_EQ(a.reports, b.reports);
  EXPECT_EQ(a.critical_points, b.critical_points);
  EXPECT_EQ(a.dict_size, b.dict_size);
  EXPECT_EQ(a.entity_count, b.entity_count);
  EXPECT_EQ(a.total_points, b.total_points);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_TRUE(a.events == b.events);
  ASSERT_EQ(a.triples.size(), b.triples.size());
  EXPECT_TRUE(a.triples == b.triples);
  ASSERT_EQ(a.episodes.size(), b.episodes.size());
  EXPECT_TRUE(a.episodes == b.episodes);
}

TEST(ClusterTest, ByteIdenticalAcrossNodeCountsOverLoopback) {
  const auto stream = MixedStream();
  ASSERT_GT(stream.size(), 1000u);
  const RunOutputs serial = RunSerial(stream);
  ASSERT_FALSE(serial.events.empty());
  ASSERT_FALSE(serial.triples.empty());
  ASSERT_FALSE(serial.episodes.empty());

  for (const std::size_t nodes : {1u, 2u, 4u}) {
    SCOPED_TRACE(nodes);
    const RunOutputs run =
        RunCluster(stream, nodes, LocalCluster::Wire::kLoopback);
    ExpectIdentical(serial, run);
  }
}

TEST(ClusterTest, ByteIdenticalOverTcpSockets) {
  const auto stream = MixedStream();
  const RunOutputs serial = RunSerial(stream);
  for (const std::size_t nodes : {1u, 2u, 4u}) {
    SCOPED_TRACE(nodes);
    const RunOutputs run =
        RunCluster(stream, nodes, LocalCluster::Wire::kTcp);
    ExpectIdentical(serial, run);
  }
}

TEST(ClusterTest, ByteIdenticalAtEpochBoundaryEdgeCases) {
  const auto stream = MixedStream();
  const RunOutputs serial = RunSerial(stream);
  // Epoch size 1 maximizes barrier churn (every report is its own epoch
  // and dictionary delta); 32 leaves most entity state straddling epochs.
  for (const std::size_t epoch_size : {1u, 32u}) {
    SCOPED_TRACE(epoch_size);
    const RunOutputs run = RunCluster(
        stream, 4, LocalCluster::Wire::kLoopback, ClusterConfig(epoch_size));
    ExpectIdentical(serial, run);
  }
}

TEST(ClusterTest, ByteIdenticalForConfigsThatChangeTheFlushTransform) {
  // rdfize_all_reports leaves the trajectory-end points un-RDF-ized at
  // Finish, and without sequence links the flush pre-seeds no previous
  // node: both change what the end-of-stream epoch transforms.
  const auto stream = MixedStream();
  DatacronEngine::Config all_reports = ClusterConfig();
  all_reports.rdfize_all_reports = true;
  DatacronEngine::Config unlinked = ClusterConfig();
  unlinked.rdf.emit_sequence_links = false;
  for (const auto& [name, cfg] :
       {std::pair{"rdfize_all_reports", all_reports},
        std::pair{"emit_sequence_links = false", unlinked}}) {
    SCOPED_TRACE(name);
    const RunOutputs serial = RunSerial(stream, cfg);
    ASSERT_FALSE(serial.triples.empty());
    ASSERT_FALSE(serial.episodes.empty());
    for (const std::size_t nodes : {1u, 3u}) {
      SCOPED_TRACE(nodes);
      ExpectIdentical(serial, RunCluster(stream, nodes,
                                         LocalCluster::Wire::kLoopback, cfg));
    }
  }
}

TEST(ClusterTest, OneDeltaFramePerNodePerEpochOnBothWires) {
  // The dictionary delta is coalesced into the epoch result frame, so a
  // full run exchanges exactly: 1 hello, 1 flush request, 1 flush reply
  // (an epoch result) and 1 shutdown per node, plus 1 report batch and 1
  // result (or watermark) per node per epoch — never anything per report.
  // The frame counters cover both transports, and the output stays
  // byte-identical.
  const auto stream = MixedStream();
  const RunOutputs serial = RunSerial(stream);
  constexpr std::size_t kNodes = 2;
  constexpr std::size_t kEpochSize = 128;
  const std::size_t epochs = (stream.size() + kEpochSize - 1) / kEpochSize;
  obs::Counter* tx = obs::MetricsRegistry::Global().counter("net.tx_frames");
  obs::Counter* rx = obs::MetricsRegistry::Global().counter("net.rx_frames");
  for (const LocalCluster::Wire wire :
       {LocalCluster::Wire::kLoopback, LocalCluster::Wire::kTcp}) {
    SCOPED_TRACE(wire == LocalCluster::Wire::kTcp ? "tcp" : "loopback");
    const std::uint64_t tx_before = tx->Value();
    const std::uint64_t rx_before = rx->Value();
    const RunOutputs run =
        RunCluster(stream, kNodes, wire, ClusterConfig(kEpochSize));
    ExpectIdentical(serial, run);
    const std::uint64_t expected = kNodes * (4 + 2 * epochs);
    EXPECT_EQ(tx->Value() - tx_before, expected);
    EXPECT_EQ(rx->Value() - rx_before, expected);
  }
}

TEST(ClusterTest, SplitIngestBatchesMatchOneBatch) {
  // Epoch numbering is global across IngestBatch calls, so feeding the
  // stream in slices must behave exactly like one batch.
  const auto stream = MixedStream();
  const RunOutputs serial = RunSerial(stream);

  LocalCluster::Options opts;
  opts.engine = ClusterConfig();
  opts.num_nodes = 2;
  Result<std::unique_ptr<LocalCluster>> cluster = LocalCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  std::vector<Event> events;
  const std::size_t third = stream.size() / 3;
  const std::span<const PositionReport> all(stream);
  for (const auto slice :
       {all.subspan(0, third), all.subspan(third, third),
        all.subspan(2 * third)}) {
    Result<std::vector<Event>> evs =
        cluster.value()->engine().IngestBatch(slice);
    ASSERT_TRUE(evs.ok()) << evs.status().ToString();
    events.insert(events.end(), evs.value().begin(), evs.value().end());
  }
  Result<std::vector<Event>> final_events = cluster.value()->engine().Finish();
  ASSERT_TRUE(final_events.ok());
  events.insert(events.end(), final_events.value().begin(),
                final_events.value().end());
  ExpectIdentical(serial, Snapshot(cluster.value()->engine().engine(),
                                   std::move(events)));
  ASSERT_TRUE(cluster.value()->Stop().ok());
}

TEST(ClusterTest, FleetMetricsMergeAcrossNodes) {
  const auto stream = MixedStream();
  LocalCluster::Options opts;
  opts.engine = ClusterConfig();
  opts.num_nodes = 3;
  Result<std::unique_ptr<LocalCluster>> cluster = LocalCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE(cluster.value()->engine().IngestBatch(stream).ok());

  Result<std::string> report = cluster.value()->engine().MetricsReport();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // One table covering the whole fleet: every keyed detector (merged
  // across the three nodes) plus the coordinator's global stages.
  for (const char* name :
       {"critical_point_detector", "area_event_detector",
        "loitering_detector", "gap_detector", "speed_anomaly_detector",
        "proximity_detector", "capacity_monitor", "hotspot_detector"}) {
    EXPECT_NE(report.value().find(name), std::string::npos) << name;
  }
  EXPECT_NE(report.value().find("cep-keyed"), std::string::npos);
  EXPECT_NE(report.value().find("cep-global"), std::string::npos);
  ASSERT_TRUE(cluster.value()->Stop().ok());
}

/// Counters and histogram sample counts of a snapshot; "*.instances"
/// counters are left out, as they count shards or nodes by design.
/// Histogram buckets hold timings and may differ between runs.
std::map<std::string, std::uint64_t> ExactMetrics(
    const obs::MetricsSnapshot& snap) {
  std::map<std::string, std::uint64_t> exact;
  for (const auto& [name, v] : snap.counters) {
    if (!name.ends_with(".instances")) exact[name] = v;
  }
  for (const auto& [name, h] : snap.histograms) {
    exact[name + ".count"] = h.count();
  }
  return exact;
}

TEST(ClusterTest, FleetMetricsEqualSerialAndShardedMetrics) {
  const auto stream = MixedStream();
  DatacronEngine serial(ClusterConfig());
  for (const PositionReport& r : stream) serial.Ingest(r);
  serial.Finish();
  const auto expected = ExactMetrics(serial.MetricsSnapshot());
  EXPECT_EQ(expected.at("engine.reports"), stream.size());
  EXPECT_EQ(expected.at("engine.synopses.critical_point_detector.items_in"),
            stream.size());
  EXPECT_EQ(expected.at("engine.report_ns.count"), stream.size());
  EXPECT_GT(expected.at("engine.critical_points"), 0u);
  EXPECT_GT(expected.at("engine.triples"), 0u);
  EXPECT_GT(expected.at("engine.episodes"), 0u);

  DatacronEngine::Config cfg = ClusterConfig();
  cfg.num_shards = 4;
  DatacronEngine sharded(cfg);
  ThreadPool pool(2);
  sharded.IngestBatch(stream, &pool);
  sharded.Finish();
  EXPECT_EQ(ExactMetrics(sharded.MetricsSnapshot()), expected);

  LocalCluster::Options opts;
  opts.engine = ClusterConfig();
  opts.num_nodes = 3;
  Result<std::unique_ptr<LocalCluster>> cluster = LocalCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  ASSERT_TRUE(cluster.value()->engine().IngestBatch(stream).ok());
  ASSERT_TRUE(cluster.value()->engine().Finish().ok());
  Result<obs::MetricsSnapshot> fleet =
      cluster.value()->engine().MetricsSnapshot();
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  EXPECT_EQ(ExactMetrics(fleet.value()), expected);
  // Keyed operators ran on the three nodes, not on the coordinator's
  // local shard; the global stage ran on the coordinator alone.
  EXPECT_EQ(fleet.value().counters.at(
                "engine.synopses.critical_point_detector.instances"),
            3u);
  EXPECT_EQ(fleet.value().counters.at(
                "engine.cep-global.proximity_detector.instances"),
            1u);
  ASSERT_TRUE(cluster.value()->Stop().ok());
}

/// Runs a coordinator against scripted nodes on the far ends of loopback
/// pairs: node n sends a Hello with an empty dictionary baseline, then
/// `frames[n]` (loopback sends never block, so every reply can be queued
/// before the coordinator asks for it). Ingests `report` as one epoch and,
/// with `finish`, ends the stream; returns the first non-OK Status. With
/// `triples`, also returns the coordinator's triples.
Status RunScripted(const PositionReport& report,
                   const std::vector<std::vector<std::string>>& frames,
                   bool finish, std::vector<Triple>* triples = nullptr) {
  std::vector<std::unique_ptr<Transport>> nodes;
  std::vector<std::unique_ptr<Transport>> scripted;
  for (std::size_t n = 0; n < frames.size(); ++n) {
    auto [coord_end, node_end] = LoopbackTransport::CreatePair();
    HelloMsg hello;
    hello.node_id = static_cast<std::uint32_t>(n);
    hello.num_nodes = static_cast<std::uint32_t>(frames.size());
    EXPECT_TRUE(node_end->Send(Encode(hello)).ok());
    for (const std::string& frame : frames[n]) {
      EXPECT_TRUE(node_end->Send(frame).ok());
    }
    nodes.push_back(std::move(coord_end));
    scripted.push_back(std::move(node_end));
  }
  ClusterEngine::Options opts;
  opts.engine = ClusterConfig();
  ClusterEngine engine(opts, std::move(nodes));
  Result<std::vector<Event>> events =
      engine.IngestBatch(std::span<const PositionReport>(&report, 1));

  // The coordinator did send the batch the scripted nodes answered.
  std::size_t routed = 0;
  for (const std::unique_ptr<Transport>& node : scripted) {
    Result<std::string> sent = node->Recv();
    EXPECT_TRUE(sent.ok());
    if (!sent.ok()) continue;
    ReportBatchMsg batch;
    EXPECT_TRUE(Decode(sent.value(), &batch).ok());
    routed += batch.reports.size();
  }
  EXPECT_EQ(routed, 1u);
  if (!events.ok()) return events.status();
  if (triples != nullptr) *triples = engine.engine().triples();
  if (!finish) return Status::OK();
  Result<std::vector<Event>> final_events = engine.Finish();
  return final_events.ok() ? Status::OK() : final_events.status();
}

TEST(ClusterTest, MisbehavingNodeRepliesYieldStatusNotCrash) {
  // Scripted nodes answer the coordinator's one-report batch, and then its
  // flush request, with well-framed but inconsistent replies. Every case
  // must surface as a non-OK Status from IngestBatch or Finish.
  const PositionReport report = MixedStream().front();
  const EntityId entity = report.entity_id;
  const auto valid_reply = [entity] {
    EpochResultMsg reply;
    reply.epoch = 0;
    reply.dict_size_before = 0;
    reply.new_terms.push_back({"urn:t", TermKind::kIri});
    reply.triples.push_back({1, 1, 1});
    DatacronEngine::ShardSlot slot;
    slot.entity = entity;
    slot.terms_end = 1;
    slot.triples_end = 1;
    reply.slots.push_back(slot);
    return reply;
  };
  // The end-of-stream reply after valid_reply: one slot per flushed
  // entity, over a dictionary that already holds the one term.
  const auto valid_flush = [entity](std::vector<EntityId> entities = {}) {
    if (entities.empty()) entities.push_back(entity);
    EpochResultMsg reply;
    reply.dict_size_before = 1;
    for (const EntityId e : entities) {
      reply.triples.push_back({1, 1, 1});
      DatacronEngine::ShardSlot slot;
      slot.entity = e;
      slot.terms_end = 1;
      slot.triples_end = reply.triples.size();
      reply.slots.push_back(slot);
    }
    return reply;
  };
  // Two nodes: the one the report routes to answers it, the other sends
  // the empty-batch watermark; both then answer the flush.
  const std::size_t routed = MixU64(entity) % 2;
  const auto two_nodes = [&](const EpochResultMsg& routed_flush,
                             const EpochResultMsg& idle_flush) {
    std::vector<std::vector<std::string>> frames(2);
    frames[routed] = {Encode(valid_reply()), Encode(routed_flush)};
    frames[1 - routed] = {Encode(WatermarkMsg{}), Encode(idle_flush)};
    return frames;
  };
  EpochResultMsg idle_flush;
  idle_flush.slots.emplace_back();
  idle_flush.slots.back().entity = entity + 1;

  struct Case {
    const char* name;
    std::vector<std::vector<std::string>> frames;
    bool finish = false;
  };
  std::vector<Case> cases;
  const auto add_epoch_case = [&](const char* name, EpochResultMsg reply) {
    cases.push_back({name, {{Encode(reply)}}, false});
  };
  TermKind kind_probe = TermKind::kIri;
  EpochResultMsg bad = valid_reply();
  bad.slots[0].triples_end = 2;
  add_epoch_case("watermark overruns triples", bad);
  bad = valid_reply();
  bad.triples[0].o = 7;
  add_epoch_case("term id outside node dictionary", bad);
  bad = valid_reply();
  bad.tags.push_back({9, StTag{}});
  add_epoch_case("tag term id outside node dictionary", bad);
  bad = valid_reply();
  // An inline double whose mantissa keeps a trailing zero (10 × 10^0): no
  // value encodes to it.
  bad.triples[0].o = (InlineDouble(1.0) - (TermId{1} << 34)) + 9;
  ASSERT_TRUE(IsInlineTerm(bad.triples[0].o));
  ASSERT_FALSE(InlineTermKind(bad.triples[0].o, &kind_probe));
  add_epoch_case("malformed inline double", bad);
  bad = valid_reply();
  bad.triples[0].o = kLocalTermBit | 1;
  add_epoch_case("batch-local term id on the wire", bad);
  bad = valid_reply();
  bad.slots.push_back(bad.slots[0]);
  add_epoch_case("slot count differs from routed reports", bad);
  bad = valid_reply();
  bad.slots[0].entity = entity + 1;
  add_epoch_case("slot entity differs from its report", bad);

  const auto add_flush_case = [&](const char* name, EpochResultMsg flush) {
    cases.push_back(
        {name, {{Encode(valid_reply()), Encode(flush)}}, true});
  };
  add_flush_case("flush slots not ascending",
                 valid_flush({entity + 1, entity}));
  add_flush_case("flush slots repeat an entity",
                 valid_flush({entity, entity}));
  bad = valid_flush();
  bad.triples[0].s = 7;
  add_flush_case("flush term id outside node dictionary", bad);
  bad = valid_flush();
  bad.dict_size_before = 0;
  bad.new_terms.push_back({"urn:u", TermKind::kIri});
  add_flush_case("flush dictionary base out of sync", bad);
  EpochResultMsg twin_flush = idle_flush;
  twin_flush.slots.back().entity = entity;
  cases.push_back({"entity flushed by two nodes",
                   two_nodes(valid_flush(), twin_flush), true});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_FALSE(RunScripted(report, c.frames, c.finish).ok());
  }

  // Sanity: the unmodified replies are accepted, so each case above
  // failed for its own defect.
  Status ok = RunScripted(report, {{Encode(valid_reply())}}, false);
  EXPECT_TRUE(ok.ok()) << ok.ToString();
  ok = RunScripted(report, {{Encode(valid_reply()), Encode(valid_flush())}},
                   true);
  EXPECT_TRUE(ok.ok()) << ok.ToString();
  ok = RunScripted(report, two_nodes(valid_flush(), idle_flush), true);
  EXPECT_TRUE(ok.ok()) << ok.ToString();

  // A well-formed inline id — literal or position node — is the same on
  // every node: the coordinator accepts it and stores it untranslated.
  EpochResultMsg inline_reply = valid_reply();
  inline_reply.triples[0].s = InlineNode(entity, 4);
  inline_reply.triples[0].o = InlineDouble(12.5);
  std::vector<Triple> stored;
  ok = RunScripted(report, {{Encode(inline_reply)}}, false, &stored);
  EXPECT_TRUE(ok.ok()) << ok.ToString();
  ASSERT_EQ(stored.size(), 1u);
  EXPECT_EQ(stored[0].s, InlineNode(entity, 4));
  EXPECT_EQ(stored[0].o, InlineDouble(12.5));
}

TEST(ClusterTest, EpochAbsorbRunsTheEpochBatchedGlobalCep) {
  // The coordinator absorbs node arenas through the same AbsorbEpoch as
  // the in-process engine: one engine.global_cep_epoch span per cluster
  // epoch, nested in that epoch's cluster.epoch_absorb span, next to the
  // delta export/import spans the trace tooling expects.
  const auto stream = MixedStream();
  constexpr std::size_t kEpochSize = 128;
  const std::size_t epochs = (stream.size() + kEpochSize - 1) / kEpochSize;
  obs::TraceCollector::Discard();
  obs::EnableTracing(true);
  const RunOutputs run =
      RunCluster(stream, 2, LocalCluster::Wire::kLoopback,
                 ClusterConfig(kEpochSize));
  obs::EnableTracing(false);
  const std::vector<obs::TraceSpanRecord> spans =
      obs::TraceCollector::Drain();
  ExpectIdentical(RunSerial(stream), run);

  std::vector<obs::TraceSpanRecord> absorbs;
  std::vector<obs::TraceSpanRecord> globals;
  bool saw_export = false;
  bool saw_import = false;
  for (const obs::TraceSpanRecord& s : spans) {
    const std::string name = s.name;
    if (name == "cluster.epoch_absorb") absorbs.push_back(s);
    if (name == "engine.global_cep_epoch") globals.push_back(s);
    saw_export |= name == "cluster.delta_export";
    saw_import |= name == "cluster.delta_import";
  }
  EXPECT_TRUE(saw_export);
  EXPECT_TRUE(saw_import);
  ASSERT_EQ(absorbs.size(), epochs);
  ASSERT_EQ(globals.size(), epochs);
  for (const obs::TraceSpanRecord& g : globals) {
    const auto parent = std::find_if(
        absorbs.begin(), absorbs.end(), [&g](const obs::TraceSpanRecord& a) {
          return a.tid == g.tid && a.epoch == g.epoch &&
                 a.start_ns <= g.start_ns &&
                 g.start_ns + g.dur_ns <= a.start_ns + a.dur_ns;
        });
    EXPECT_NE(parent, absorbs.end()) << "epoch " << g.epoch;
  }
}

// ---------------------------------------------------------------------
// Admission policy (live push path)
// ---------------------------------------------------------------------

TEST(AdmissionQueueTest, BlockPolicyStallsProducerUntilDrained) {
  AdmissionQueue<int>::Options opts;
  opts.capacity = 2;
  opts.policy = AdmissionPolicy::kBlock;
  AdmissionQueue<int> queue(opts);

  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));
  std::thread producer([&queue] { EXPECT_TRUE(queue.Push(3)); });
  // The third push must block while the queue is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(queue.size(), 2u);

  std::vector<int> got = queue.PopBatch(8);
  producer.join();
  std::vector<int> rest = queue.PopBatch(8);
  got.insert(got.end(), rest.begin(), rest.end());
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.dropped(), 0u);
}

TEST(AdmissionQueueTest, DropOldestPolicyShedsFromTheFront) {
  AdmissionQueue<int>::Options opts;
  opts.capacity = 2;
  opts.policy = AdmissionPolicy::kDropOldest;
  AdmissionQueue<int> queue(opts);

  for (int i = 1; i <= 5; ++i) ASSERT_TRUE(queue.Push(i));
  EXPECT_EQ(queue.dropped(), 3u);
  EXPECT_EQ(queue.PopBatch(8), (std::vector<int>{4, 5}));

  queue.Close();
  EXPECT_FALSE(queue.Push(6));
  EXPECT_TRUE(queue.PopBatch(8).empty());
}

TEST(AdmissionQueueTest, DropOldestAttributesDropsPerKey) {
  AdmissionQueue<int>::Options opts;
  opts.capacity = 2;
  opts.policy = AdmissionPolicy::kDropOldest;
  opts.drop_key = [](const int& v) {
    return static_cast<std::uint64_t>(v % 2);
  };
  AdmissionQueue<int> queue(opts);

  for (int i = 1; i <= 6; ++i) ASSERT_TRUE(queue.Push(i));
  // Evicted from the front: 1, 2, 3, 4 — two odd keys, two even keys.
  EXPECT_EQ(queue.dropped(), 4u);
  const auto by_key = queue.DropsByKey();
  ASSERT_EQ(by_key.size(), 2u);
  EXPECT_EQ(by_key[0].first, 0u);
  EXPECT_EQ(by_key[0].second, 2u);
  EXPECT_EQ(by_key[1].first, 1u);
  EXPECT_EQ(by_key[1].second, 2u);
}

TEST(AdmissionQueueTest, DropFairShedsTheChattyKeyNotTheQuietOnes) {
  AdmissionQueue<int>::Options opts;
  opts.capacity = 8;
  opts.policy = AdmissionPolicy::kDropFair;
  // Key = value / 100: items 100..199 belong to key 1, 200..299 to key 2…
  opts.drop_key = [](const int& v) {
    return static_cast<std::uint64_t>(v / 100);
  };
  AdmissionQueue<int> queue(opts);

  // One item each from four quiet keys, then a chatty key floods the rest
  // of the queue and keeps pushing past capacity.
  for (int v : {200, 300, 400, 500}) ASSERT_TRUE(queue.Push(v));
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(queue.Push(100 + i));

  // Every eviction lands on the chatty key 1: it is over its fair share
  // (8 / 5 live keys = 1) on every overflowing push.
  EXPECT_EQ(queue.dropped(), 8u);
  const auto by_key = queue.DropsByKey();
  ASSERT_EQ(by_key.size(), 1u);
  EXPECT_EQ(by_key[0].first, 1u);
  EXPECT_EQ(by_key[0].second, 8u);

  // The quiet keys' items all survive, still in arrival order, followed
  // by the chatty key's newest items.
  const std::vector<int> got = queue.PopBatch(16);
  EXPECT_EQ(got,
            (std::vector<int>{200, 300, 400, 500, 108, 109, 110, 111}));
}

TEST(AdmissionQueueTest, DropFairEvictsTheMostBufferedKeyWhenPusherIsUnderBudget) {
  AdmissionQueue<int>::Options opts;
  opts.capacity = 4;
  opts.policy = AdmissionPolicy::kDropFair;
  opts.drop_key = [](const int& v) {
    return static_cast<std::uint64_t>(v / 100);
  };
  AdmissionQueue<int> queue(opts);

  // Key 1 fills the queue; a brand-new quiet key pushes one item. The
  // pusher is under budget, so the most-buffered key (1) sheds its
  // oldest item instead.
  for (int v : {100, 101, 102, 103}) ASSERT_TRUE(queue.Push(v));
  ASSERT_TRUE(queue.Push(200));
  EXPECT_EQ(queue.dropped(), 1u);
  const auto by_key = queue.DropsByKey();
  ASSERT_EQ(by_key.size(), 1u);
  EXPECT_EQ(by_key[0].first, 1u);
  EXPECT_EQ(queue.PopBatch(8), (std::vector<int>{101, 102, 103, 200}));
}

TEST(AdmissionQueueTest, DropFairTiesBreakTowardTheSmallestKey) {
  AdmissionQueue<int>::Options opts;
  opts.capacity = 4;
  opts.policy = AdmissionPolicy::kDropFair;
  opts.drop_key = [](const int& v) {
    return static_cast<std::uint64_t>(v / 100);
  };
  AdmissionQueue<int> queue(opts);

  // Keys 1 and 2 each buffer two items; a new key 3 pushes while under
  // budget. Both incumbents are tied as "most buffered" — the smaller
  // key (1) is the deterministic victim.
  for (int v : {100, 200, 101, 201}) ASSERT_TRUE(queue.Push(v));
  ASSERT_TRUE(queue.Push(300));
  EXPECT_EQ(queue.dropped(), 1u);
  const auto by_key = queue.DropsByKey();
  ASSERT_EQ(by_key.size(), 1u);
  EXPECT_EQ(by_key[0].first, 1u);
  EXPECT_EQ(queue.PopBatch(8), (std::vector<int>{200, 101, 201, 300}));
}

TEST(AdmissionQueueTest, DropFairWithoutDropKeyFallsBackToDropOldest) {
  AdmissionQueue<int>::Options opts;
  opts.capacity = 2;
  opts.policy = AdmissionPolicy::kDropFair;
  AdmissionQueue<int> queue(opts);

  for (int i = 1; i <= 5; ++i) ASSERT_TRUE(queue.Push(i));
  EXPECT_EQ(queue.dropped(), 3u);
  EXPECT_EQ(queue.PopBatch(8), (std::vector<int>{4, 5}));
}

TEST(AdmissionTest, EngineQueueIngestMatchesSerialUnderBlockPolicy) {
  const auto stream = MixedStream();
  const RunOutputs serial = RunSerial(stream);

  DatacronEngine::Config cfg = ClusterConfig();
  cfg.admission = AdmissionPolicy::kBlock;
  cfg.admission_capacity = 64;  // tiny: force the producer to stall
  DatacronEngine engine(cfg);
  auto queue = engine.NewAdmissionQueue();
  EXPECT_EQ(queue->capacity(), 64u);
  EXPECT_EQ(queue->policy(), AdmissionPolicy::kBlock);

  std::thread producer([&] {
    for (const PositionReport& r : stream) queue->Push(r);
    queue->Close();
  });
  std::vector<Event> events = engine.IngestFromQueue(queue.get(), nullptr);
  producer.join();
  const auto final_events = engine.Finish();
  events.insert(events.end(), final_events.begin(), final_events.end());
  EXPECT_EQ(queue->dropped(), 0u);
  ExpectIdentical(serial, Snapshot(engine, std::move(events)));
}

TEST(AdmissionTest, DropOldestShedsWhenConsumerLags) {
  const auto stream = MixedStream();
  DatacronEngine::Config cfg = ClusterConfig();
  cfg.admission = AdmissionPolicy::kDropOldest;
  cfg.admission_capacity = 256;
  DatacronEngine engine(cfg);
  auto queue = engine.NewAdmissionQueue();

  // No consumer while the whole stream is pushed: everything beyond the
  // buffer is shed from the front, the freshest reports survive.
  for (const PositionReport& r : stream) ASSERT_TRUE(queue->Push(r));
  queue->Close();
  EXPECT_EQ(queue->dropped(), stream.size() - 256);

  std::vector<Event> events = engine.IngestFromQueue(queue.get(), nullptr);
  EXPECT_EQ(engine.reports_ingested(), 256u);
  // The admitted suffix is processed in arrival order.
  const std::vector<Triple>& triples = engine.triples();
  EXPECT_FALSE(triples.empty());

  // Load shedding is attributable: the metrics report names the policy,
  // the total, and the per-entity counts the queue recorded.
  const std::string report = engine.MetricsReport();
  EXPECT_NE(report.find("admission: policy=drop-oldest"), std::string::npos)
      << report;
  EXPECT_NE(report.find("entities_hit="), std::string::npos);
  EXPECT_NE(report.find("dropped"), std::string::npos);
}

TEST(AdmissionTest, ClusterMetricsReportShowsShedding) {
  const auto stream = MixedStream();
  LocalCluster::Options opts;
  opts.engine = ClusterConfig();
  opts.engine.admission = AdmissionPolicy::kDropOldest;
  opts.engine.admission_capacity = 256;
  opts.num_nodes = 2;
  Result<std::unique_ptr<LocalCluster>> cluster = LocalCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());

  // The whole stream is pushed before the fleet drains anything, so the
  // queue overflows and sheds from the front.
  auto queue = cluster.value()->engine().NewAdmissionQueue();
  for (const PositionReport& r : stream) ASSERT_TRUE(queue->Push(r));
  queue->Close();
  ASSERT_EQ(queue->dropped(), stream.size() - 256);
  ASSERT_TRUE(cluster.value()->engine().IngestFromQueue(queue.get()).ok());

  Result<std::string> report = cluster.value()->engine().MetricsReport();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report.value().find("admission: policy=drop-oldest"),
            std::string::npos)
      << report.value();
  EXPECT_NE(report.value().find("entities_hit="), std::string::npos);
  ASSERT_TRUE(cluster.value()->Stop().ok());
}

TEST(AdmissionTest, ClusterQueueIngestMatchesSerial) {
  const auto stream = MixedStream();
  const RunOutputs serial = RunSerial(stream);

  LocalCluster::Options opts;
  opts.engine = ClusterConfig();
  opts.engine.admission = AdmissionPolicy::kBlock;
  opts.num_nodes = 2;
  Result<std::unique_ptr<LocalCluster>> cluster = LocalCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());

  auto queue = cluster.value()->engine().NewAdmissionQueue();
  std::thread producer([&] {
    for (const PositionReport& r : stream) queue->Push(r);
    queue->Close();
  });
  Result<std::vector<Event>> events =
      cluster.value()->engine().IngestFromQueue(queue.get());
  producer.join();
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  Result<std::vector<Event>> final_events = cluster.value()->engine().Finish();
  ASSERT_TRUE(final_events.ok());

  std::vector<Event> all = std::move(events).value();
  all.insert(all.end(), final_events.value().begin(),
             final_events.value().end());
  ExpectIdentical(serial, Snapshot(cluster.value()->engine().engine(),
                                   std::move(all)));
  ASSERT_TRUE(cluster.value()->Stop().ok());
}

}  // namespace
}  // namespace datacron
