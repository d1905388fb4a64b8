// E13 — Continuous-query subscription tier at scale.
//
// Sweeps the standing-query count over 10k / 100k / 1M (``--quick`` drops
// the 1M cell) against a fixed report stream, measuring what the
// subscription tier itself costs: registration rate, incremental
// per-epoch evaluation (EvalKeyed inside the shard + barrier CloseEpoch,
// driven on one core), the coalesced delta volume, and the loopback
// fan-out of the resulting kDeltaBatch frames through the
// SubscriptionBroker.
//
// The hard invariant is byte-identity with SubscriptionOracle's full
// re-evaluation: at every cell up to 100k subscriptions a prefix of
// epochs is re-evaluated from scratch and the encoded batches compared
// byte for byte; the measured incremental/full ratio is the "speedup"
// the CI floor guards (>= 5x at 100k). The 1M cell times the incremental
// path only — the oracle's O(subs x epoch) scan is the cost being
// avoided. Emits BENCH_sub.json; `--trace-out` writes the Chrome trace
// (the sub.eval_epoch span the CI trace validation requires).
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/time_utils.h"
#include "net/codec.h"
#include "net/sub_channel.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "sub/oracle.h"
#include "sub/registry.h"
#include "sub/subscription.h"
#include "bench_nproc.h"

namespace datacron {
namespace {

constexpr std::size_t kEntities = 500;
constexpr SubscriberId kSubscribers = 64;
const BoundingBox kRegion = BoundingBox::Of(35.0, 23.0, 39.0, 27.0);

/// Deterministic LCG so every run (and both evaluation paths) sees the
/// same subscription set and stream.
struct Lcg {
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  std::uint64_t Next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 11;
  }
  double Uniform() {
    return static_cast<double>(Next() % (1u << 20)) / (1u << 20);
  }
};

/// Small grid-indexed box somewhere in the region (kept well under the
/// catchall threshold so the sweep measures the indexed path).
BoundingBox RandomBox(Lcg* rng) {
  const double lat = 35.0 + rng->Uniform() * 3.6;
  const double lon = 23.0 + rng->Uniform() * 3.6;
  const double h = 0.05 + rng->Uniform() * 0.2;
  const double w = 0.05 + rng->Uniform() * 0.2;
  return BoundingBox::Of(lat, lon, lat + h, lon + w);
}

/// The E13 mix: ~70% per-entity geofences, 10% fleet geofences, 10%
/// proximity watches, 10% hotspot thresholds, spread over kSubscribers
/// subscriber channels.
SubscriptionSpec RandomSpec(std::size_t i, Lcg* rng) {
  const std::uint64_t roll = rng->Next() % 10;
  if (roll < 7) {
    GeofenceSpec g;
    g.bbox = RandomBox(rng);
    g.entity = static_cast<EntityId>(1 + i % kEntities);
    if (rng->Next() % 4 == 0) g.dwell_ms = 5 * kMinute;
    return SubscriptionSpec::Geofence(g);
  }
  if (roll < 8) {
    GeofenceSpec g;
    g.bbox = RandomBox(rng);
    g.all_entities = true;
    return SubscriptionSpec::Geofence(g);
  }
  if (roll < 9) {
    ProximitySpec p;
    p.entity = static_cast<EntityId>(1 + i % kEntities);
    p.min_interval_ms = (rng->Next() % 2) * 5 * kMinute;
    return SubscriptionSpec::Proximity(p);
  }
  HotspotSpec h;
  h.bbox = RandomBox(rng);
  h.threshold = 1.0 + rng->Uniform() * 20.0;
  h.window_epochs = 1 + static_cast<std::uint32_t>(rng->Next() % 4);
  return SubscriptionSpec::Hotspot(h);
}

/// Entities sweep east across the region, one report per stream slot in
/// round-robin entity order — every entity keeps crossing geofence boxes
/// for the whole run.
std::vector<PositionReport> MakeStream(std::size_t total_reports) {
  std::vector<PositionReport> out;
  out.reserve(total_reports);
  std::vector<double> lon(kEntities);
  for (std::size_t e = 0; e < kEntities; ++e) {
    lon[e] = 23.0 + 0.008 * static_cast<double>(e % 499);
  }
  for (std::size_t i = 0; i < total_reports; ++i) {
    const std::size_t e = i % kEntities;
    PositionReport r;
    r.entity_id = static_cast<EntityId>(1 + e);
    r.timestamp = static_cast<TimestampMs>(i) * 2 * kSecond;
    r.position = {35.0 + 3.9 * static_cast<double>(e) / kEntities, lon[e],
                  0.0};
    r.speed_mps = 8.0;
    r.course_deg = 90.0;
    out.push_back(r);
    lon[e] += 0.05;
    if (lon[e] > 27.0) lon[e] = 23.0;
  }
  return out;
}

/// A handful of encounter events per epoch (what the global CEP stage
/// would feed the barrier) so the proximity watches do real work.
std::vector<Event> MakeProxEvents(std::int64_t epoch, TimestampMs ts) {
  std::vector<Event> out;
  for (int j = 0; j < 4; ++j) {
    Event ev;
    ev.kind = EventKind::kEncounter;
    ev.time = ts;
    const EntityId a = static_cast<EntityId>(
        1 + (static_cast<std::size_t>(epoch) * 37 + j * 13) % kEntities);
    const EntityId b = static_cast<EntityId>(1 + (a % kEntities));
    ev.entities = {a, b};
    ev.attributes["distance_m"] = 500.0 + 100.0 * j;
    out.push_back(ev);
  }
  return out;
}

std::string EncodeBatches(const std::vector<DeltaBatch>& batches) {
  std::string out;
  for (const DeltaBatch& b : batches) out += Encode(DeltaBatchMsg{b});
  return out;
}

struct SubRecord {
  std::size_t subs = 0;
  double register_ns_per_sub = 0.0;
  double eval_ns_per_epoch = 0.0;
  double eval_ns_per_sub_epoch = 0.0;
  double eval_ns_per_report = 0.0;
  double deltas_per_epoch = 0.0;
  double delta_bytes_per_epoch = 0.0;
  double fanout_ns_per_epoch = 0.0;
  double oracle_ns_per_epoch = 0.0;
  bool identity_checked = false;
  bool identical = true;
  double speedup = 0.0;
};

/// One sweep cell: register `num_subs`, run the stream through the
/// incremental path epoch by epoch, oracle-check a prefix when feasible,
/// then replay the emitted batches through a loopback broker fan-out.
SubRecord RunCell(std::size_t num_subs,
                  const std::vector<PositionReport>& stream,
                  std::size_t epoch_size, std::size_t check_epochs) {
  SubRecord rec;
  rec.subs = num_subs;
  const std::size_t epochs = stream.size() / epoch_size;

  SubscriptionRegistry reg;
  Lcg rng;
  Stopwatch reg_timer;
  for (std::size_t i = 0; i < num_subs; ++i) {
    const auto id = reg.Subscribe(
        static_cast<SubscriberId>(1 + i % kSubscribers), RandomSpec(i, &rng));
    if (!id.ok()) {
      std::fprintf(stderr, "registration failed: %s\n",
                   id.status().ToString().c_str());
      rec.identical = false;
      return rec;
    }
  }
  rec.register_ns_per_sub =
      reg_timer.ElapsedSeconds() * 1e9 / static_cast<double>(num_subs);

  // --- incremental path, one core ------------------------------------
  std::vector<std::string> epoch_bytes;
  epoch_bytes.reserve(epochs);
  std::vector<DeltaBatch> all_batches;
  std::size_t total_deltas = 0;
  std::vector<SubDelta> deltas;
  FlatHashMap<std::uint64_t, double> counts;
  Stopwatch eval_timer;
  for (std::size_t ep = 0; ep < epochs; ++ep) {
    const std::span<const PositionReport> chunk(
        stream.data() + ep * epoch_size, epoch_size);
    for (const PositionReport& r : chunk) {
      deltas.clear();
      counts.Clear();
      reg.EvalKeyed(0, r, &deltas, &counts);
      reg.AddKeyedDeltas(deltas);
      reg.AddHotspotCounts(counts);
    }
    const std::vector<Event> prox =
        MakeProxEvents(static_cast<std::int64_t>(ep),
                       chunk.back().timestamp);
    reg.AddGlobalEvents(prox);
    reg.CloseEpoch(chunk.back().timestamp);
    std::vector<DeltaBatch> batches = reg.TakeBatches();
    for (const DeltaBatch& b : batches) total_deltas += b.deltas.size();
    epoch_bytes.push_back(EncodeBatches(batches));
    all_batches.insert(all_batches.end(),
                       std::make_move_iterator(batches.begin()),
                       std::make_move_iterator(batches.end()));
  }
  const double eval_ns = eval_timer.ElapsedSeconds() * 1e9;
  rec.eval_ns_per_epoch = eval_ns / static_cast<double>(epochs);
  rec.eval_ns_per_sub_epoch =
      rec.eval_ns_per_epoch / static_cast<double>(num_subs);
  rec.eval_ns_per_report = eval_ns / static_cast<double>(stream.size());
  rec.deltas_per_epoch =
      static_cast<double>(total_deltas) / static_cast<double>(epochs);
  std::size_t total_bytes = 0;
  for (const std::string& b : epoch_bytes) total_bytes += b.size();
  rec.delta_bytes_per_epoch =
      static_cast<double>(total_bytes) / static_cast<double>(epochs);

  // --- full re-evaluation oracle on a prefix of epochs ----------------
  if (check_epochs > 0) {
    SubscriptionRegistry oracle_reg;
    Lcg oracle_rng;
    for (std::size_t i = 0; i < num_subs; ++i) {
      (void)oracle_reg.Subscribe(
          static_cast<SubscriberId>(1 + i % kSubscribers),
          RandomSpec(i, &oracle_rng));
    }
    SubscriptionOracle oracle(&oracle_reg);
    rec.identity_checked = true;
    Stopwatch oracle_timer;
    for (std::size_t ep = 0; ep < check_epochs; ++ep) {
      const std::span<const PositionReport> chunk(
          stream.data() + ep * epoch_size, epoch_size);
      const std::vector<Event> prox =
          MakeProxEvents(static_cast<std::int64_t>(ep),
                         chunk.back().timestamp);
      const std::string bytes = EncodeBatches(
          oracle.EvalEpoch(chunk, prox, chunk.back().timestamp));
      if (bytes != epoch_bytes[ep]) {
        rec.identical = false;
        std::fprintf(stderr,
                     "IDENTITY VIOLATION: %zu subs, epoch %zu: incremental "
                     "%zu bytes vs oracle %zu bytes\n",
                     num_subs, ep, epoch_bytes[ep].size(), bytes.size());
      }
    }
    rec.oracle_ns_per_epoch = oracle_timer.ElapsedSeconds() * 1e9 /
                              static_cast<double>(check_epochs);
    rec.speedup = rec.oracle_ns_per_epoch / rec.eval_ns_per_epoch;
  }

  // --- loopback fan-out of the emitted batches ------------------------
  {
    SubscriptionBroker::Hooks hooks;
    hooks.subscribe = [&reg](SubscriberId client,
                             const SubscriptionSpec& spec) {
      return reg.Subscribe(client, spec);
    };
    hooks.unsubscribe = [&reg](SubscriptionId id) {
      return reg.Unsubscribe(id);
    };
    SubscriptionBroker broker(hooks);
    std::vector<std::unique_ptr<Transport>> receivers;
    for (SubscriberId c = 1; c <= kSubscribers; ++c) {
      auto [server_side, client_side] = LoopbackTransport::CreatePair();
      broker.Attach(c, std::move(server_side));
      receivers.push_back(std::move(client_side));
    }
    Stopwatch fanout_timer;
    for (const DeltaBatch& b : all_batches) broker.PushBatch(b);
    rec.fanout_ns_per_epoch = fanout_timer.ElapsedSeconds() * 1e9 /
                              static_cast<double>(epochs);
    // Close first, then drain: a closed loopback still yields its queued
    // frames before reporting end-of-stream.
    broker.CloseAll();
    std::size_t received = 0;
    for (auto& t : receivers) {
      while (t->Recv().ok()) ++received;
    }
    if (broker.batches_pushed() != all_batches.size() ||
        received != all_batches.size()) {
      std::fprintf(stderr, "fan-out lost batches: pushed %llu, received "
                   "%zu of %zu\n",
                   static_cast<unsigned long long>(broker.batches_pushed()),
                   received, all_batches.size());
      rec.identical = false;
    }
  }
  return rec;
}

void WriteJson(const char* path, std::span<const SubRecord> records,
               std::size_t epoch_size, std::size_t epochs) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"experiment\": \"E13_subscriptions\",\n");
  std::fprintf(f, "  \"nproc\": %u,\n", Nproc());
  std::fprintf(f, "  \"epoch_size\": %zu,\n  \"epochs\": %zu,\n", epoch_size,
               epochs);
  std::fprintf(f, "  \"entities\": %zu,\n  \"records\": [\n", kEntities);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SubRecord& r = records[i];
    std::fprintf(
        f,
        "    {\"subs\": %zu, \"register_ns_per_sub\": %.1f, "
        "\"eval_ns_per_epoch\": %.0f, \"eval_ns_per_sub_epoch\": %.2f, "
        "\"eval_ns_per_report\": %.0f, \"deltas_per_epoch\": %.1f, "
        "\"delta_bytes_per_epoch\": %.0f, \"fanout_ns_per_epoch\": %.0f, "
        "\"oracle_ns_per_epoch\": %.0f, \"identity_checked\": %s, "
        "\"identical\": %s, \"speedup\": %.2f}%s\n",
        r.subs, r.register_ns_per_sub, r.eval_ns_per_epoch,
        r.eval_ns_per_sub_epoch, r.eval_ns_per_report, r.deltas_per_epoch,
        r.delta_bytes_per_epoch, r.fanout_ns_per_epoch,
        r.oracle_ns_per_epoch, r.identity_checked ? "true" : "false",
        r.identical ? "true" : "false", r.speedup,
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu records)\n", path, records.size());
}

int Run(bool quick, const char* trace_out) {
  const std::size_t epoch_size = quick ? 256 : 512;
  const std::size_t epochs = quick ? 6 : 12;
  const std::size_t check_epochs = quick ? 3 : 6;
  const std::vector<PositionReport> stream = MakeStream(epoch_size * epochs);

  std::vector<std::size_t> counts = {10'000, 100'000};
  if (!quick) counts.push_back(1'000'000);

  std::printf("E13: continuous-query subscription tier (%zu reports, "
              "%zu entities, epoch %zu)\n\n",
              stream.size(), kEntities, epoch_size);

  obs::TraceCollector::Discard();
  obs::EnableTracing(true);

  std::vector<SubRecord> records;
  bool ok = true;
  for (const std::size_t n : counts) {
    // The oracle's full re-scan is the quadratic cost this tier avoids;
    // past 100k it would dominate the bench, so the 1M cell times the
    // incremental path only.
    const std::size_t check = n <= 100'000 ? check_epochs : 0;
    const SubRecord rec = RunCell(n, stream, epoch_size, check);
    if (!rec.identical) ok = false;
    records.push_back(rec);
    std::printf("%8zu subs: register %6.0f ns/sub, eval %8.2f ns/sub/epoch "
                "(%7.0f ns/report), %7.1f deltas/epoch (%6.0f B), fan-out "
                "%8.0f ns/epoch",
                rec.subs, rec.register_ns_per_sub, rec.eval_ns_per_sub_epoch,
                rec.eval_ns_per_report, rec.deltas_per_epoch,
                rec.delta_bytes_per_epoch, rec.fanout_ns_per_epoch);
    if (rec.identity_checked) {
      std::printf(", %s, %0.1fx vs full re-eval\n",
                  rec.identical ? "identical" : "MISMATCH", rec.speedup);
    } else {
      std::printf(" (identity at this scale checked at <= 100k)\n");
    }
  }

  obs::EnableTracing(false);
  if (trace_out != nullptr) {
    const std::vector<obs::TraceSpanRecord> spans =
        obs::TraceCollector::Drain();
    const std::string json = obs::ChromeTraceJson(spans);
    std::FILE* f = std::fopen(trace_out, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_out);
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s (%zu spans)\n", trace_out, spans.size());
  }

  WriteJson("BENCH_sub.json", records, epoch_size, epochs);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace datacron

int main(int argc, char** argv) {
  bool quick = false;
  const char* trace_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    }
  }
  return datacron::Run(quick, trace_out);
}
