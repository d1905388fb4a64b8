// Wire codec and transport units: encode/decode round-trips over randomized
// messages (seeded, reproducible), rejection of truncated and corrupted
// payloads without crashing, frame checksum behavior, and loopback/TCP
// transport semantics.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/codec.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "rdf/term.h"
#include "sub/subscription.h"

namespace datacron {
namespace {

// ---------------------------------------------------------------------
// Randomized message builders (seeded — every failure is reproducible).
// ---------------------------------------------------------------------

std::string RandString(Rng& rng, std::size_t max_len) {
  const std::size_t len =
      static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(max_len)));
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng.UniformInt(0, 25)));
  }
  return s;
}

PositionReport RandReport(Rng& rng) {
  PositionReport r;
  r.entity_id = static_cast<EntityId>(rng.NextUint64());
  r.domain = rng.Bernoulli(0.5) ? Domain::kMaritime : Domain::kAviation;
  r.timestamp = rng.UniformInt(0, 1'000'000'000);
  r.position = {rng.Uniform(-90, 90), rng.Uniform(-180, 180),
                rng.Uniform(0, 12000)};
  r.speed_mps = rng.Uniform(0, 300);
  r.course_deg = rng.Uniform(0, 360);
  r.vertical_rate_mps = rng.Uniform(-20, 20);
  return r;
}

Event RandEvent(Rng& rng) {
  Event e;
  e.kind = static_cast<EventKind>(rng.UniformInt(0, 11));
  e.time = rng.UniformInt(0, 1'000'000'000);
  e.predicted_time = e.time + rng.UniformInt(0, 60'000);
  const std::size_t n = static_cast<std::size_t>(rng.UniformInt(0, 3));
  for (std::size_t i = 0; i < n; ++i) {
    e.entities.push_back(static_cast<EntityId>(rng.NextUint64()));
  }
  e.position = {rng.Uniform(-90, 90), rng.Uniform(-180, 180), 0.0};
  e.label = RandString(rng, 12);
  const std::size_t attrs = static_cast<std::size_t>(rng.UniformInt(0, 3));
  for (std::size_t i = 0; i < attrs; ++i) {
    e.attributes[RandString(rng, 8)] = rng.Uniform(-1e6, 1e6);
  }
  return e;
}

Episode RandEpisode(Rng& rng) {
  Episode e;
  e.entity = static_cast<EntityId>(rng.NextUint64());
  e.kind = static_cast<EpisodeKind>(rng.UniformInt(0, 2));
  e.start_time = rng.UniformInt(0, 1'000'000'000);
  e.end_time = e.start_time + rng.UniformInt(0, 3'600'000);
  e.start_pos = {rng.Uniform(-90, 90), rng.Uniform(-180, 180), 0.0};
  e.end_pos = {rng.Uniform(-90, 90), rng.Uniform(-180, 180), 0.0};
  e.area = RandString(rng, 10);
  e.displacement_m = rng.Uniform(0, 1e5);
  e.path_m = e.displacement_m + rng.Uniform(0, 1e4);
  return e;
}

TermExport RandTerm(Rng& rng) {
  TermExport t;
  t.text = RandString(rng, 24);
  t.kind = static_cast<TermKind>(rng.UniformInt(0, 4));
  return t;
}

/// A random node epoch reply that is internally consistent, as the
/// decoder demands: `reports` slots whose watermarks cut the arena
/// buffers into consecutive per-report slices, whose last terms_end closes
/// the coalesced dictionary delta, and whose term ids stay inside the node
/// dictionary. Side tables are id-sorted like a node encodes them.
EpochResultMsg RandEpochResult(Rng& rng, std::size_t reports) {
  EpochResultMsg msg;
  msg.epoch = rng.UniformInt(0, 1000);
  msg.dict_size_before = rng.NextUint64() % 10000;
  for (std::size_t r = 0; r < reports; ++r) {
    for (std::int64_t i = rng.UniformInt(0, 3); i > 0; --i) {
      msg.new_terms.push_back(RandTerm(rng));
    }
    const std::uint64_t dict_size =
        msg.dict_size_before + msg.new_terms.size();
    // Mostly node-dictionary ids, plus inline literal ids of every kind.
    const auto term = [&rng, dict_size]() -> TermId {
      switch (rng.UniformInt(0, 8)) {
        case 0:
          return InlineDouble(rng.Uniform(-180, 180));
        case 1:
          return InlineInt(rng.UniformInt(-1'000'000, 1'000'000));
        case 2:
          return InlineDateTime(rng.UniformInt(0, 2'000'000'000'000));
      }
      return rng.NextUint64() % std::max<std::uint64_t>(dict_size, 1) + 1;
    };
    for (std::int64_t i = rng.UniformInt(0, 2); i > 0; --i) {
      msg.events.push_back(RandEvent(rng));
    }
    for (std::int64_t i = rng.UniformInt(0, 2); i > 0; --i) {
      msg.episodes.push_back(RandEpisode(rng));
    }
    for (std::int64_t i = rng.UniformInt(0, 4); i > 0; --i) {
      msg.triples.push_back({term(), term(), term()});
    }
    for (std::int64_t i = rng.UniformInt(0, 2); i > 0; --i) {
      msg.tags.push_back(
          {term(), StTag{{static_cast<std::int32_t>(rng.UniformInt(-50, 50)),
                          static_cast<std::int32_t>(rng.UniformInt(-50, 50))},
                         rng.UniformInt(0, 1000)}});
    }
    for (std::int64_t i = rng.UniformInt(0, 2); i > 0; --i) {
      msg.node_geo.push_back(
          {term(), NodeGeo{rng.Uniform(-90, 90), rng.Uniform(-180, 180), 0.0,
                           rng.UniformInt(0, 1'000'000)}});
    }
    for (std::int64_t i = rng.UniformInt(0, 3); i > 0; --i) {
      SubDelta d;
      d.sub = rng.NextUint64() % 100 + 1;
      d.kind = static_cast<DeltaKind>(rng.UniformInt(0, 6));
      d.entity = static_cast<EntityId>(rng.NextUint64());
      d.time = rng.UniformInt(0, 1'000'000'000);
      d.value = rng.Uniform(0, 1e6);
      msg.sub_deltas.push_back(d);
    }
    DatacronEngine::ShardSlot slot;
    slot.entity = static_cast<EntityId>(rng.NextUint64());
    slot.cp_count = static_cast<std::uint32_t>(rng.NextUint64() % 4);
    slot.terms_end = dict_size;
    slot.triples_end = msg.triples.size();
    slot.episodes_end = msg.episodes.size();
    slot.events_end = msg.events.size();
    slot.subs_end = msg.sub_deltas.size();
    slot.synopses_ns = rng.UniformInt(0, 1'000'000);
    slot.transform_ns = rng.UniformInt(0, 1'000'000);
    slot.keyed_cep_ns = rng.UniformInt(0, 1'000'000);
    msg.slots.push_back(slot);
  }
  for (std::int64_t i = reports > 0 ? rng.UniformInt(0, 2) : 0; i > 0; --i) {
    msg.sub_counts.push_back({rng.NextUint64() % 100 + 1,
                              static_cast<double>(rng.UniformInt(1, 50))});
  }
  const auto by_id = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(msg.tags.begin(), msg.tags.end(), by_id);
  std::sort(msg.node_geo.begin(), msg.node_geo.end(), by_id);
  std::sort(msg.sub_counts.begin(), msg.sub_counts.end(), by_id);
  return msg;
}

/// Valid by ValidateSpec — the Subscribe decoder validates, so round-trip
/// inputs must be legal subscriptions.
SubscriptionSpec RandSpec(Rng& rng) {
  switch (rng.UniformInt(0, 2)) {
    case 0: {
      GeofenceSpec g;
      const double lat = rng.Uniform(-60, 60);
      const double lon = rng.Uniform(-160, 160);
      if (rng.Bernoulli(0.3)) {
        const std::int64_t n = rng.UniformInt(3, 8);
        for (std::int64_t i = 0; i < n; ++i) {
          g.polygon.push_back({lat + rng.Uniform(-2, 2),
                               lon + rng.Uniform(-2, 2)});
        }
      } else if (rng.Bernoulli(0.2)) {
        // Antimeridian wrap: min_lon > max_lon by convention.
        g.bbox = BoundingBox::Of(lat, 175.0, lat + 5.0, -175.0);
      } else {
        g.bbox = BoundingBox::Of(lat, lon, lat + rng.Uniform(0.1, 5),
                                 lon + rng.Uniform(0.1, 5));
      }
      g.all_entities = rng.Bernoulli(0.3);
      if (!g.all_entities) {
        g.entity = static_cast<EntityId>(rng.UniformInt(1, 1'000'000));
      }
      if (rng.Bernoulli(0.5)) g.dwell_ms = rng.UniformInt(0, 600'000);
      return SubscriptionSpec::Geofence(std::move(g));
    }
    case 1: {
      ProximitySpec p;
      p.entity = static_cast<EntityId>(rng.UniformInt(1, 1'000'000));
      p.min_interval_ms = rng.UniformInt(0, 600'000);
      return SubscriptionSpec::Proximity(p);
    }
    default: {
      HotspotSpec h;
      const double lat = rng.Uniform(-60, 60);
      const double lon = rng.Uniform(-160, 160);
      h.bbox = BoundingBox::Of(lat, lon, lat + rng.Uniform(0.1, 5),
                               lon + rng.Uniform(0.1, 5));
      h.threshold = rng.Uniform(0.5, 500);
      h.window_epochs = static_cast<std::uint32_t>(rng.UniformInt(1, 16));
      return SubscriptionSpec::Hotspot(h);
    }
  }
}

SubDelta RandDelta(Rng& rng) {
  SubDelta d;
  d.sub = static_cast<SubscriptionId>(rng.UniformInt(1, 1'000'000));
  d.kind = static_cast<DeltaKind>(rng.UniformInt(0, 6));
  d.entity = static_cast<EntityId>(rng.NextUint64());
  d.time = rng.UniformInt(0, 1'000'000'000);
  d.value = rng.Uniform(-1e6, 1e6);
  return d;
}

obs::MetricsSnapshot RandSnapshot(Rng& rng) {
  obs::MetricsSnapshot snap;
  for (std::int64_t i = rng.UniformInt(0, 6); i > 0; --i) {
    snap.AddCounter("c." + RandString(rng, 8), rng.NextUint64());
  }
  for (std::int64_t i = rng.UniformInt(0, 3); i > 0; --i) {
    snap.AddGauge("g." + RandString(rng, 8), rng.UniformInt(-1000, 1000));
  }
  for (std::int64_t i = rng.UniformInt(0, 4); i > 0; --i) {
    LogHistogram h;
    for (std::int64_t n = rng.UniformInt(0, 64); n > 0; --n) {
      h.Add(rng.Uniform(10, 1e7));
    }
    snap.AddHistogram("h." + RandString(rng, 8), h);
  }
  return snap;
}

MetricsResultMsg RandMetricsResult(Rng& rng) {
  MetricsResultMsg msg;
  msg.snapshot = RandSnapshot(rng);
  return msg;
}

template <typename Msg>
void ExpectRoundTrip(const Msg& msg) {
  const std::string payload = Encode(msg);
  Msg decoded;
  const Status s = Decode(payload, &decoded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(msg == decoded);
}

/// Every strict prefix of a valid payload must be rejected — the decoder
/// reads deterministically from the front, so truncation always surfaces
/// as ParseError, never a partial decode or a crash.
template <typename Msg>
void ExpectTruncationRejected(const Msg& msg) {
  const std::string payload = Encode(msg);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    Msg decoded;
    const Status s = Decode(payload.substr(0, len), &decoded);
    EXPECT_FALSE(s.ok()) << "prefix length " << len << " of "
                         << payload.size();
  }
}

TEST(CodecTest, RoundTripPropertyOverRandomMessages) {
  Rng rng(0xC0DEC);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    HelloMsg hello;
    hello.node_id = static_cast<std::uint32_t>(rng.UniformInt(0, 7));
    hello.num_nodes = hello.node_id + 1;
    for (std::int64_t i = rng.UniformInt(0, 10); i > 0; --i) {
      hello.baseline.push_back(RandTerm(rng));
    }
    ExpectRoundTrip(hello);

    ReportBatchMsg batch;
    batch.epoch = rng.UniformInt(0, 1000);
    for (std::int64_t i = rng.UniformInt(0, 8); i > 0; --i) {
      batch.reports.push_back(RandReport(rng));
    }
    ExpectRoundTrip(batch);

    // A node's arena reply (to a report batch or to the end-of-stream
    // flush request): slots, the arena buffers and the coalesced
    // per-epoch dictionary delta.
    ExpectRoundTrip(RandEpochResult(
        rng, static_cast<std::size_t>(rng.UniformInt(0, 4))));

    WatermarkMsg wm;
    wm.epoch = rng.UniformInt(0, 1000);
    ExpectRoundTrip(wm);

    ExpectRoundTrip(RandMetricsResult(rng));
  }
}

TEST(CodecTest, SubscriptionMessagesRoundTrip) {
  Rng rng(0x5AB5C12B);
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(trial);
    SubscribeMsg sub;
    sub.id = rng.NextUint64() % 1'000'000;
    sub.subscriber = static_cast<SubscriberId>(rng.UniformInt(0, 1'000));
    sub.spec = RandSpec(rng);
    ExpectRoundTrip(sub);

    UnsubscribeMsg unsub;
    unsub.id = rng.NextUint64() % 1'000'000 + 1;
    unsub.subscriber = static_cast<SubscriberId>(rng.UniformInt(0, 1'000));
    ExpectRoundTrip(unsub);

    SubAckMsg ack;
    ack.id = rng.NextUint64() % 1'000'000;
    ack.ok = rng.Bernoulli(0.7);
    if (!ack.ok) ack.error = RandString(rng, 24);
    ExpectRoundTrip(ack);

    DeltaBatchMsg batch;
    batch.batch.subscriber =
        static_cast<SubscriberId>(rng.UniformInt(0, 1'000));
    batch.batch.epoch = rng.UniformInt(0, 1'000'000);
    for (std::int64_t i = rng.UniformInt(0, 6); i > 0; --i) {
      batch.batch.deltas.push_back(RandDelta(rng));
    }
    ExpectRoundTrip(batch);
  }
}

TEST(CodecTest, SubscriptionTruncationRejectedAtEveryPrefix) {
  Rng rng(0x7A12);
  SubscribeMsg sub;
  sub.id = 7;
  sub.subscriber = 3;
  sub.spec = RandSpec(rng);
  ExpectTruncationRejected(sub);

  UnsubscribeMsg unsub;
  unsub.id = 9;
  unsub.subscriber = 1;
  ExpectTruncationRejected(unsub);

  SubAckMsg ack;
  ack.id = 11;
  ack.ok = false;
  ack.error = "nope";
  ExpectTruncationRejected(ack);

  DeltaBatchMsg batch;
  batch.batch.subscriber = 5;
  batch.batch.epoch = 42;
  for (int i = 0; i < 3; ++i) batch.batch.deltas.push_back(RandDelta(rng));
  ExpectTruncationRejected(batch);
}

TEST(CodecTest, SubscriptionCorruptedBytesNeverCrashTheDecoder) {
  Rng rng(0x5AB0BAD);
  SubscribeMsg sub;
  sub.id = 12;
  sub.subscriber = 4;
  sub.spec = RandSpec(rng);
  std::string payload = Encode(sub);
  for (std::size_t off = 0; off < payload.size(); ++off) {
    std::string corrupt = payload;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0x5A);
    SubscribeMsg decoded;
    (void)Decode(corrupt, &decoded);
  }

  DeltaBatchMsg batch;
  batch.batch.subscriber = 2;
  batch.batch.epoch = 3;
  for (int i = 0; i < 4; ++i) batch.batch.deltas.push_back(RandDelta(rng));
  payload = Encode(batch);
  for (std::size_t off = 0; off < payload.size(); ++off) {
    std::string corrupt = payload;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0x5A);
    DeltaBatchMsg decoded;
    (void)Decode(corrupt, &decoded);
  }
}

TEST(CodecTest, SubscribePredicatePayloadBoundsAreEnforced) {
  // Hand-built frames: envelope + id + subscriber + length-prefixed
  // predicate. The decoder must reject before parsing a byte of an empty
  // or oversized predicate.
  const auto frame_with_predicate = [](const std::string& predicate) {
    WireWriter w;
    w.U16(static_cast<std::uint16_t>(MsgType::kSubscribe));
    w.U64(1);
    w.U32(2);
    w.Str(predicate);
    return w.Take();
  };

  SubscribeMsg decoded;
  Status s = Decode(frame_with_predicate(""), &decoded);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("empty"), std::string::npos) << s.ToString();

  s = Decode(frame_with_predicate(std::string(kMaxSubPredicateBytes + 1,
                                              '\x01')),
             &decoded);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("oversized"), std::string::npos)
      << s.ToString();

  // A well-formed predicate that fails semantic validation (hotspot with
  // zero threshold) is also rejected at decode time.
  SubscribeMsg bad;
  bad.subscriber = 2;
  bad.spec = SubscriptionSpec::Hotspot(
      {BoundingBox::Of(0, 0, 1, 1), /*threshold=*/0.0,
       /*window_epochs=*/1});
  EXPECT_FALSE(Decode(Encode(bad), &decoded).ok());

  // An out-of-range delta kind inside a batch is corruption.
  DeltaBatchMsg batch;
  batch.batch.subscriber = 1;
  SubDelta d;
  d.kind = static_cast<DeltaKind>(0x7E);
  batch.batch.deltas.push_back(d);
  DeltaBatchMsg decoded_batch;
  EXPECT_FALSE(Decode(Encode(batch), &decoded_batch).ok());
}

TEST(CodecTest, SnapshotRoundTripPreservesMergeBehavior) {
  // Decoded snapshots merge exactly like the originals — that is what
  // makes fleet-wide metrics merging across processes possible.
  Rng rng(0x5EED);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE(trial);
    MetricsResultMsg a = RandMetricsResult(rng);
    MetricsResultMsg b = RandMetricsResult(rng);
    // Share some names so the merge folds values, not just unions keys.
    b.snapshot.AddCounter("c.shared", 5);
    a.snapshot.AddCounter("c.shared", 7);
    MetricsResultMsg da, db;
    ASSERT_TRUE(Decode(Encode(a), &da).ok());
    ASSERT_TRUE(Decode(Encode(b), &db).ok());

    obs::MetricsSnapshot direct = a.snapshot;
    direct.Merge(b.snapshot);
    obs::MetricsSnapshot via_wire = da.snapshot;
    via_wire.Merge(db.snapshot);
    EXPECT_TRUE(direct == via_wire);
  }
}

TEST(CodecTest, SnapshotDecoderRejectsNonCanonicalFrames) {
  // Hand-built MetricsResult frames: counters, an empty gauge section,
  // then histograms (name + sparse [bucket, count] pairs).
  struct Bucket {
    std::uint8_t index;
    std::uint64_t count;
  };
  const auto frame = [](const std::vector<std::string>& counters,
                        const std::vector<std::string>& histograms,
                        const std::vector<Bucket>& buckets) {
    WireWriter w;
    w.U16(static_cast<std::uint16_t>(MsgType::kMetricsResult));
    w.U32(static_cast<std::uint32_t>(counters.size()));
    for (const std::string& name : counters) {
      w.Str(name);
      w.U64(1);
    }
    w.U32(0);
    w.U32(static_cast<std::uint32_t>(histograms.size()));
    for (const std::string& name : histograms) {
      w.Str(name);
      w.U32(static_cast<std::uint32_t>(buckets.size()));
      for (const Bucket& b : buckets) {
        w.U8(b.index);
        w.U64(b.count);
      }
    }
    return w.Take();
  };

  MetricsResultMsg decoded;
  const std::string valid = frame({"a", "b"}, {"h"}, {{3, 2}, {9, 1}});
  ASSERT_TRUE(Decode(valid, &decoded).ok());
  EXPECT_EQ(Encode(decoded), valid);

  const auto max = std::numeric_limits<std::uint64_t>::max();
  const struct {
    const char* why;
    std::string frame;
  } cases[] = {
      {"bucket index past the last bucket",
       frame({}, {"h"},
             {{static_cast<std::uint8_t>(LogHistogram::num_buckets()), 1}})},
      {"zero bucket count", frame({}, {"h"}, {{3, 0}})},
      {"repeated bucket", frame({}, {"h"}, {{3, 1}, {3, 1}})},
      {"descending buckets", frame({}, {"h"}, {{5, 1}, {3, 1}})},
      {"repeated counter name", frame({"a", "a"}, {}, {})},
      {"unsorted counter names", frame({"b", "a"}, {}, {})},
      {"repeated histogram name", frame({}, {"h", "h"}, {{1, 1}})},
      {"histogram total overflows", frame({}, {"h"}, {{1, max}, {2, 1}})},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(Decode(c.frame, &decoded).ok()) << c.why;
  }
}

TEST(CodecTest, TruncatedPayloadsAreRejectedAtEveryPrefix) {
  Rng rng(0x7A11);
  ExpectTruncationRejected(RandEpochResult(rng, 3));

  MetricsResultMsg metrics;
  do {
    metrics = RandMetricsResult(rng);
  } while (metrics.snapshot.histograms.empty());
  ExpectTruncationRejected(metrics);
}

TEST(CodecTest, CorruptedBytesNeverCrashTheDecoder) {
  Rng rng(0xBADF00D);
  const std::string payload = Encode(RandEpochResult(rng, 3));

  // Single-byte corruption at every offset: the decoder must return
  // (either outcome is legal for payload bytes — a flipped double is just
  // a different double) without crashing or over-allocating.
  for (std::size_t off = 0; off < payload.size(); ++off) {
    std::string corrupt = payload;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0x5A);
    EpochResultMsg decoded;
    (void)Decode(corrupt, &decoded);
  }

  // A metrics frame has one canonical encoding, so whatever corrupted
  // frame still decodes must re-encode to exactly its own bytes.
  MetricsResultMsg metrics;
  do {
    metrics = RandMetricsResult(rng);
  } while (metrics.snapshot.histograms.empty() ||
           metrics.snapshot.counters.size() < 2);
  const std::string metrics_payload = Encode(metrics);
  for (std::size_t off = 0; off < metrics_payload.size(); ++off) {
    std::string corrupt = metrics_payload;
    corrupt[off] = static_cast<char>(corrupt[off] ^ 0x5A);
    MetricsResultMsg decoded;
    if (Decode(corrupt, &decoded).ok()) {
      EXPECT_EQ(Encode(decoded), corrupt) << "offset " << off;
    }
  }
}

TEST(CodecTest, EpochSlotWatermarksAreValidated) {
  // The slots must cut the arena buffers into consecutive per-report
  // slices; anything else is rejected at decode time, before the
  // coordinator slices a buffer with it.
  Rng rng(0x5107);
  EpochResultMsg base;
  do {
    base = RandEpochResult(rng, 3);
  } while (base.triples.empty() || base.new_terms.empty());
  EpochResultMsg decoded;
  ASSERT_TRUE(Decode(Encode(base), &decoded).ok());

  const auto expect_rejected = [&decoded](const EpochResultMsg& bad,
                                          const char* why) {
    const Status s = Decode(Encode(bad), &decoded);
    EXPECT_FALSE(s.ok()) << why;
    EXPECT_NE(s.message().find(why), std::string::npos) << s.ToString();
  };

  EpochResultMsg overrun = base;
  overrun.slots.back().triples_end = base.triples.size() + 1;
  expect_rejected(overrun, "past its buffer");

  EpochResultMsg backwards = base;
  backwards.slots[1].events_end = 0;
  backwards.slots[0].events_end = 1;
  backwards.events.resize(std::max<std::size_t>(backwards.events.size(), 1));
  backwards.slots[2].events_end = backwards.events.size();
  expect_rejected(backwards, "goes backwards");

  EpochResultMsg short_terms = base;
  short_terms.new_terms.push_back(RandTerm(rng));
  expect_rejected(short_terms, "final terms_end");

  EpochResultMsg stale_base = base;
  stale_base.dict_size_before += 1;
  EXPECT_FALSE(Decode(Encode(stale_base), &decoded).ok());

  EpochResultMsg uncovered = base;
  uncovered.episodes.push_back(RandEpisode(rng));
  expect_rejected(uncovered, "not covered");

  EpochResultMsg wrapping = base;
  wrapping.dict_size_before = ~std::uint64_t{0};
  expect_rejected(wrapping, "overflows");

  EpochResultMsg no_slots = base;
  no_slots.slots.clear();
  EXPECT_FALSE(Decode(Encode(no_slots), &decoded).ok());
}

TEST(CodecTest, StructuralCorruptionIsRejected) {
  WatermarkMsg wm;
  wm.epoch = 9;
  std::string payload = Encode(wm);

  // Wrong type tag.
  std::string wrong_type = payload;
  wrong_type[0] = static_cast<char>(0x7F);
  WatermarkMsg decoded;
  EXPECT_FALSE(Decode(wrong_type, &decoded).ok());
  MsgType type;
  EXPECT_FALSE(DecodeType(wrong_type, &type).ok());
  // The retired type value 6 sits between live ones and stays unknown.
  std::string retired_type = payload;
  retired_type[0] = static_cast<char>(6);
  EXPECT_FALSE(DecodeType(retired_type, &type).ok());
  EXPECT_EQ(static_cast<std::uint16_t>(MsgType::kMetricsRequest), 7u);

  // Trailing bytes.
  std::string trailing = payload + "x";
  EXPECT_FALSE(Decode(trailing, &decoded).ok());

  // Inflated sequence count: a count far beyond the remaining payload is
  // caught before any allocation happens.
  ReportBatchMsg batch;
  batch.epoch = 1;
  batch.reports.push_back(PositionReport{});
  std::string inflated = Encode(batch);
  // The count field sits right after the u16 type and i64 epoch.
  inflated[10] = static_cast<char>(0xFF);
  inflated[11] = static_cast<char>(0xFF);
  inflated[12] = static_cast<char>(0xFF);
  inflated[13] = static_cast<char>(0xFF);
  ReportBatchMsg decoded_batch;
  EXPECT_FALSE(Decode(inflated, &decoded_batch).ok());

  // Out-of-range enum (Domain byte of the first report).
  std::string bad_enum = Encode(batch);
  bad_enum[14 + 4] = static_cast<char>(0x9);
  EXPECT_FALSE(Decode(bad_enum, &decoded_batch).ok());
}

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

TEST(FrameTest, EncodeDecodeVerifyRoundTrip) {
  const std::string payload = "the quick brown fox";
  const std::string frame = EncodeFrame(payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());

  std::uint32_t len = 0;
  ASSERT_TRUE(DecodeFrameHeader(frame.data(), &len).ok());
  EXPECT_EQ(len, payload.size());
  EXPECT_TRUE(
      VerifyFramePayload(frame.data(), frame.substr(kFrameHeaderBytes))
          .ok());
}

TEST(FrameTest, BadMagicAndOversizeLengthAreRejected) {
  std::string frame = EncodeFrame("abc");
  std::uint32_t len = 0;
  frame[0] = 'X';
  EXPECT_FALSE(DecodeFrameHeader(frame.data(), &len).ok());

  WireWriter w;
  w.U32(kFrameMagic);
  w.U32(kMaxFramePayloadBytes + 1);
  w.U32(0);
  EXPECT_FALSE(DecodeFrameHeader(w.data().data(), &len).ok());
}

TEST(FrameTest, ChecksumCatchesPayloadCorruption) {
  const std::string payload = "sensitive bits";
  const std::string frame = EncodeFrame(payload);
  std::string corrupt = frame.substr(kFrameHeaderBytes);
  corrupt[3] = static_cast<char>(corrupt[3] ^ 0x01);
  EXPECT_FALSE(VerifyFramePayload(frame.data(), corrupt).ok());
  // Length mismatch is also caught.
  EXPECT_FALSE(VerifyFramePayload(frame.data(), payload + "z").ok());
}

// ---------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------

TEST(LoopbackTransportTest, DeliversInFifoOrderBothWays) {
  auto [a, b] = LoopbackTransport::CreatePair();
  ASSERT_TRUE(a->Send("one").ok());
  ASSERT_TRUE(a->Send("two").ok());
  ASSERT_TRUE(b->Send("reply").ok());

  Result<std::string> r1 = b->Recv();
  Result<std::string> r2 = b->Recv();
  Result<std::string> r3 = a->Recv();
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_EQ(r1.value(), "one");
  EXPECT_EQ(r2.value(), "two");
  EXPECT_EQ(r3.value(), "reply");
}

TEST(LoopbackTransportTest, CloseWakesBlockedReceiver) {
  auto [a, b] = LoopbackTransport::CreatePair();
  std::thread closer([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a->Close();
  });
  Result<std::string> r = b->Recv();
  closer.join();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(b->Send("late").ok());
}

TEST(TcpTransportTest, FramedRoundTripIncludingLargeAndEmptyPayloads) {
  Result<std::unique_ptr<TcpListener>> listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  Result<std::unique_ptr<Transport>> client =
      TcpConnect(listener.value()->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<std::unique_ptr<Transport>> server = listener.value()->Accept();
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::string big(1 << 20, '\0');
  Rng rng(0xB16);
  for (char& c : big) c = static_cast<char>(rng.NextUint64());

  ASSERT_TRUE(client.value()->Send("hello").ok());
  ASSERT_TRUE(client.value()->Send("").ok());
  ASSERT_TRUE(client.value()->Send(big).ok());

  Result<std::string> r1 = server.value()->Recv();
  Result<std::string> r2 = server.value()->Recv();
  Result<std::string> r3 = server.value()->Recv();
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_EQ(r1.value(), "hello");
  EXPECT_EQ(r2.value(), "");
  EXPECT_TRUE(r3.value() == big);

  client.value()->Close();
  Result<std::string> eof = server.value()->Recv();
  EXPECT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TcpTransportTest, GarbageStreamIsRejectedNotCrashed) {
  Result<std::unique_ptr<TcpListener>> listener = TcpListener::Create();
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value()->port();

  // A raw socket writing non-frame bytes: Recv must fail with ParseError
  // (bad magic), not hang or crash.
  std::thread writer([port] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    const char garbage[] = "this is not a DACR frame at all............";
    (void)::send(fd, garbage, sizeof(garbage), 0);
    ::close(fd);
  });
  Result<std::unique_ptr<Transport>> server = listener.value()->Accept();
  ASSERT_TRUE(server.ok());
  Result<std::string> r = server.value()->Recv();
  writer.join();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace datacron
