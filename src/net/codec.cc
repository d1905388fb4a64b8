#include "net/codec.h"

#include <limits>
#include <map>
#include <type_traits>
#include <utility>

namespace datacron {

namespace {

/// Status propagation for the deeply nested decoders.
#define DC_RET(expr)                              \
  do {                                            \
    if (Status _s = (expr); !_s.ok()) return _s;  \
  } while (0)

/// Reads a u8 enum value, rejecting anything past `max` — a corrupted
/// frame must not produce an out-of-range enum.
template <typename E>
Status GetEnum(WireReader& r, E* v, E max) {
  std::uint8_t u = 0;
  DC_RET(r.U8(&u));
  if (u > static_cast<std::uint8_t>(max)) {
    return Status::ParseError("enum value out of range");
  }
  *v = static_cast<E>(u);
  return Status::OK();
}

// --- field codecs, one Put/Get pair per struct --------------------------

void Put(WireWriter& w, const GeoPoint& p) {
  w.F64(p.lat_deg);
  w.F64(p.lon_deg);
  w.F64(p.alt_m);
}

Status Get(WireReader& r, GeoPoint* p) {
  DC_RET(r.F64(&p->lat_deg));
  DC_RET(r.F64(&p->lon_deg));
  DC_RET(r.F64(&p->alt_m));
  return Status::OK();
}

void Put(WireWriter& w, const PositionReport& rep) {
  w.U32(rep.entity_id);
  w.U8(static_cast<std::uint8_t>(rep.domain));
  w.I64(rep.timestamp);
  Put(w, rep.position);
  w.F64(rep.speed_mps);
  w.F64(rep.course_deg);
  w.F64(rep.vertical_rate_mps);
}
constexpr std::size_t kMinReportBytes = 61;

Status Get(WireReader& r, PositionReport* rep) {
  DC_RET(r.U32(&rep->entity_id));
  DC_RET(GetEnum(r, &rep->domain, Domain::kAviation));
  DC_RET(r.I64(&rep->timestamp));
  DC_RET(Get(r, &rep->position));
  DC_RET(r.F64(&rep->speed_mps));
  DC_RET(r.F64(&rep->course_deg));
  DC_RET(r.F64(&rep->vertical_rate_mps));
  return Status::OK();
}

void Put(WireWriter& w, const Event& e) {
  w.U8(static_cast<std::uint8_t>(e.kind));
  w.I64(e.time);
  w.I64(e.predicted_time);
  w.U32(static_cast<std::uint32_t>(e.entities.size()));
  for (EntityId id : e.entities) w.U32(id);
  Put(w, e.position);
  w.Str(e.label);
  w.U32(static_cast<std::uint32_t>(e.attributes.size()));
  for (const auto& [key, value] : e.attributes) {
    w.Str(key);
    w.F64(value);
  }
}
constexpr std::size_t kMinEventBytes = 53;

Status Get(WireReader& r, Event* e) {
  DC_RET(GetEnum(r, &e->kind, EventKind::kComposite));
  DC_RET(r.I64(&e->time));
  DC_RET(r.I64(&e->predicted_time));
  std::size_t n = 0;
  DC_RET(r.Count(&n, sizeof(std::uint32_t)));
  e->entities.resize(n);
  for (std::size_t i = 0; i < n; ++i) DC_RET(r.U32(&e->entities[i]));
  DC_RET(Get(r, &e->position));
  DC_RET(r.Str(&e->label));
  DC_RET(r.Count(&n, /*min_element_bytes=*/12));
  e->attributes.clear();
  for (std::size_t i = 0; i < n; ++i) {
    std::string key;
    double value = 0.0;
    DC_RET(r.Str(&key));
    DC_RET(r.F64(&value));
    e->attributes.emplace_hint(e->attributes.end(), std::move(key), value);
  }
  return Status::OK();
}

void Put(WireWriter& w, const Episode& e) {
  w.U32(e.entity);
  w.U8(static_cast<std::uint8_t>(e.kind));
  w.I64(e.start_time);
  w.I64(e.end_time);
  Put(w, e.start_pos);
  Put(w, e.end_pos);
  w.Str(e.area);
  w.F64(e.displacement_m);
  w.F64(e.path_m);
}
constexpr std::size_t kMinEpisodeBytes = 89;

Status Get(WireReader& r, Episode* e) {
  DC_RET(r.U32(&e->entity));
  DC_RET(GetEnum(r, &e->kind, EpisodeKind::kGap));
  DC_RET(r.I64(&e->start_time));
  DC_RET(r.I64(&e->end_time));
  DC_RET(Get(r, &e->start_pos));
  DC_RET(Get(r, &e->end_pos));
  DC_RET(r.Str(&e->area));
  DC_RET(r.F64(&e->displacement_m));
  DC_RET(r.F64(&e->path_m));
  return Status::OK();
}

void Put(WireWriter& w, const Triple& t) {
  w.U64(t.s);
  w.U64(t.p);
  w.U64(t.o);
}
constexpr std::size_t kMinTripleBytes = 24;

Status Get(WireReader& r, Triple* t) {
  DC_RET(r.U64(&t->s));
  DC_RET(r.U64(&t->p));
  DC_RET(r.U64(&t->o));
  return Status::OK();
}

void Put(WireWriter& w, const TermExport& t) {
  w.Str(t.text);
  w.U8(static_cast<std::uint8_t>(t.kind));
}
constexpr std::size_t kMinTermBytes = 5;

Status Get(WireReader& r, TermExport* t) {
  DC_RET(r.Str(&t->text));
  DC_RET(GetEnum(r, &t->kind, TermKind::kLiteralDateTime));
  return Status::OK();
}

void Put(WireWriter& w, const std::pair<TermId, StTag>& tag) {
  w.U64(tag.first);
  w.U32(static_cast<std::uint32_t>(tag.second.cell.ix));
  w.U32(static_cast<std::uint32_t>(tag.second.cell.iy));
  w.I64(tag.second.bucket);
}
constexpr std::size_t kMinTagBytes = 24;

Status Get(WireReader& r, std::pair<TermId, StTag>* tag) {
  DC_RET(r.U64(&tag->first));
  std::uint32_t ix = 0;
  std::uint32_t iy = 0;
  DC_RET(r.U32(&ix));
  DC_RET(r.U32(&iy));
  tag->second.cell.ix = static_cast<std::int32_t>(ix);
  tag->second.cell.iy = static_cast<std::int32_t>(iy);
  DC_RET(r.I64(&tag->second.bucket));
  return Status::OK();
}

void Put(WireWriter& w, const std::pair<TermId, NodeGeo>& g) {
  w.U64(g.first);
  w.F64(g.second.lat_deg);
  w.F64(g.second.lon_deg);
  w.F64(g.second.alt_m);
  w.I64(g.second.timestamp);
}
constexpr std::size_t kMinNodeGeoBytes = 40;

Status Get(WireReader& r, std::pair<TermId, NodeGeo>* g) {
  DC_RET(r.U64(&g->first));
  DC_RET(r.F64(&g->second.lat_deg));
  DC_RET(r.F64(&g->second.lon_deg));
  DC_RET(r.F64(&g->second.alt_m));
  DC_RET(r.I64(&g->second.timestamp));
  return Status::OK();
}

void Put(WireWriter& w, const LatLon& p) {
  w.F64(p.lat_deg);
  w.F64(p.lon_deg);
}
constexpr std::size_t kMinLatLonBytes = 16;

Status Get(WireReader& r, LatLon* p) {
  DC_RET(r.F64(&p->lat_deg));
  DC_RET(r.F64(&p->lon_deg));
  return Status::OK();
}

void Put(WireWriter& w, const BoundingBox& b) {
  w.F64(b.min_lat);
  w.F64(b.min_lon);
  w.F64(b.max_lat);
  w.F64(b.max_lon);
}

Status Get(WireReader& r, BoundingBox* b) {
  DC_RET(r.F64(&b->min_lat));
  DC_RET(r.F64(&b->min_lon));
  DC_RET(r.F64(&b->max_lat));
  DC_RET(r.F64(&b->max_lon));
  return Status::OK();
}

void Put(WireWriter& w, const SubDelta& d) {
  w.U64(d.sub);
  w.U8(static_cast<std::uint8_t>(d.kind));
  w.U32(d.entity);
  w.I64(d.time);
  w.F64(d.value);
}
constexpr std::size_t kMinSubDeltaBytes = 29;

Status Get(WireReader& r, SubDelta* d) {
  DC_RET(r.U64(&d->sub));
  DC_RET(GetEnum(r, &d->kind, DeltaKind::kHotspotOff));
  DC_RET(r.U32(&d->entity));
  DC_RET(r.I64(&d->time));
  DC_RET(r.F64(&d->value));
  return Status::OK();
}

void Put(WireWriter& w, const std::pair<std::uint64_t, double>& c) {
  w.U64(c.first);
  w.F64(c.second);
}
constexpr std::size_t kMinSubCountBytes = 16;

Status Get(WireReader& r, std::pair<std::uint64_t, double>* c) {
  DC_RET(r.U64(&c->first));
  DC_RET(r.F64(&c->second));
  return Status::OK();
}

// Forward declarations so the vector helpers can encode compound elements
// whose Put/Get pairs are defined further down.
void Put(WireWriter& w, const DatacronEngine::ShardSlot& slot);
Status Get(WireReader& r, DatacronEngine::ShardSlot* slot);

/// Vector helper over any element with a Put/Get pair above.
template <typename T>
void PutVec(WireWriter& w, const std::vector<T>& v) {
  w.U32(static_cast<std::uint32_t>(v.size()));
  for (const T& item : v) Put(w, item);
}

template <typename T>
Status GetVec(WireReader& r, std::vector<T>* v, std::size_t min_bytes) {
  std::size_t n = 0;
  DC_RET(r.Count(&n, min_bytes));
  v->resize(n);
  for (std::size_t i = 0; i < n; ++i) DC_RET(Get(r, &(*v)[i]));
  return Status::OK();
}

// `shard` is not encoded: it indexes the receiver's arena span, and the
// coordinator assigns the node index itself.
void Put(WireWriter& w, const DatacronEngine::ShardSlot& slot) {
  w.U32(slot.entity);
  w.U32(slot.cp_count);
  w.U64(slot.terms_end);
  w.U64(slot.triples_end);
  w.U64(slot.episodes_end);
  w.U64(slot.events_end);
  w.U64(slot.subs_end);
  w.I64(slot.synopses_ns);
  w.I64(slot.transform_ns);
  w.I64(slot.keyed_cep_ns);
}
constexpr std::size_t kMinSlotBytes = 72;

Status Get(WireReader& r, DatacronEngine::ShardSlot* slot) {
  DC_RET(r.U32(&slot->entity));
  DC_RET(r.U32(&slot->cp_count));
  for (std::size_t* mark : {&slot->terms_end, &slot->triples_end,
                            &slot->episodes_end, &slot->events_end,
                            &slot->subs_end}) {
    std::uint64_t v = 0;
    DC_RET(r.U64(&v));
    *mark = v;
  }
  DC_RET(r.I64(&slot->synopses_ns));
  DC_RET(r.I64(&slot->transform_ns));
  DC_RET(r.I64(&slot->keyed_cep_ns));
  return Status::OK();
}

/// The slots of an epoch reply must cut its arena buffers into
/// consecutive per-report slices: every watermark stays within its buffer
/// and never goes backwards, and the last report ends exactly at each
/// buffer's end (terms: at the node dictionary size after the epoch).
Status ValidateSlots(const EpochResultMsg& msg) {
  if (msg.dict_size_before >
      std::numeric_limits<std::uint64_t>::max() - msg.new_terms.size()) {
    return Status::ParseError("node dictionary size overflows");
  }
  const std::uint64_t ends[5] = {
      msg.dict_size_before + msg.new_terms.size(), msg.triples.size(),
      msg.episodes.size(), msg.events.size(), msg.sub_deltas.size()};
  std::uint64_t prev[5] = {msg.dict_size_before, 0, 0, 0, 0};
  for (const DatacronEngine::ShardSlot& slot : msg.slots) {
    const std::uint64_t marks[5] = {slot.terms_end, slot.triples_end,
                                    slot.episodes_end, slot.events_end,
                                    slot.subs_end};
    for (int k = 0; k < 5; ++k) {
      if (marks[k] < prev[k]) {
        return Status::ParseError("epoch slot watermark goes backwards");
      }
      if (marks[k] > ends[k]) {
        return Status::ParseError("epoch slot watermark past its buffer");
      }
      prev[k] = marks[k];
    }
  }
  if (prev[0] != ends[0]) {
    return Status::ParseError(
        "final terms_end != dict_size_before + new_terms");
  }
  for (int k = 1; k < 5; ++k) {
    if (prev[k] != ends[k]) {
      return Status::ParseError("epoch buffer not covered by its slots");
    }
  }
  return Status::OK();
}

// --- subscription predicate (nested payload inside Subscribe) -----------

void Put(WireWriter& w, const SubscriptionSpec& spec) {
  w.U8(static_cast<std::uint8_t>(spec.kind));
  switch (spec.kind) {
    case SubKind::kGeofence:
      Put(w, spec.geofence.bbox);
      PutVec(w, spec.geofence.polygon);
      w.U32(spec.geofence.entity);
      w.Bool(spec.geofence.all_entities);
      w.I64(spec.geofence.dwell_ms);
      break;
    case SubKind::kProximity:
      w.U32(spec.proximity.entity);
      w.I64(spec.proximity.min_interval_ms);
      break;
    case SubKind::kHotspot:
      Put(w, spec.hotspot.bbox);
      w.F64(spec.hotspot.threshold);
      w.U32(spec.hotspot.window_epochs);
      break;
  }
}

Status Get(WireReader& r, SubscriptionSpec* spec) {
  *spec = SubscriptionSpec{};
  DC_RET(GetEnum(r, &spec->kind, SubKind::kHotspot));
  switch (spec->kind) {
    case SubKind::kGeofence:
      DC_RET(Get(r, &spec->geofence.bbox));
      DC_RET(GetVec(r, &spec->geofence.polygon, kMinLatLonBytes));
      if (spec->geofence.polygon.size() > kMaxGeofenceVertices) {
        return Status::ParseError("geofence polygon too large");
      }
      DC_RET(r.U32(&spec->geofence.entity));
      DC_RET(r.Bool(&spec->geofence.all_entities));
      DC_RET(r.I64(&spec->geofence.dwell_ms));
      break;
    case SubKind::kProximity:
      DC_RET(r.U32(&spec->proximity.entity));
      DC_RET(r.I64(&spec->proximity.min_interval_ms));
      break;
    case SubKind::kHotspot:
      DC_RET(Get(r, &spec->hotspot.bbox));
      DC_RET(r.F64(&spec->hotspot.threshold));
      DC_RET(r.U32(&spec->hotspot.window_epochs));
      break;
  }
  return Status::OK();
}

/// A histogram travels as its nonzero buckets, ascending (sparse — most
/// of the 64 log2 buckets are empty for any real latency distribution).
void Put(WireWriter& w, const LogHistogram& h) {
  std::uint32_t nonzero = 0;
  for (std::size_t b = 0; b < LogHistogram::num_buckets(); ++b) {
    if (h.bucket_count(b) != 0) ++nonzero;
  }
  w.U32(nonzero);
  for (std::size_t b = 0; b < LogHistogram::num_buckets(); ++b) {
    const std::size_t c = h.bucket_count(b);
    if (c == 0) continue;
    w.U8(static_cast<std::uint8_t>(b));
    w.U64(c);
  }
}

Status Get(WireReader& r, LogHistogram* h) {
  std::size_t buckets = 0;
  DC_RET(r.Count(&buckets, /*min_element_bytes=*/9));
  *h = LogHistogram();
  std::uint8_t prev_bucket = 0;
  for (std::size_t i = 0; i < buckets; ++i) {
    std::uint8_t b = 0;
    std::uint64_t c = 0;
    DC_RET(r.U8(&b));
    DC_RET(r.U64(&c));
    if (b >= LogHistogram::num_buckets() || c == 0) {
      return Status::ParseError("bad histogram bucket");
    }
    if (i > 0 && b <= prev_bucket) {
      return Status::ParseError("histogram buckets not ascending");
    }
    if (c > std::numeric_limits<std::size_t>::max() - h->count()) {
      return Status::ParseError("histogram total overflows");
    }
    prev_bucket = b;
    h->AddBucketCount(b, c);
  }
  return Status::OK();
}

/// One name-sorted section of a snapshot: u32 count, then (name, value)
/// pairs in strictly ascending name order.
template <typename V>
void PutSection(WireWriter& w, const std::map<std::string, V>& section) {
  w.U32(static_cast<std::uint32_t>(section.size()));
  for (const auto& [name, value] : section) {
    w.Str(name);
    if constexpr (std::is_same_v<V, LogHistogram>) {
      Put(w, value);
    } else {
      w.U64(static_cast<std::uint64_t>(value));
    }
  }
}

template <typename V>
Status GetSection(WireReader& r, std::map<std::string, V>* section,
                  std::size_t min_value_bytes) {
  std::size_t n = 0;
  DC_RET(r.Count(&n, sizeof(std::uint32_t) + min_value_bytes));
  section->clear();
  for (std::size_t i = 0; i < n; ++i) {
    std::string name;
    DC_RET(r.Str(&name));
    if (!section->empty() && name <= section->rbegin()->first) {
      return Status::ParseError("metric names not ascending");
    }
    V value{};
    if constexpr (std::is_same_v<V, LogHistogram>) {
      DC_RET(Get(r, &value));
    } else {
      std::uint64_t raw = 0;
      DC_RET(r.U64(&raw));
      value = static_cast<V>(raw);
    }
    section->emplace_hint(section->end(), std::move(name), std::move(value));
  }
  return Status::OK();
}

void Put(WireWriter& w, const obs::MetricsSnapshot& snap) {
  PutSection(w, snap.counters);
  PutSection(w, snap.gauges);
  PutSection(w, snap.histograms);
}

Status Get(WireReader& r, obs::MetricsSnapshot* snap) {
  DC_RET(GetSection(r, &snap->counters, sizeof(std::uint64_t)));
  DC_RET(GetSection(r, &snap->gauges, sizeof(std::uint64_t)));
  DC_RET(GetSection(r, &snap->histograms, sizeof(std::uint32_t)));
  return Status::OK();
}

// --- envelope -----------------------------------------------------------

/// MsgType value 6 is retired (see codec.h).
constexpr std::uint16_t kRetiredMsgType = 6;

WireWriter Envelope(MsgType type) {
  WireWriter w;
  w.U16(static_cast<std::uint16_t>(type));
  return w;
}

Status OpenEnvelope(WireReader& r, MsgType expected) {
  std::uint16_t type = 0;
  DC_RET(r.U16(&type));
  if (type != static_cast<std::uint16_t>(expected)) {
    return Status::ParseError("unexpected message type");
  }
  return Status::OK();
}

}  // namespace

std::string Encode(const HelloMsg& msg) {
  WireWriter w = Envelope(MsgType::kHello);
  w.U32(msg.node_id);
  w.U32(msg.num_nodes);
  PutVec(w, msg.baseline);
  return w.Take();
}

std::string Encode(const ReportBatchMsg& msg) {
  WireWriter w = Envelope(MsgType::kReportBatch);
  w.I64(msg.epoch);
  PutVec(w, msg.reports);
  return w.Take();
}

std::string Encode(const EpochResultMsg& msg) {
  WireWriter w = Envelope(MsgType::kEpochResult);
  w.I64(msg.epoch);
  w.U64(msg.dict_size_before);
  PutVec(w, msg.slots);
  PutVec(w, msg.triples);
  PutVec(w, msg.episodes);
  PutVec(w, msg.events);
  PutVec(w, msg.tags);
  PutVec(w, msg.node_geo);
  PutVec(w, msg.sub_deltas);
  PutVec(w, msg.sub_counts);
  PutVec(w, msg.new_terms);
  return w.Take();
}

std::string Encode(const WatermarkMsg& msg) {
  WireWriter w = Envelope(MsgType::kWatermark);
  w.I64(msg.epoch);
  return w.Take();
}

std::string Encode(const MetricsResultMsg& msg) {
  WireWriter w = Envelope(MsgType::kMetricsResult);
  Put(w, msg.snapshot);
  return w.Take();
}

std::string Encode(const SubscribeMsg& msg) {
  WireWriter w = Envelope(MsgType::kSubscribe);
  w.U64(msg.id);
  w.U32(msg.subscriber);
  // The predicate travels as a nested length-prefixed payload so the
  // decoder can bound it before parsing a single field of it.
  WireWriter inner;
  Put(inner, msg.spec);
  w.Str(inner.data());
  return w.Take();
}

std::string Encode(const UnsubscribeMsg& msg) {
  WireWriter w = Envelope(MsgType::kUnsubscribe);
  w.U64(msg.id);
  w.U32(msg.subscriber);
  return w.Take();
}

std::string Encode(const SubAckMsg& msg) {
  WireWriter w = Envelope(MsgType::kSubAck);
  w.U64(msg.id);
  w.Bool(msg.ok);
  w.Str(msg.error);
  return w.Take();
}

std::string Encode(const DeltaBatchMsg& msg) {
  WireWriter w = Envelope(MsgType::kDeltaBatch);
  w.U32(msg.batch.subscriber);
  w.I64(msg.batch.epoch);
  PutVec(w, msg.batch.deltas);
  return w.Take();
}

std::string EncodeControl(MsgType type) {
  return Envelope(type).Take();
}

Status DecodeType(const std::string& payload, MsgType* type) {
  WireReader r(payload);
  std::uint16_t t = 0;
  DC_RET(r.U16(&t));
  if (t < static_cast<std::uint16_t>(MsgType::kHello) ||
      t > static_cast<std::uint16_t>(MsgType::kDeltaBatch) ||
      t == kRetiredMsgType) {
    return Status::ParseError("unknown message type");
  }
  *type = static_cast<MsgType>(t);
  return Status::OK();
}

Status Decode(const std::string& payload, HelloMsg* msg) {
  WireReader r(payload);
  DC_RET(OpenEnvelope(r, MsgType::kHello));
  DC_RET(r.U32(&msg->node_id));
  DC_RET(r.U32(&msg->num_nodes));
  DC_RET(GetVec(r, &msg->baseline, kMinTermBytes));
  return r.ExpectEnd();
}

Status Decode(const std::string& payload, ReportBatchMsg* msg) {
  WireReader r(payload);
  DC_RET(OpenEnvelope(r, MsgType::kReportBatch));
  DC_RET(r.I64(&msg->epoch));
  DC_RET(GetVec(r, &msg->reports, kMinReportBytes));
  return r.ExpectEnd();
}

Status Decode(const std::string& payload, EpochResultMsg* msg) {
  WireReader r(payload);
  DC_RET(OpenEnvelope(r, MsgType::kEpochResult));
  DC_RET(r.I64(&msg->epoch));
  DC_RET(r.U64(&msg->dict_size_before));
  DC_RET(GetVec(r, &msg->slots, kMinSlotBytes));
  DC_RET(GetVec(r, &msg->triples, kMinTripleBytes));
  DC_RET(GetVec(r, &msg->episodes, kMinEpisodeBytes));
  DC_RET(GetVec(r, &msg->events, kMinEventBytes));
  DC_RET(GetVec(r, &msg->tags, kMinTagBytes));
  DC_RET(GetVec(r, &msg->node_geo, kMinNodeGeoBytes));
  DC_RET(GetVec(r, &msg->sub_deltas, kMinSubDeltaBytes));
  DC_RET(GetVec(r, &msg->sub_counts, kMinSubCountBytes));
  DC_RET(GetVec(r, &msg->new_terms, kMinTermBytes));
  DC_RET(r.ExpectEnd());
  return ValidateSlots(*msg);
}

Status Decode(const std::string& payload, WatermarkMsg* msg) {
  WireReader r(payload);
  DC_RET(OpenEnvelope(r, MsgType::kWatermark));
  DC_RET(r.I64(&msg->epoch));
  return r.ExpectEnd();
}

Status Decode(const std::string& payload, MetricsResultMsg* msg) {
  WireReader r(payload);
  DC_RET(OpenEnvelope(r, MsgType::kMetricsResult));
  DC_RET(Get(r, &msg->snapshot));
  return r.ExpectEnd();
}

Status Decode(const std::string& payload, SubscribeMsg* msg) {
  WireReader r(payload);
  DC_RET(OpenEnvelope(r, MsgType::kSubscribe));
  DC_RET(r.U64(&msg->id));
  DC_RET(r.U32(&msg->subscriber));
  std::string predicate;
  DC_RET(r.Str(&predicate));
  DC_RET(r.ExpectEnd());
  // Bound the nested payload before parsing any of it: an empty predicate
  // is not a subscription, and an oversized one is corruption (or abuse),
  // not a request.
  if (predicate.empty()) {
    return Status::ParseError("empty subscription predicate");
  }
  if (predicate.size() > kMaxSubPredicateBytes) {
    return Status::ParseError("oversized subscription predicate");
  }
  WireReader pr(predicate);
  DC_RET(Get(pr, &msg->spec));
  DC_RET(pr.ExpectEnd());
  return ValidateSpec(msg->spec);
}

Status Decode(const std::string& payload, UnsubscribeMsg* msg) {
  WireReader r(payload);
  DC_RET(OpenEnvelope(r, MsgType::kUnsubscribe));
  DC_RET(r.U64(&msg->id));
  DC_RET(r.U32(&msg->subscriber));
  return r.ExpectEnd();
}

Status Decode(const std::string& payload, SubAckMsg* msg) {
  WireReader r(payload);
  DC_RET(OpenEnvelope(r, MsgType::kSubAck));
  DC_RET(r.U64(&msg->id));
  DC_RET(r.Bool(&msg->ok));
  DC_RET(r.Str(&msg->error));
  return r.ExpectEnd();
}

Status Decode(const std::string& payload, DeltaBatchMsg* msg) {
  WireReader r(payload);
  DC_RET(OpenEnvelope(r, MsgType::kDeltaBatch));
  DC_RET(r.U32(&msg->batch.subscriber));
  DC_RET(r.I64(&msg->batch.epoch));
  DC_RET(GetVec(r, &msg->batch.deltas, kMinSubDeltaBytes));
  return r.ExpectEnd();
}

#undef DC_RET

}  // namespace datacron
