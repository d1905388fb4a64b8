#ifndef DATACRON_NET_CODEC_H_
#define DATACRON_NET_CODEC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "datacron/engine.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "rdf/term.h"

namespace datacron {

/// Cluster protocol messages. Every payload is a u16 message type followed
/// by the body, encoded with the wire primitives (net/wire.h). Decoders
/// validate the type tag, every enum value, every sequence count, and that
/// the body consumes the payload exactly; anything off returns ParseError.
///
/// Flow (coordinator <-> node):
///
///   node        -> Hello            once, after connect: node id, fleet
///                                   size, and the node dictionary's
///                                   construction-time baseline terms
///   coordinator -> ReportBatch      one per (epoch, node); may be empty
///   node        -> EpochResult      the node's epoch arena + per-report
///                                   slot watermarks + one coalesced
///                                   dictionary delta, for a nonempty batch
///   node        -> Watermark        in place of EpochResult for an empty
///                                   batch: advances the epoch barrier
///   coordinator -> FlushRequest     end-of-stream
///   node        -> EpochResult      the node's flush arena: one slot per
///                                   flushed entity, ascending entity
///   coordinator -> MetricsRequest
///   node        -> MetricsResult    the node engine's MetricsSnapshot
///   coordinator -> Shutdown         node serve loop exits
///
/// Subscription tier (subscriber <-> coordinator, coordinator -> node):
///
///   subscriber  -> Subscribe        one standing query; predicate travels
///                                   as a nested length-prefixed payload
///   subscriber  -> Unsubscribe      by subscription id
///   coordinator -> SubAck           assigned id (or error) per request
///   coordinator -> DeltaBatch       one subscriber's coalesced deltas for
///                                   one closed epoch; push-only
///
/// The coordinator also forwards Subscribe/Unsubscribe to every node so
/// shard-local evaluation sees the same registry under the same ids.
enum class MsgType : std::uint16_t {
  kHello = 1,
  kReportBatch,
  kEpochResult,
  kWatermark,
  kFlushRequest,
  // 6 is retired (the old end-of-stream reply; a node now answers
  // kFlushRequest with an EpochResult) and rejected by DecodeType.
  kMetricsRequest = 7,
  kMetricsResult,
  kShutdown,
  kSubscribe,
  kUnsubscribe,
  kSubAck,
  kDeltaBatch,
};

struct HelloMsg {
  std::uint32_t node_id = 0;
  std::uint32_t num_nodes = 0;
  /// The node dictionary's contents at connect time (vocab terms interned
  /// by construction, ids 1..baseline.size()); seeds the coordinator's
  /// id remap before any report flows.
  std::vector<TermExport> baseline;

  bool operator==(const HelloMsg&) const = default;
};

struct ReportBatchMsg {
  std::int64_t epoch = 0;
  std::vector<PositionReport> reports;

  bool operator==(const ReportBatchMsg&) const = default;
};

/// A node's reply to a nonempty ReportBatch or to a FlushRequest: the
/// node's EpochArena for the epoch (DatacronEngine::ProcessKeyedEpoch, or
/// ProcessFinalEpoch at end of stream, where `epoch` is 0) flattened for
/// the wire, plus one coalesced dictionary delta. All term ids are
/// node-dictionary ids; the coordinator imports `new_terms` slot by slot
/// in global input order and translates every id before absorbing. Side
/// tables and hotspot counts travel id-sorted so the encoded bytes are
/// canonical regardless of hash-map iteration order.
///
/// The decoder checks that the slots cut the buffers into consecutive
/// per-report slices: watermarks never go backwards, never run past their
/// buffer, and the last slot ends exactly at every buffer's end, with its
/// terms_end equal to dict_size_before + new_terms.size().
struct EpochResultMsg {
  std::int64_t epoch = 0;
  /// Node dictionary size before the first report of this epoch; the
  /// coordinator cross-checks it against its remap table to catch lost or
  /// reordered epochs.
  std::uint64_t dict_size_before = 0;
  /// One slot per report of the sub-batch, in sub-batch order (per
  /// flushed entity, ascending, at end of stream): the entity, watermarks
  /// into the buffers below (terms_end = node dictionary size after the
  /// report) and the report's keyed stage timings. `shard` is not on the
  /// wire and decodes as 0.
  std::vector<DatacronEngine::ShardSlot> slots;
  std::vector<Triple> triples;
  std::vector<Episode> episodes;
  std::vector<Event> events;  // keyed CEP events
  std::vector<std::pair<TermId, StTag>> tags;
  std::vector<std::pair<TermId, NodeGeo>> node_geo;
  std::vector<SubDelta> sub_deltas;
  std::vector<std::pair<std::uint64_t, double>> sub_counts;
  /// The contiguous id range the node dictionary grew by this epoch,
  /// exported once in intern order.
  std::vector<TermExport> new_terms;

  bool operator==(const EpochResultMsg&) const = default;
};

/// Epoch-watermark control message: the node saw epoch `epoch` (an empty
/// sub-batch) and the coordinator's barrier may advance past it.
struct WatermarkMsg {
  std::int64_t epoch = 0;

  bool operator==(const WatermarkMsg&) const = default;
};

/// A node's DatacronEngine::MetricsSnapshot. Names travel sorted and
/// each histogram as its nonzero buckets in ascending order; the decoder
/// rejects anything else (repeated or unsorted names or buckets, a bucket
/// index >= LogHistogram::num_buckets(), a zero bucket count, a histogram
/// total that overflows), so Encode(Decode(x)) == x.
struct MetricsResultMsg {
  obs::MetricsSnapshot snapshot;

  bool operator==(const MetricsResultMsg&) const = default;
};

/// Standing-query registration. `id` is 0 from a subscriber (the
/// coordinator assigns one) and nonzero on the coordinator->node
/// broadcast (every node registers the same id). The predicate itself is
/// a nested length-prefixed payload inside the frame; the decoder rejects
/// zero-length and larger-than-kMaxSubPredicateBytes payloads outright,
/// and validates the decoded spec with ValidateSpec.
struct SubscribeMsg {
  SubscriptionId id = 0;
  SubscriberId subscriber = 0;
  SubscriptionSpec spec;

  bool operator==(const SubscribeMsg&) const = default;
};

struct UnsubscribeMsg {
  SubscriptionId id = 0;
  SubscriberId subscriber = 0;

  bool operator==(const UnsubscribeMsg&) const = default;
};

/// Reply to Subscribe/Unsubscribe: `id` echoes (or assigns) the
/// subscription id; `ok` false carries a diagnostic in `error`.
struct SubAckMsg {
  SubscriptionId id = 0;
  bool ok = true;
  std::string error;

  bool operator==(const SubAckMsg&) const = default;
};

/// One coalesced epoch of deltas for one subscriber.
struct DeltaBatchMsg {
  DeltaBatch batch;

  bool operator==(const DeltaBatchMsg&) const = default;
};

/// --- encode -------------------------------------------------------------

std::string Encode(const HelloMsg& msg);
std::string Encode(const ReportBatchMsg& msg);
std::string Encode(const EpochResultMsg& msg);
std::string Encode(const WatermarkMsg& msg);
std::string Encode(const MetricsResultMsg& msg);
std::string Encode(const SubscribeMsg& msg);
std::string Encode(const UnsubscribeMsg& msg);
std::string Encode(const SubAckMsg& msg);
std::string Encode(const DeltaBatchMsg& msg);
/// kFlushRequest, kMetricsRequest, kShutdown: type tag only.
std::string EncodeControl(MsgType type);

/// --- decode -------------------------------------------------------------

/// Peeks the envelope's message type without consuming the body.
Status DecodeType(const std::string& payload, MsgType* type);

Status Decode(const std::string& payload, HelloMsg* msg);
Status Decode(const std::string& payload, ReportBatchMsg* msg);
Status Decode(const std::string& payload, EpochResultMsg* msg);
Status Decode(const std::string& payload, WatermarkMsg* msg);
Status Decode(const std::string& payload, MetricsResultMsg* msg);
Status Decode(const std::string& payload, SubscribeMsg* msg);
Status Decode(const std::string& payload, UnsubscribeMsg* msg);
Status Decode(const std::string& payload, SubAckMsg* msg);
Status Decode(const std::string& payload, DeltaBatchMsg* msg);

}  // namespace datacron

#endif  // DATACRON_NET_CODEC_H_
