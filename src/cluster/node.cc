#include "cluster/node.h"

#include <algorithm>
#include <utility>

#include "net/codec.h"
#include "obs/trace.h"

namespace datacron {

ClusterNode::ClusterNode(DatacronEngine::Config config,
                         std::unique_ptr<Transport> transport,
                         std::uint32_t node_id, std::uint32_t num_nodes)
    : engine_(std::move(config)),
      transport_(std::move(transport)),
      node_id_(node_id),
      num_nodes_(num_nodes) {}

ClusterNode::~ClusterNode() {
  if (thread_.joinable()) {
    transport_->Close();
    thread_.join();
  }
}

Status ClusterNode::SendHello() {
  HelloMsg hello;
  hello.node_id = node_id_;
  hello.num_nodes = num_nodes_;
  TermDictionary* dict = engine_.dictionary();
  if (dict->size() > 0) {
    Result<std::vector<TermExport>> baseline =
        dict->ExportRange(1, dict->size());
    if (!baseline.ok()) return baseline.status();
    hello.baseline = std::move(baseline).value();
  }
  return transport_->Send(Encode(hello));
}

Status ClusterNode::HandleBatch(const std::string& payload) {
  ReportBatchMsg batch;
  if (Status s = Decode(payload, &batch); !s.ok()) return s;
  obs::ScopedTraceContext trace_ctx(batch.epoch,
                                    static_cast<std::int32_t>(node_id_));
  DATACRON_TRACE_SPAN("cluster.node_batch", "cluster");
  if (batch.reports.empty()) {
    // Empty sub-batch: reply with the epoch-watermark control message so
    // the coordinator's barrier can advance past this epoch.
    WatermarkMsg wm;
    wm.epoch = batch.epoch;
    return transport_->Send(Encode(wm));
  }

  // The whole sub-batch runs through the keyed stage into one arena,
  // interning into the node dictionary; each slot's terms_end records the
  // dictionary size after its report, which is how the coordinator slices
  // the coalesced delta back into per-report ranges.
  return SendEpoch(batch.epoch, &batch.reports);
}

Status ClusterNode::SendEpoch(std::int64_t epoch,
                              const std::vector<PositionReport>* reports) {
  TermDictionary* dict = engine_.dictionary();
  EpochResultMsg result;
  result.epoch = epoch;
  result.dict_size_before = dict->size();
  DatacronEngine::EpochArena arena;
  if (reports != nullptr) {
    engine_.ProcessKeyedEpoch(*reports, &arena, &result.slots);
  } else {
    engine_.ProcessFinalEpoch(&arena, &result.slots);
  }
  result.triples = std::move(arena.triples);
  result.episodes = std::move(arena.episodes);
  result.events = std::move(arena.events);
  const auto by_id = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  result.tags.assign(arena.tags.begin(), arena.tags.end());
  std::sort(result.tags.begin(), result.tags.end(), by_id);
  result.node_geo.assign(arena.node_geo.begin(), arena.node_geo.end());
  std::sort(result.node_geo.begin(), result.node_geo.end(), by_id);
  result.sub_deltas = std::move(arena.sub_deltas);
  arena.sub_counts.ForEach([&result](std::uint64_t id, const double& count) {
    result.sub_counts.emplace_back(id, count);
  });
  std::sort(result.sub_counts.begin(), result.sub_counts.end(), by_id);
  if (dict->size() > result.dict_size_before) {
    // One coalesced dictionary delta for the whole epoch, in id (==
    // intern) order.
    DATACRON_TRACE_SPAN("cluster.delta_export", "cluster");
    Result<std::vector<TermExport>> delta = dict->ExportRange(
        static_cast<TermId>(result.dict_size_before) + 1,
        dict->size() - result.dict_size_before);
    if (!delta.ok()) return delta.status();
    result.new_terms = std::move(delta).value();
  }
  return transport_->Send(Encode(result));
}

Status ClusterNode::Serve() {
  if (Status s = SendHello(); !s.ok()) return s;
  for (;;) {
    Result<std::string> payload = transport_->Recv();
    if (!payload.ok()) {
      // Orderly close counts as shutdown; anything else is an error.
      if (payload.status().code() == StatusCode::kFailedPrecondition) {
        return Status::OK();
      }
      return payload.status();
    }
    MsgType type;
    if (Status s = DecodeType(payload.value(), &type); !s.ok()) return s;
    switch (type) {
      case MsgType::kReportBatch: {
        if (Status s = HandleBatch(payload.value()); !s.ok()) return s;
        break;
      }
      case MsgType::kFlushRequest: {
        // The end-of-stream epoch: one slot per flushed entity.
        if (Status s = SendEpoch(0, nullptr); !s.ok()) return s;
        break;
      }
      case MsgType::kMetricsRequest: {
        MetricsResultMsg msg;
        msg.snapshot = engine_.MetricsSnapshot();
        if (Status s = transport_->Send(Encode(msg)); !s.ok()) return s;
        break;
      }
      case MsgType::kSubscribe: {
        // Coordinator broadcast: register under the coordinator-assigned
        // id so every node's registry carries identical slot assignment.
        SubscribeMsg msg;
        SubAckMsg ack;
        if (Status s = Decode(payload.value(), &msg); !s.ok()) {
          ack.ok = false;
          ack.error = s.message();
        } else {
          ack.id = msg.id;
          Status reg = engine_.subscriptions()->SubscribeWithId(
              msg.id, msg.subscriber, msg.spec);
          if (!reg.ok()) {
            ack.ok = false;
            ack.error = reg.message();
          }
        }
        if (Status s = transport_->Send(Encode(ack)); !s.ok()) return s;
        break;
      }
      case MsgType::kUnsubscribe: {
        UnsubscribeMsg msg;
        if (Status s = Decode(payload.value(), &msg); !s.ok()) return s;
        SubAckMsg ack;
        ack.id = msg.id;
        ack.ok = engine_.subscriptions()->Unsubscribe(msg.id);
        if (!ack.ok) ack.error = "unknown or inactive subscription";
        if (Status s = transport_->Send(Encode(ack)); !s.ok()) return s;
        break;
      }
      case MsgType::kShutdown:
        transport_->Close();
        return Status::OK();
      default:
        return Status::ParseError("unexpected message type at node");
    }
  }
}

void ClusterNode::Start() {
  thread_ = std::thread([this] { serve_status_ = Serve(); });
}

Status ClusterNode::Join() {
  if (thread_.joinable()) thread_.join();
  return serve_status_;
}

}  // namespace datacron
