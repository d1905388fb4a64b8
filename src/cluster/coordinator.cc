#include "cluster/coordinator.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/flat_hash.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace datacron {

namespace {

/// Moves one node's epoch reply into an EpochArena, translating every
/// node-local term id through the node's remap table (remap[i] is the
/// coordinator id of node id i + 1). Inline ids — literals and position
/// nodes — are the same on every node and pass through. An id outside the node dictionary or a
/// malformed inline id is a protocol error, never an out-of-bounds read.
Status ImportArena(EpochResultMsg reply, const std::vector<TermId>& remap,
                   DatacronEngine::EpochArena* arena) {
  TermKind kind = TermKind::kIri;
  const auto translate = [&](TermId* id) {
    if (IsInlineTerm(*id)) return InlineTermKind(*id, &kind);
    if (*id == kInvalidTermId || *id > remap.size()) return false;
    *id = remap[*id - 1];
    return true;
  };
  arena->triples = std::move(reply.triples);
  for (Triple& t : arena->triples) {
    if (!translate(&t.s) || !translate(&t.p) || !translate(&t.o)) {
      return Status::Internal("triple term id outside node dictionary");
    }
  }
  for (auto [id, tag] : reply.tags) {
    if (!translate(&id)) {
      return Status::Internal("tag term id outside node dictionary");
    }
    arena->tags.emplace(id, tag);
  }
  for (auto [id, geo] : reply.node_geo) {
    if (!translate(&id)) {
      return Status::Internal("node-geo term id outside node dictionary");
    }
    arena->node_geo.emplace(id, geo);
  }
  arena->episodes = std::move(reply.episodes);
  arena->events = std::move(reply.events);
  arena->sub_deltas = std::move(reply.sub_deltas);
  for (const auto& [id, count] : reply.sub_counts) {
    arena->sub_counts[id] = count;
  }
  return Status::OK();
}

/// The EpochDriver executor of the cluster: Deliver sends each node its
/// sub-batch; Await receives and checks one reply per node, so a
/// misbehaving node yields a Status before the global stage runs.
struct TransportExecutor {
  using Payload = std::vector<EpochResultMsg>;
  using Epoch = DrivenEpoch<PositionReport, Payload>;

  /// Every node receives every epoch (possibly empty) so its reply stream
  /// stays aligned with the epoch sequence and the barrier can release.
  Status Deliver(Epoch& e) {
    obs::TraceSpan send_span("cluster.epoch_send", "cluster");
    send_span.set_epoch(e.id);
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      ReportBatchMsg msg;
      msg.epoch = e.id;
      msg.reports.reserve(e.by_part[n].size());
      for (std::uint32_t idx : e.by_part[n]) {
        msg.reports.push_back(e.items[idx]);
      }
      if (Status s = nodes[n]->Send(Encode(msg)); !s.ok()) return s;
    }
    return Status::OK();
  }

  bool Passed(const Epoch&) const { return false; }  // Recv would block

  Status Await(Epoch& e) {
    obs::ScopedTraceContext trace_ctx(e.id);
    DATACRON_TRACE_SPAN("cluster.epoch_recv", "cluster");
    std::vector<EpochResultMsg>& replies = e.payload;
    replies.resize(nodes.size());
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      Result<std::string> payload = nodes[n]->Recv();
      if (!payload.ok()) return payload.status();
      MsgType type;
      if (Status s = DecodeType(payload.value(), &type); !s.ok()) return s;
      if (type == MsgType::kWatermark) {
        WatermarkMsg wm;
        if (Status s = Decode(payload.value(), &wm); !s.ok()) return s;
        if (wm.epoch != e.id) {
          return Status::Internal("epoch watermark out of order");
        }
        if (!e.by_part[n].empty()) {
          return Status::Internal("watermark reply for a nonempty sub-batch");
        }
        replies[n].epoch = wm.epoch;
      } else {
        if (Status s = Decode(payload.value(), &replies[n]); !s.ok()) return s;
        if (replies[n].epoch != e.id) {
          return Status::Internal("epoch result out of order");
        }
        if (replies[n].dict_size_before != remap[n].size()) {
          return Status::Internal("node dictionary delta stream out of sync");
        }
        if (replies[n].slots.size() != e.by_part[n].size()) {
          return Status::Internal("epoch slot count mismatch");
        }
      }
      watermarks->Advance(n, e.id);
    }
    if (!watermarks->AllPassed(e.id)) {
      return Status::Internal("epoch barrier did not release");
    }
    return Status::OK();
  }

  void Quiesce() {}  // every node call is blocking

  std::span<const std::unique_ptr<Transport>> nodes;
  std::span<const std::vector<TermId>> remap;
  EpochWatermarks* watermarks;
};

}  // namespace

ClusterEngine::ClusterEngine(Options opts,
                             std::vector<std::unique_ptr<Transport>> nodes)
    : opts_(std::move(opts)),
      local_(opts_.engine),
      nodes_(std::move(nodes)),
      watermarks_(nodes_.size()),
      driver_(EpochWindow(opts_.engine.epoch_size,
                          opts_.engine.max_epochs_in_flight)) {}

Status ClusterEngine::Connect() {
  if (connected_) return Status::OK();
  const std::size_t n_nodes = nodes_.size();
  if (n_nodes == 0) {
    return Status::InvalidArgument("cluster has no nodes");
  }
  // Transports may arrive in any accept order (TCP); the Hello's node id
  // puts each one in its routing slot.
  std::vector<std::unique_ptr<Transport>> ordered(n_nodes);
  std::vector<HelloMsg> hellos(n_nodes);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    Result<std::string> payload = nodes_[i]->Recv();
    if (!payload.ok()) return payload.status();
    HelloMsg hello;
    if (Status s = Decode(payload.value(), &hello); !s.ok()) return s;
    if (hello.num_nodes != n_nodes) {
      return Status::FailedPrecondition("node fleet-size mismatch");
    }
    if (hello.node_id >= n_nodes || ordered[hello.node_id] != nullptr) {
      return Status::FailedPrecondition("duplicate or bad node id");
    }
    ordered[hello.node_id] = std::move(nodes_[i]);
    hellos[hello.node_id] = std::move(hello);
  }
  nodes_ = std::move(ordered);

  // Seed each node's remap with its construction-time baseline. The nodes
  // share this engine's config, so the baselines resolve to the ids the
  // coordinator's own vocabulary already holds.
  remap_.assign(n_nodes, {});
  for (std::size_t n = 0; n < n_nodes; ++n) {
    local_.dictionary()->ImportDelta(hellos[n].baseline, &remap_[n]);
  }
  connected_ = true;
  return Status::OK();
}

Status ClusterEngine::AbsorbReplies(
    DrivenEpoch<PositionReport, std::vector<EpochResultMsg>>& e,
    std::vector<Event>* events) {
  const std::size_t n_nodes = nodes_.size();
  std::vector<EpochResultMsg>& replies = e.payload;
  DATACRON_TRACE_SPAN("cluster.epoch_absorb", "cluster");

  // Slots in global input order; each node's arena is shard n.
  std::vector<DatacronEngine::ShardSlot> slots(e.items.size());
  for (std::size_t n = 0; n < n_nodes; ++n) {
    const std::vector<std::uint32_t>& part = e.by_part[n];
    for (std::size_t k = 0; k < part.size(); ++k) {
      slots[part[k]] = replies[n].slots[k];
      slots[part[k]].shard = static_cast<std::uint32_t>(n);
      if (slots[part[k]].entity != e.items[part[k]].entity_id) {
        return Status::Internal("epoch slot entity differs from its report");
      }
    }
  }
  std::vector<DatacronEngine::EpochArena> arenas;
  if (Status s = ImportReplies(slots, replies, &arenas); !s.ok()) return s;
  local_.AbsorbEpoch(e.items, slots, arenas, {}, events, nullptr);
  return Status::OK();
}

Status ClusterEngine::ImportReplies(
    std::span<const DatacronEngine::ShardSlot> slots,
    std::vector<EpochResultMsg>& replies,
    std::vector<DatacronEngine::EpochArena>* arenas) {
  static obs::Counter* delta_terms_counter =
      obs::MetricsRegistry::Global().counter("cluster.delta_terms");

  // Phase 1 — import each slot's slice of its node's coalesced
  // dictionary delta in slot (global input) order. remap_[n] always
  // spans the node dictionary imported so far, so the slice is
  // [remap size, terms_end); this interleaving reproduces the serial
  // engine's first-occurrence id assignment even though each node ships
  // one delta per epoch.
  for (const DatacronEngine::ShardSlot& slot : slots) {
    std::vector<TermId>& remap = remap_[slot.shard];
    if (slot.terms_end <= remap.size()) continue;
    DATACRON_TRACE_SPAN("cluster.delta_import", "cluster");
    const EpochResultMsg& reply = replies[slot.shard];
    const std::size_t count = slot.terms_end - remap.size();
    delta_terms_counter->Add(count);
    local_.dictionary()->ImportDelta(
        std::span<const TermExport>(reply.new_terms)
            .subspan(remap.size() - reply.dict_size_before, count),
        &remap);
  }

  // Every node-local id now resolves through remap_[n]; translate each
  // node's arena into coordinator ids for the shared absorb.
  arenas->resize(replies.size());
  for (std::size_t n = 0; n < replies.size(); ++n) {
    if (Status s = ImportArena(std::move(replies[n]), remap_[n],
                               &(*arenas)[n]);
        !s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

Status ClusterEngine::BroadcastSubControl(const std::string& frame) {
  Status first = Status::OK();
  for (const std::unique_ptr<Transport>& node : nodes_) {
    if (Status s = node->Send(frame); !s.ok() && first.ok()) first = s;
  }
  for (const std::unique_ptr<Transport>& node : nodes_) {
    Result<std::string> payload = node->Recv();
    if (!payload.ok()) {
      if (first.ok()) first = payload.status();
      continue;
    }
    SubAckMsg ack;
    if (Status s = Decode(payload.value(), &ack); !s.ok()) {
      if (first.ok()) first = s;
    } else if (!ack.ok && first.ok()) {
      first = Status::Internal("node rejected subscription: " + ack.error);
    }
  }
  return first;
}

Result<SubscriptionId> ClusterEngine::Subscribe(SubscriberId subscriber,
                                                const SubscriptionSpec& spec) {
  if (Status s = Connect(); !s.ok()) return s;
  Result<SubscriptionId> id = local_.subscriptions()->Subscribe(subscriber,
                                                                spec);
  if (!id.ok()) return id;
  SubscribeMsg msg;
  msg.id = id.value();
  msg.subscriber = subscriber;
  msg.spec = spec;
  if (Status s = BroadcastSubControl(Encode(msg)); !s.ok()) return s;
  return id;
}

Status ClusterEngine::Unsubscribe(SubscriptionId id) {
  if (Status s = Connect(); !s.ok()) return s;
  if (!local_.subscriptions()->Unsubscribe(id)) {
    return Status::InvalidArgument("unknown or inactive subscription");
  }
  UnsubscribeMsg msg;
  msg.id = id;
  return BroadcastSubControl(Encode(msg));
}

Result<std::vector<Event>> ClusterEngine::IngestBatch(
    std::span<const PositionReport> reports) {
  if (Status s = Connect(); !s.ok()) return s;
  std::vector<Event> events;
  TransportExecutor exec{nodes_, remap_, &watermarks_};
  Status s = driver_.Run(
      reports, nodes_.size(),
      [](const PositionReport& r) { return MixU64(r.entity_id); }, exec,
      [this, &events](TransportExecutor::Epoch& e) {
        return AbsorbReplies(e, &events);
      });
  if (!s.ok()) return s;
  return events;
}

Result<std::vector<Event>> ClusterEngine::IngestFromQueue(
    AdmissionQueue<PositionReport>* queue) {
  std::vector<Event> events;
  const std::size_t batch_max = driver_.window().items();
  for (;;) {
    std::vector<PositionReport> batch = queue->PopBatch(batch_max);
    if (batch.empty()) break;  // closed and drained
    Result<std::vector<Event>> r = IngestBatch(batch);
    if (!r.ok()) return r.status();
    std::vector<Event> chunk = std::move(r).value();
    events.insert(events.end(), std::make_move_iterator(chunk.begin()),
                  std::make_move_iterator(chunk.end()));
  }
  local_.RecordAdmissionDrops(*queue);
  return events;
}

Result<std::vector<Event>> ClusterEngine::Finish() {
  if (Status s = Connect(); !s.ok()) return s;
  const std::size_t n_nodes = nodes_.size();
  for (std::size_t n = 0; n < n_nodes; ++n) {
    if (Status s = nodes_[n]->Send(EncodeControl(MsgType::kFlushRequest));
        !s.ok()) {
      return s;
    }
  }
  // Each node answers with its flush arena, one slot per flushed entity
  // in ascending order. Routing is entity-sticky, so the nodes' entity
  // sets are disjoint and merging their slots by entity reproduces the
  // serial Finish order; anything else is a misbehaving node.
  using Slot = DatacronEngine::ShardSlot;
  const auto not_before = [](const Slot& a, const Slot& b) {
    return a.entity >= b.entity;
  };
  std::vector<EpochResultMsg> replies(n_nodes);
  std::vector<Slot> slots;
  for (std::size_t n = 0; n < n_nodes; ++n) {
    Result<std::string> payload = nodes_[n]->Recv();
    if (!payload.ok()) return payload.status();
    if (Status s = Decode(payload.value(), &replies[n]); !s.ok()) return s;
    if (replies[n].dict_size_before != remap_[n].size()) {
      return Status::Internal("node dictionary delta stream out of sync");
    }
    const std::vector<Slot>& part = replies[n].slots;
    if (std::adjacent_find(part.begin(), part.end(), not_before) !=
        part.end()) {
      return Status::Internal("flush slots not in ascending entity order");
    }
    for (Slot slot : part) {
      slot.shard = static_cast<std::uint32_t>(n);
      slots.push_back(slot);
    }
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return a.entity < b.entity;
  });
  if (std::adjacent_find(slots.begin(), slots.end(), not_before) !=
      slots.end()) {
    return Status::Internal("entity flushed by two nodes");
  }
  std::vector<DatacronEngine::EpochArena> arenas;
  if (Status s = ImportReplies(slots, replies, &arenas); !s.ok()) return s;
  std::vector<Event> events;
  local_.AbsorbFinalEpoch(slots, arenas, {}, &events);
  return events;
}

Result<obs::MetricsSnapshot> ClusterEngine::MetricsSnapshot() {
  if (Status s = Connect(); !s.ok()) return s;
  const std::size_t n_nodes = nodes_.size();
  for (std::size_t n = 0; n < n_nodes; ++n) {
    if (Status s = nodes_[n]->Send(EncodeControl(MsgType::kMetricsRequest));
        !s.ok()) {
      return s;
    }
  }
  // Each operator and total is counted by exactly one side — keyed work
  // on the nodes, the global stage and the absorb on the coordinator — so
  // the merged snapshot is the fleet's.
  obs::MetricsSnapshot snap = local_.MetricsSnapshot();
  for (std::size_t n = 0; n < n_nodes; ++n) {
    Result<std::string> payload = nodes_[n]->Recv();
    if (!payload.ok()) return payload.status();
    MetricsResultMsg msg;
    if (Status s = Decode(payload.value(), &msg); !s.ok()) return s;
    snap.Merge(msg.snapshot);
  }
  return snap;
}

Result<std::string> ClusterEngine::MetricsReport() {
  Result<obs::MetricsSnapshot> snap = MetricsSnapshot();
  if (!snap.ok()) return snap.status();
  return local_.MetricsReport(snap.value());
}

Status ClusterEngine::Shutdown() {
  Status first = Status::OK();
  for (const std::unique_ptr<Transport>& node : nodes_) {
    if (Status s = node->Send(EncodeControl(MsgType::kShutdown));
        !s.ok() && first.ok()) {
      first = s;
    }
    node->Close();
  }
  return first;
}

}  // namespace datacron
