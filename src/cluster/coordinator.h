#ifndef DATACRON_CLUSTER_COORDINATOR_H_
#define DATACRON_CLUSTER_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "datacron/engine.h"
#include "net/codec.h"
#include "net/transport.h"
#include "stream/epoch.h"

namespace datacron {

/// The cluster coordinator: a DatacronEngine fleet spread over N nodes
/// behind one engine-shaped facade. The coordinator owns the *global* half
/// of the dataflow — canonical term dictionary, triple/episode stores,
/// cross-entity CEP, trajectory store, predictor — while each node runs
/// the *keyed* half for the entities routed to it.
///
/// Determinism (byte-identity with serial DatacronEngine::Ingest at any
/// node count, epoch size, or transport):
///
///  - Routing is entity-sticky: node = MixU64(entity) % N, so each
///    entity's whole subsequence is processed by one node in input order —
///    the same per-key subsequence the in-process ShardedRuntime feeds a
///    shard (both run the EpochDriver of stream/epoch.h).
///  - Each node runs its sub-batch into one EpochArena, interning into
///    its own dictionary, and replies with the arena, per-report slot
///    watermarks and one coalesced dictionary delta. The coordinator
///    imports each report's slice of that delta in global input order, so
///    a term's canonical id is assigned at its first-in-input occurrence —
///    exactly the serial order. (A term new to the stream is always new to
///    its processing node too: the node's dictionary only holds terms from
///    that node's earlier reports, which are earlier in the input.)
///  - Once the epoch barrier (EpochWatermarks) has released the epoch, the
///    coordinator translates every node id through its remap table and
///    runs the same DatacronEngine::AbsorbEpoch as the in-process path,
///    one arena per node, in input order.
///
/// Flow control: up to Config::max_epochs_in_flight epochs are routed
/// ahead of the in-order merge; the front epoch is then retired by
/// blocking on every node's reply (transports are FIFO, nodes reply in
/// epoch order). That bound is what keeps the socket variant free of
/// send-send deadlock: node replies queue while at most a bounded window
/// of batches is buffered toward each node.
class ClusterEngine {
 public:
  struct Options {
    /// Must equal the config every ClusterNode was constructed with (the
    /// dictionary baselines have to line up).
    DatacronEngine::Config engine;
  };

  /// Takes one connected transport per node. Call Connect() (or any
  /// ingest entry point, which connects lazily) before use.
  ClusterEngine(Options opts,
                std::vector<std::unique_ptr<Transport>> nodes);

  /// Performs the Hello handshake: receives each node's id and dictionary
  /// baseline, orders transports by node id, and seeds the per-node term
  /// remap tables. Idempotent.
  Status Connect();

  /// Routes `reports` to the fleet epoch by epoch and absorbs the keyed
  /// outputs in input order. Returns the same events, in the same order,
  /// as a serial engine ingesting `reports`.
  Result<std::vector<Event>> IngestBatch(
      std::span<const PositionReport> reports);

  /// Drains a live push source through the fleet; same admission
  /// semantics as DatacronEngine::IngestFromQueue (the Config's
  /// AdmissionPolicy decides whether a lagging fleet blocks the producer
  /// or sheds the oldest queued reports).
  Result<std::vector<Event>> IngestFromQueue(
      AdmissionQueue<PositionReport>* queue);

  /// Admission buffer matching Options::engine (see
  /// DatacronEngine::NewAdmissionQueue).
  std::unique_ptr<AdmissionQueue<PositionReport>> NewAdmissionQueue() const {
    return local_.NewAdmissionQueue();
  }

  /// Registers a standing query fleet-wide: the coordinator assigns the
  /// id, registers locally (barrier-side state + delta coalescing), and
  /// broadcasts the registration so every node's shard-local evaluation
  /// carries the same registry under the same ids. Call between ingest
  /// calls (control plane and data plane are phased).
  Result<SubscriptionId> Subscribe(SubscriberId subscriber,
                                   const SubscriptionSpec& spec);

  /// Deactivates a standing query fleet-wide.
  Status Unsubscribe(SubscriptionId id);

  /// The coordinator-side registry: attach a delta sink / take batches
  /// here — every node's deltas funnel through it at the epoch barrier.
  SubscriptionRegistry* subscriptions() { return local_.subscriptions(); }

  /// End-of-stream: the distributed form of DatacronEngine::Finish().
  /// Every node answers the FlushRequest with its flush arena (one slot
  /// per flushed entity, ascending); the coordinator merges the slots by
  /// entity, imports them like a report epoch's and runs
  /// DatacronEngine::AbsorbFinalEpoch. Slots out of order within a node,
  /// an entity flushed by two nodes, or a term id outside a node's
  /// dictionary is a non-OK Status.
  Result<std::vector<Event>> Finish();

  /// Fleet-wide metrics: the coordinator engine's MetricsSnapshot merged
  /// with every node's (requested over kMetricsRequest). Counters and
  /// histogram counts equal a serial engine's over the same stream.
  Result<obs::MetricsSnapshot> MetricsSnapshot();

  /// MetricsSnapshot() rendered by DatacronEngine::MetricsReport, with
  /// the coordinator's admission section (its queue is the fleet's).
  Result<std::string> MetricsReport();

  /// Tells every node to exit its serve loop and closes the transports.
  Status Shutdown();

  std::size_t num_nodes() const { return nodes_.size(); }

  /// The coordinator-side engine holding the merged global state: its
  /// triples(), episodes(), trajectories() and dictionary contents are
  /// the cluster's output.
  const DatacronEngine& engine() const { return local_; }

 private:
  /// The global stage of one epoch whose node replies all arrived:
  /// checks each slot's entity against its routed report, imports the
  /// dictionary deltas in input order and absorbs the node arenas
  /// through DatacronEngine::AbsorbEpoch.
  Status AbsorbReplies(
      DrivenEpoch<PositionReport, std::vector<EpochResultMsg>>& e,
      std::vector<Event>* events);

  /// Imports each slot's slice of its node's dictionary delta in slot
  /// order, then translates every node reply into an arena of
  /// coordinator ids (`arenas[n]` for node n). Shared by report epochs
  /// and the end-of-stream epoch.
  Status ImportReplies(std::span<const DatacronEngine::ShardSlot> slots,
                       std::vector<EpochResultMsg>& replies,
                       std::vector<DatacronEngine::EpochArena>* arenas);

  /// Sends `frame` to every node and collects one SubAck from each.
  Status BroadcastSubControl(const std::string& frame);

  Options opts_;
  DatacronEngine local_;
  std::vector<std::unique_ptr<Transport>> nodes_;
  /// Per node: remap_[n][i] is the canonical (coordinator) id of the
  /// node's dense dictionary id i+1. Extended by each imported delta.
  std::vector<std::vector<TermId>> remap_;
  EpochWatermarks watermarks_;
  /// One driver per session: epoch ids continue across IngestBatch calls
  /// so the watermark barrier stays monotonic.
  EpochDriver driver_;
  bool connected_ = false;
};

}  // namespace datacron

#endif  // DATACRON_CLUSTER_COORDINATOR_H_
