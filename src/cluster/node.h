#ifndef DATACRON_CLUSTER_NODE_H_
#define DATACRON_CLUSTER_NODE_H_

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "datacron/engine.h"
#include "net/transport.h"

namespace datacron {

/// One cluster worker: owns a DatacronEngine whose *keyed* half it drives
/// against the node-local term dictionary, and a transport back to the
/// coordinator. The node never runs a global stage — cross-entity CEP,
/// the trajectory store and the canonical dictionary live on the
/// coordinator, which replays this node's outputs in input order.
///
/// Protocol (see net/codec.h): on Serve() the node sends a Hello carrying
/// its construction-time dictionary baseline, then answers each request
/// until Shutdown or transport close. The reports of a batch run in batch
/// order into one EpochArena, shipped back with per-report slot
/// watermarks and one coalesced dictionary delta; the slots' terms_end
/// watermarks let the coordinator import that delta per report in global
/// input order, which reproduces the serial engine's term-id assignment.
/// A FlushRequest gets the same reply for the end-of-stream epoch, with
/// one slot per flushed entity.
///
/// The node must be constructed with the same Config as the coordinator's
/// ClusterEngine: the dictionary baselines have to match for the
/// coordinator's id remap to line up with a serial run.
class ClusterNode {
 public:
  ClusterNode(DatacronEngine::Config config,
              std::unique_ptr<Transport> transport, std::uint32_t node_id,
              std::uint32_t num_nodes);
  ~ClusterNode();

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// Runs the serve loop on the calling thread until Shutdown, transport
  /// close (both OK), or a protocol/transport error.
  Status Serve();

  /// Runs Serve() on an internal thread.
  void Start();

  /// Joins the Start() thread and returns what Serve() returned.
  Status Join();

 private:
  Status SendHello();
  Status HandleBatch(const std::string& payload);
  /// Runs one keyed epoch into one arena — `reports`, or the end-of-stream
  /// flush when null — and ships it as an EpochResult with the dictionary
  /// delta it interned.
  Status SendEpoch(std::int64_t epoch,
                   const std::vector<PositionReport>* reports);

  DatacronEngine engine_;
  std::unique_ptr<Transport> transport_;
  std::uint32_t node_id_;
  std::uint32_t num_nodes_;
  std::thread thread_;
  Status serve_status_;
};

}  // namespace datacron

#endif  // DATACRON_CLUSTER_NODE_H_
