#ifndef DATACRON_STREAM_EPOCH_H_
#define DATACRON_STREAM_EPOCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/time_utils.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace datacron {

/// Tracks the per-partition epoch watermarks behind the merge barrier.
/// watermark(p) == e means partition p has finished every epoch <= e.
/// Not internally synchronized: the mailbox executor updates it under its
/// own lock, the transport executor from its single receive loop.
class EpochWatermarks {
 public:
  static constexpr std::int64_t kNone = -1;

  explicit EpochWatermarks(std::size_t num_parts)
      : marks_(num_parts, kNone) {}

  /// Advances partition `part` to `epoch`. Watermarks never move
  /// backwards: a stale update (epoch lower than the current mark) is
  /// ignored, so redeliveries cannot re-open a released barrier.
  void Advance(std::size_t part, std::int64_t epoch) {
    if (epoch > marks_[part]) marks_[part] = epoch;
  }

  /// True once every partition's watermark has reached `epoch` — the
  /// barrier condition for merging that epoch.
  bool AllPassed(std::int64_t epoch) const {
    for (const std::int64_t w : marks_) {
      if (w < epoch) return false;
    }
    return true;
  }

 private:
  std::vector<std::int64_t> marks_;
};

/// Epochs of at most `epoch_size` items, at most `max_in_flight` of them
/// unretired; both clamp to >= 1. items() is the full window.
struct EpochWindow {
  EpochWindow(std::size_t epoch_size, std::size_t max_in_flight)
      : epoch_size(std::max<std::size_t>(epoch_size, 1)),
        max_in_flight(std::max<std::size_t>(max_in_flight, 1)) {}

  std::size_t items() const { return epoch_size * max_in_flight; }

  std::size_t epoch_size;
  std::size_t max_in_flight;
};

/// One dispatched epoch plus the executor's per-epoch state; at a stable
/// address until retired. by_part[p] lists, in input order, the indices
/// into `items` that partition p processes; every partition has an entry
/// (possibly empty) so its watermark can advance past the epoch.
template <typename In, typename Payload>
struct DrivenEpoch {
  std::int64_t id = 0;
  std::span<const In> items;
  std::vector<std::vector<std::uint32_t>> by_part;
  Payload payload;
};

/// The one epoch loop of the sharded engine and the cluster coordinator:
/// cuts the input into epochs (ids continue across Run calls, keeping a
/// session-long barrier monotonic), routes each item to partition
/// key(item) % num_parts, keeps at most max_in_flight epochs dispatched
/// but unretired, and retires them in input order: barrier, then
/// `Status global(Epoch&)`. Its only seam is the executor
/// (Epoch = DrivenEpoch<In, Payload>):
///
///   using Payload = ...;
///   Status Deliver(Epoch& e);     hand e to every partition
///   bool Passed(const Epoch& e);  non-blocking barrier probe
///   Status Await(Epoch& e);       block until every partition passed e
///   void Quiesce();               stop and join partition work
///
/// The first non-OK Status or exception wins: nothing more is dispatched
/// or merged, the executor quiesces, and only then is the Status returned
/// or the exception rethrown.
class EpochDriver {
 public:
  explicit EpochDriver(EpochWindow window)
      : window_(window),
        epoch_counter_(obs::MetricsRegistry::Global().counter("shard.epochs")),
        barrier_wait_hist_(
            obs::MetricsRegistry::Global().histogram("shard.barrier_wait_ns")) {
  }

  const EpochWindow& window() const { return window_; }

  template <typename In, typename KeyFn, typename Executor, typename GlobalFn>
  Status Run(std::span<const In> input, std::size_t num_parts, KeyFn&& key,
             Executor& exec, GlobalFn&& global) {
    // A deque keeps in-flight epochs at stable addresses.
    std::deque<DrivenEpoch<In, typename Executor::Payload>> ring;
    Status failure;

    // Retires the front epoch (waiting on its barrier only when `block`);
    // false if the barrier is closed or a step failed.
    const auto retire = [&](bool block) {
      auto& e = ring.front();
      obs::ScopedTraceContext trace_ctx(e.id);
      if (!exec.Passed(e)) {
        if (!block) return false;
        DATACRON_TRACE_SPAN("shard.barrier", "shard");
        const std::int64_t wait_start = MonotonicNanos();
        failure = exec.Await(e);
        barrier_wait_hist_->Observe(
            static_cast<double>(MonotonicNanos() - wait_start));
        if (!failure.ok()) return false;
      }
      {
        DATACRON_TRACE_SPAN("shard.global", "shard");
        failure = global(e);
      }
      ring.pop_front();
      return failure.ok();
    };

    try {
      for (std::size_t pos = 0; pos < input.size() && failure.ok();
           pos += window_.epoch_size) {
        // Block only while the window is full; otherwise retire what passed.
        while (!ring.empty() && retire(ring.size() >= window_.max_in_flight)) {
        }
        if (!failure.ok()) break;

        epoch_counter_->Add();
        auto& e = ring.emplace_back();
        e.id = next_id_++;
        e.items = input.subspan(
            pos, std::min(window_.epoch_size, input.size() - pos));
        {
          obs::TraceSpan span("shard.route", "shard");
          span.set_epoch(e.id);
          e.by_part.resize(num_parts);
          for (std::size_t i = 0; i < e.items.size(); ++i) {
            e.by_part[key(e.items[i]) % num_parts].push_back(
                static_cast<std::uint32_t>(i));
          }
        }
        failure = exec.Deliver(e);
      }
      while (failure.ok() && !ring.empty()) retire(true);
    } catch (...) {
      exec.Quiesce();  // partition work may still point into the ring
      throw;
    }
    exec.Quiesce();
    return failure;
  }

 private:
  EpochWindow window_;
  std::int64_t next_id_ = 0;
  obs::Counter* epoch_counter_;
  obs::AtomicLogHistogram* barrier_wait_hist_;
};

}  // namespace datacron

#endif  // DATACRON_STREAM_EPOCH_H_
