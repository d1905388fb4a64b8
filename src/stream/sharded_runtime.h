#ifndef DATACRON_STREAM_SHARDED_RUNTIME_H_
#define DATACRON_STREAM_SHARDED_RUNTIME_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/epoch.h"

namespace datacron {

/// Default per-shard-epoch accumulator for callers whose keyed stage
/// carries everything through per-item slots.
struct NoShardArena {};

/// Key-partitioned streaming runtime: the execution layer behind
/// DatacronEngine::IngestBatch, running the EpochDriver (stream/epoch.h).
///
/// Each item is routed by a caller-supplied key to one of `num_shards`
/// logical shards; each shard runs the caller's *keyed* stage over its
/// items with no locks (keyed state is partitioned). The keyed stage
/// writes per-item results into a `Slot` and may accumulate bulk output
/// in its shard's per-epoch `Arena` — the unit of shard→global delivery,
/// so every coordination cost moved from slot to arena is paid once per
/// shard-epoch instead of once per item. The *global* stage then receives
/// each epoch's items, slots and all shard arenas, in input order.
///
/// Determinism: keyed stages see exactly the per-key subsequence of the
/// input and the global stage consumes items in input order, so outputs
/// are byte-identical to a serial run for any shard count, epoch size or
/// pool size.
template <typename In, typename Slot, typename Arena = NoShardArena>
class ShardedRuntime {
 public:
  ShardedRuntime(std::size_t num_shards, EpochWindow window)
      : num_shards_(std::max<std::size_t>(num_shards, 1)), window_(window) {}

  /// Runs the full dataflow over `input`.
  ///
  ///   key(item)                          -> std::uint64_t (shard = key % n)
  ///   keyed(shard, item, &slot, &arena)  -> fills the item's slot and may
  ///                                         append to its shard's epoch
  ///                                         arena
  ///   global(items, slots, arenas)       -> one epoch, input order, with
  ///                                         all num_shards arenas, on the
  ///                                         calling thread
  ///
  /// A null pool or a single shard runs the keyed stage inline, on the
  /// calling thread in input order, so a keyed stage interning into a
  /// shared dictionary keeps serial first-occurrence ids. With a pool the
  /// calling thread also runs keyed stages while it waits at a barrier.
  /// An exception from either stage propagates once every drain task has
  /// joined.
  template <typename KeyFn, typename KeyedFn, typename GlobalFn>
  void Run(std::span<const In> input, ThreadPool* pool, KeyFn&& key,
           KeyedFn&& keyed, GlobalFn&& global) {
    EpochDriver driver(window_);
    const auto absorb = [&global](Epoch& e) {
      global(e.items, std::span<Slot>(e.payload.slots),
             std::span<Arena>(e.payload.arenas));
      return Status::OK();
    };
    if (pool == nullptr || num_shards_ <= 1) {
      InlineExecutor<KeyFn, KeyedFn> exec{num_shards_, key, keyed};
      driver.Run(input, num_shards_, key, exec, absorb);
    } else {
      MailboxExecutor<KeyedFn> exec(num_shards_, pool, keyed);
      driver.Run(input, num_shards_, key, exec, absorb);
    }
  }

 private:
  /// Per-epoch executor state: a slot per item, an arena per shard.
  struct ShardEpoch {
    std::vector<Slot> slots;
    std::vector<Arena> arenas;
  };
  using Epoch = DrivenEpoch<In, ShardEpoch>;

  static void Prepare(Epoch* e, std::size_t num_shards) {
    e->payload.slots.resize(e->items.size());
    e->payload.arenas = std::vector<Arena>(num_shards);
  }

  template <typename KeyFn, typename KeyedFn>
  struct InlineExecutor {
    using Payload = ShardEpoch;

    Status Deliver(Epoch& e) {
      Prepare(&e, num_shards);
      obs::ScopedTraceContext trace_ctx(e.id);
      for (std::size_t i = 0; i < e.items.size(); ++i) {
        const std::size_t shard = key(e.items[i]) % num_shards;
        keyed(shard, e.items[i], &e.payload.slots[i],
              &e.payload.arenas[shard]);
      }
      return Status::OK();
    }
    bool Passed(const Epoch&) const { return true; }
    Status Await(Epoch&) { return Status::OK(); }
    void Quiesce() {}

    std::size_t num_shards;
    KeyFn& key;
    KeyedFn& keyed;
  };

  /// One FIFO mailbox per shard, drained by at most one pool task chain
  /// at a time. A drain task runs one shard-epoch and, while the mailbox
  /// holds more, re-queues itself behind the other shards' older epochs,
  /// so the pool works epoch-major and no task blocks on input: any number
  /// of shards can share any pool size. The driver helps while it waits:
  /// Await and Quiesce run queued pool tasks (ThreadPool::HelpUntil), so
  /// the driver is one more drainer and IngestBatch called from inside a
  /// pool task cannot deadlock, even on a one-worker pool.
  template <typename KeyedFn>
  class MailboxExecutor {
   public:
    using Payload = ShardEpoch;

    MailboxExecutor(std::size_t num_shards, ThreadPool* pool, KeyedFn& keyed)
        : mailboxes_(num_shards),
          watermarks_(num_shards),
          pool_(pool),
          keyed_(keyed),
          driver_(std::this_thread::get_id()),
          enqueue_counter_(obs::MetricsRegistry::Global().counter(
              "shard.mailbox_enqueues")),
          driver_drain_counter_(obs::MetricsRegistry::Global().counter(
              "shard.driver_drains")) {}

    /// Every shard receives every epoch (possibly with an empty index
    /// list) so its watermark advances: one mailbox message per shard per
    /// epoch, never per item.
    Status Deliver(Epoch& e) {
      Prepare(&e, mailboxes_.size());
      for (std::size_t s = 0; s < mailboxes_.size(); ++s) Post(s, &e);
      return Status::OK();
    }

    /// A keyed-stage failure is rethrown here, on the driver thread,
    /// before the global stage can see a partially processed epoch.
    bool Passed(const Epoch& e) {
      std::lock_guard<std::mutex> lk(mu_);
      if (error_) std::rethrow_exception(error_);
      return watermarks_.AllPassed(e.id);
    }

    /// Runs queued drain tasks (and any other pool work) until every shard
    /// has passed `e` or a keyed stage failed.
    Status Await(Epoch& e) {
      pool_->HelpUntil(mu_, cv_,
                       [&] { return error_ || watermarks_.AllPassed(e.id); });
      std::lock_guard<std::mutex> lk(mu_);
      if (error_) std::rethrow_exception(error_);
      return Status::OK();
    }

    /// Epochs still queued pass through unprocessed (the driver quiesces
    /// after the last retire or on a failure); helps until every drain
    /// chain has ended.
    void Quiesce() {
      stopped_ = true;
      pool_->HelpUntil(mu_, cv_, [this] { return active_drains_ == 0; });
    }

   private:
    struct Mailbox {
      std::mutex mu;
      std::deque<Epoch*> epochs;
      /// True while a drain chain owns this mailbox, from the Post that
      /// starts it until a task finds the mailbox empty; re-queues keep it
      /// set, which guarantees one drainer and FIFO order.
      bool draining = false;
    };

    void Post(std::size_t shard, Epoch* e) {
      enqueue_counter_->Add();
      Mailbox& mb = mailboxes_[shard];
      {
        std::lock_guard<std::mutex> lk(mb.mu);
        mb.epochs.push_back(e);
        if (mb.draining) return;
        mb.draining = true;
      }
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++active_drains_;
      }
      Schedule(shard);
    }

    void Schedule(std::size_t shard) {
      // The future is discarded: Drain() catches everything itself.
      pool_->Submit([this, shard] { Drain(shard); });
    }

    /// Drains one epoch from the shard's mailbox, then re-queues the chain
    /// if more are waiting or ends it. After the first keyed-stage
    /// exception or Quiesce the remaining epochs pass through unprocessed,
    /// so watermarks keep advancing and Quiesce cannot hang.
    void Drain(std::size_t shard) {
      Mailbox& mb = mailboxes_[shard];
      Epoch* e = nullptr;
      {
        std::lock_guard<std::mutex> lk(mb.mu);
        e = mb.epochs.front();
        mb.epochs.pop_front();
      }
      if (!stopped_.load()) {
        if (std::this_thread::get_id() == driver_) driver_drain_counter_->Add();
        try {
          obs::ScopedTraceContext trace_ctx(e->id,
                                            static_cast<std::int32_t>(shard));
          obs::TraceSpan span("shard.drain", "shard");
          Arena* arena = &e->payload.arenas[shard];
          for (std::uint32_t idx : e->by_part[shard]) {
            keyed_(shard, e->items[idx], &e->payload.slots[idx], arena);
          }
        } catch (...) {
          std::lock_guard<std::mutex> lk(mu_);
          if (!error_) error_ = std::current_exception();
          stopped_ = true;
        }
      }
      {
        std::lock_guard<std::mutex> lk(mu_);
        watermarks_.Advance(shard, e->id);
      }
      cv_.notify_all();
      bool more = false;
      {
        std::lock_guard<std::mutex> lk(mb.mu);
        more = !mb.epochs.empty();
        mb.draining = more;
      }
      // The chain still counts in active_drains_, so the executor outlives
      // the re-queued task.
      if (more) {
        Schedule(shard);
        return;
      }
      // Notify under the lock: the executor may be destroyed as soon as
      // Quiesce observes active_drains_ == 0, so the wakeup must not touch
      // the condition variable after the mutex is released.
      std::lock_guard<std::mutex> lk(mu_);
      --active_drains_;
      cv_.notify_all();
    }

    std::vector<Mailbox> mailboxes_;
    std::mutex mu_;
    std::condition_variable cv_;
    /// Per-shard epoch watermarks behind the barrier; guarded by mu_.
    EpochWatermarks watermarks_;
    /// Drain chains running or queued; guarded by mu_.
    std::size_t active_drains_ = 0;
    std::exception_ptr error_;  // first keyed-stage failure; under mu_
    std::atomic<bool> stopped_{false};  // after error_ or Quiesce
    ThreadPool* pool_;
    KeyedFn& keyed_;
    /// The thread that runs the EpochDriver; drains it runs while it helps
    /// count in "shard.driver_drains".
    std::thread::id driver_;
    obs::Counter* enqueue_counter_;
    obs::Counter* driver_drain_counter_;
  };

  std::size_t num_shards_;
  EpochWindow window_;
};

}  // namespace datacron

#endif  // DATACRON_STREAM_SHARDED_RUNTIME_H_
