#ifndef DATACRON_COMMON_THREAD_POOL_H_
#define DATACRON_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/time_utils.h"

namespace datacron {

/// Fixed-size worker pool used by the parallel query executor, the
/// pipeline runner and the bulk-ingest path. Tasks are
/// `std::function<void()>`; `Submit` returns a future for composition,
/// `ParallelFor` is a convenience barrier.
///
/// ParallelFor is re-entrant: a task running on a pool worker may itself
/// call ParallelFor (the ingest path nests bucket-level and sort-level
/// parallelism). The calling thread help-runs queued tasks while it waits
/// (HelpUntil), so nested calls cannot deadlock even on a single-worker
/// pool.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task; returns a future for its result.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back({[task] { (*task)(); }, MonotonicNanos()});
    }
    cv_.notify_one();
    return fut;
  }

  /// Distribution of enqueue-to-dequeue wait nanos over every task run so
  /// far — the scheduler-latency signal the observability layer publishes
  /// as "pool.queue_ns". Accounted under the queue mutex the pool already
  /// holds at dequeue, so the hot path pays one clock read per task.
  LogHistogram QueueWaitNanos() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_wait_ns_;
  }

  /// Runs fn(i) for i in [0, n), partitioned across the pool; blocks until
  /// every iteration has completed. The calling thread participates (it
  /// help-runs queued chunks), so ParallelFor may be invoked from inside a
  /// pool task. If any iteration throws, every chunk still runs to
  /// completion and the first exception is rethrown to the caller.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t)>& fn);

  /// Runs queued tasks on the calling thread until `done()` holds; blocks
  /// on `cv` only while the queue is empty, and tries again after every
  /// wakeup. `done()` runs with `mu` held; whoever makes it true must
  /// notify `cv` after changing that state under `mu`, or notify while
  /// holding `mu`, so the wakeup cannot be lost. The one help-while-wait
  /// loop: ParallelFor's join and the sharded runtime's epoch barrier both
  /// wait here, so a waiter on a pool worker runs the tasks it waits for
  /// instead of deadlocking behind them. The tasks run here may belong to
  /// any submitter, so no pool task may block until a waiter progresses.
  template <typename Pred>
  void HelpUntil(std::mutex& mu, std::condition_variable& cv, Pred&& done) {
    std::unique_lock<std::mutex> lock(mu);
    while (!done()) {
      lock.unlock();
      const bool ran = TryRunOneTask();
      lock.lock();
      if (!ran && !done()) cv.wait(lock);
    }
  }

 private:
  struct QueuedTask {
    std::function<void()> fn;
    std::int64_t enqueue_ns = 0;
  };

  void WorkerLoop();

  /// Pops and runs one queued task if any is immediately available.
  /// Returns false when the queue was empty.
  bool TryRunOneTask();

  /// Pops the front task under mu_ (held by the caller) and accounts its
  /// queue wait.
  std::function<void()> PopFrontLocked();

  std::vector<std::thread> workers_;
  std::deque<QueuedTask> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  LogHistogram queue_wait_ns_;
  bool shutting_down_ = false;
};

}  // namespace datacron

#endif  // DATACRON_COMMON_THREAD_POOL_H_
