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

/// Worker placement plan: worker i gets the i-th CPU of `allowed` after
/// `own_cpu`, in ascending CPU order and wrapping around, so the first
/// workers avoid the constructing thread's CPU and more workers than CPUs
/// cycle through the mask again. When `own_cpu` is not in `allowed` (or
/// is -1), counting starts at the next allowed CPU above it. An empty
/// mask plans -1 (unplaced) for every worker. `allowed` must be sorted
/// and free of duplicates.
std::vector<int> PlanWorkerCpus(const std::vector<int>& allowed, int own_cpu,
                                std::size_t num_workers);

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
///
/// Each worker starts on its own CPU: before the constructor returns,
/// worker i has moved itself to the i-th allowed CPU after the
/// constructor's (PlanWorkerCpus) and then released its affinity back to
/// the full inherited mask. Where the kernel does not balance load across
/// CPUs, a thread otherwise stays on the CPU of the thread that created
/// it, and every worker would queue behind the constructor on one core.
/// This is placement, not pinning: once released, a balancing kernel may
/// still move the worker.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1) and places each on its CPU.
  explicit ThreadPool(std::size_t num_threads);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// The CPU each worker was placed on at construction, or -1 where
  /// placing failed (or the platform has no affinity calls). Fixed once
  /// the constructor returns.
  const std::vector<int>& WorkerCpus() const { return worker_cpus_; }

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
  std::vector<int> worker_cpus_;
  std::deque<QueuedTask> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  LogHistogram queue_wait_ns_;
  bool shutting_down_ = false;
};

}  // namespace datacron

#endif  // DATACRON_COMMON_THREAD_POOL_H_
