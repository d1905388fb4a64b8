#include "common/thread_pool.h"

#include <algorithm>
#include <exception>
#include <memory>

#if defined(__linux__)
#include <sched.h>
#endif

namespace datacron {

namespace {

#if defined(__linux__)

// The CPUs the calling thread may run on, ascending; empty when the mask
// cannot be read.
std::vector<int> AllowedCpus() {
  std::vector<int> allowed;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) allowed.push_back(cpu);
  }
  return allowed;
}

int CurrentCpu() { return sched_getcpu(); }

// Moves the calling thread onto `cpu`, then releases it to the mask it
// inherited. A one-CPU mask migrates a running thread before the call
// returns, and the wider mask afterwards leaves it where it now runs.
// Returns the CPU placed on, or -1.
int PlaceCallingThread(int cpu) {
  cpu_set_t inherited;
  CPU_ZERO(&inherited);
  if (cpu < 0 ||
      sched_getaffinity(0, sizeof(inherited), &inherited) != 0) {
    return -1;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return -1;
  sched_setaffinity(0, sizeof(inherited), &inherited);
  return cpu;
}

#else

std::vector<int> AllowedCpus() { return {}; }
int CurrentCpu() { return -1; }
int PlaceCallingThread(int) { return -1; }

#endif

}  // namespace

std::vector<int> PlanWorkerCpus(const std::vector<int>& allowed, int own_cpu,
                                std::size_t num_workers) {
  std::vector<int> plan(num_workers, -1);
  if (allowed.empty()) return plan;
  const std::size_t first = static_cast<std::size_t>(
      std::upper_bound(allowed.begin(), allowed.end(), own_cpu) -
      allowed.begin());
  for (std::size_t i = 0; i < num_workers; ++i) {
    plan[i] = allowed[(first + i) % allowed.size()];
  }
  return plan;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  const std::vector<int> plan =
      PlanWorkerCpus(AllowedCpus(), CurrentCpu(), num_threads);
  worker_cpus_.assign(num_threads, -1);

  // Start latch: each worker places itself while it runs (a sleeping
  // thread would not be moved by a mask change) and reports before the
  // constructor returns, so WorkerCpus() is settled without a race. The
  // latch outlives the constructor's frame because workers hold it too.
  struct StartLatch {
    std::mutex mu;
    std::condition_variable placed;
    std::size_t unplaced = 0;
  };
  auto latch = std::make_shared<StartLatch>();
  latch->unplaced = num_threads;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i, cpu = plan[i], latch] {
      const int placed = PlaceCallingThread(cpu);
      {
        std::lock_guard<std::mutex> lock(latch->mu);
        worker_cpus_[i] = placed;
        if (--latch->unplaced == 0) latch->placed.notify_one();
      }
      WorkerLoop();
    });
  }
  std::unique_lock<std::mutex> lock(latch->mu);
  latch->placed.wait(lock, [&] { return latch->unplaced == 0; });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::function<void()> ThreadPool::PopFrontLocked() {
  QueuedTask task = std::move(queue_.front());
  queue_.pop_front();
  queue_wait_ns_.Add(
      static_cast<double>(MonotonicNanos() - task.enqueue_ns));
  return std::move(task.fn);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = PopFrontLocked();
    }
    task();
  }
}

bool ThreadPool::TryRunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = PopFrontLocked();
  }
  task();
  return true;
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;

  // Per-call completion state. Chunks reference `fn` (stack-bound), so the
  // call must not return before every chunk has finished — including after
  // an exception — or the remaining chunks would run against a dangling
  // reference.
  struct Barrier {
    std::atomic<std::size_t> remaining;
    std::mutex mu;
    std::condition_variable done;
    std::exception_ptr first_error;
  };
  const std::size_t chunks = std::min(n, num_threads() * 4);
  const std::size_t per_chunk = (n + chunks - 1) / chunks;
  auto barrier = std::make_shared<Barrier>();
  barrier->remaining.store((n + per_chunk - 1) / per_chunk,
                           std::memory_order_relaxed);

  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * per_chunk;
    const std::size_t end = std::min(n, begin + per_chunk);
    if (begin >= end) break;
    auto chunk = [begin, end, &fn, barrier] {
      try {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(barrier->mu);
        if (!barrier->first_error) {
          barrier->first_error = std::current_exception();
        }
      }
      if (barrier->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Lock so the notify cannot race a waiter between its predicate
        // check and its wait.
        std::lock_guard<std::mutex> lock(barrier->mu);
        barrier->done.notify_all();
      }
    };
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back({std::move(chunk), MonotonicNanos()});
    }
    cv_.notify_one();
  }

  // Help-run queued tasks while waiting. This makes nested ParallelFor
  // safe: a worker whose chunks queue behind it executes them itself
  // instead of blocking on a future forever. Stolen tasks may belong to
  // other submitters; running them here only speeds the pool up.
  HelpUntil(barrier->mu, barrier->done, [&] {
    return barrier->remaining.load(std::memory_order_acquire) == 0;
  });
  if (barrier->first_error) std::rethrow_exception(barrier->first_error);
}

}  // namespace datacron
