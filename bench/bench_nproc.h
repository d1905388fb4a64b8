// Shared by the benches that write BENCH_*.json: every file records the
// CPUs the run could use, so a speedup is read against the cores it ran
// on.
#ifndef DATACRON_BENCH_BENCH_NPROC_H_
#define DATACRON_BENCH_BENCH_NPROC_H_

#include <sched.h>

#include <thread>

namespace datacron {

/// CPUs this process may run on — what `nproc` prints.
inline unsigned Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

}  // namespace datacron

#endif  // DATACRON_BENCH_BENCH_NPROC_H_
