// Small persistent worker pool for the correlator's probe phase.
//
// A correlator round probes every gathered feature point against the
// round's CorrelationIndex — independent read-only lookups over a grid
// that does not change during the phase. The pool partitions the
// probe set dynamically (an atomic task cursor) across its workers plus
// the calling thread, and Run returns only when every task finished, so
// the caller's merge step sees all results. With zero workers (a single
// usable CPU) Run degrades to a plain inline loop — no threads, no
// synchronization.
#ifndef STARDUST_QUERY_PROBE_POOL_H_
#define STARDUST_QUERY_PROBE_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stardust {

class ProbePool {
 public:
  /// Spawns `workers` persistent threads (0 is valid: Run stays inline).
  explicit ProbePool(std::size_t workers);
  ~ProbePool();

  ProbePool(const ProbePool&) = delete;
  ProbePool& operator=(const ProbePool&) = delete;

  std::size_t workers() const { return threads_.size(); }

  /// Invokes `fn(task)` exactly once for every task in [0, num_tasks),
  /// partitioned across the workers and the calling thread; blocks until
  /// all tasks completed. `fn` must be safe to call concurrently for
  /// distinct tasks. Only one Run may be in flight at a time (the
  /// correlator serializes rounds).
  void Run(std::size_t num_tasks, const std::function<void(std::size_t)>& fn);

  /// The correlator's worker count: one less than the CPUs the calling
  /// thread may use (AllowedCpus), clamped to [0, 4]. With one usable CPU
  /// the pool degrades to inline execution; beyond a few workers the
  /// probe phase is memory-bound.
  static std::size_t ResolveWorkers();

 private:
  void WorkerLoop();
  /// Claims and runs tasks until the cursor is exhausted; returns the
  /// number of tasks this thread completed.
  std::size_t Drain();

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a new generation
  std::condition_variable done_cv_;   // caller waits for completion
  std::uint64_t generation_ = 0;      // bumped per Run, guarded by mu_
  bool stop_ = false;                 // guarded by mu_
  // Current run (set under mu_ before the generation bump publishes it).
  std::size_t num_tasks_ = 0;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::atomic<std::size_t> next_task_{0};
  std::size_t completed_ = 0;         // guarded by mu_
  std::size_t acked_ = 0;             // workers done with this generation
  std::vector<std::thread> threads_;
};

/// Ids of the CPUs in the calling thread's affinity mask, ascending:
/// under taskset, a cpuset or a pinned benchmark run the hardware count
/// overstates them. Falls back to every id below the hardware
/// concurrency when the mask cannot be read; never empty.
std::vector<std::size_t> AllowedCpus();

}  // namespace stardust

#endif  // STARDUST_QUERY_PROBE_POOL_H_
