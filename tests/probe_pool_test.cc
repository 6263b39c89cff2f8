// Tests for the correlator's probe worker pool (src/query/probe_pool):
// the exactly-once task contract across worker counts (including the
// inline zero-worker degradation), reuse across many generations, and
// the worker count resolved from the affinity mask.
#include "query/probe_pool.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

namespace stardust {
namespace {

TEST(ProbePoolTest, RunsEveryTaskExactlyOnce) {
  for (const std::size_t workers : {0u, 1u, 2u, 3u}) {
    ProbePool pool(workers);
    EXPECT_EQ(pool.workers(), workers);
    for (const std::size_t num_tasks : {0u, 1u, 7u, 1000u}) {
      std::vector<std::atomic<int>> counts(num_tasks);
      for (auto& c : counts) c.store(0);
      pool.Run(num_tasks, [&counts](std::size_t task) {
        ASSERT_LT(task, counts.size());
        counts[task].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < num_tasks; ++i) {
        EXPECT_EQ(counts[i].load(), 1)
            << "task " << i << " with " << workers << " workers";
      }
    }
  }
}

// The pool lives across rounds: many back-to-back generations with
// different task counts and different callables must stay exactly-once
// (this is the lifetime race the rendezvous protocol exists for — a
// late-waking worker must never touch a finished generation's state).
TEST(ProbePoolTest, ReusableAcrossGenerations) {
  ProbePool pool(2);
  std::atomic<std::size_t> total{0};
  std::size_t expected = 0;
  for (std::size_t round = 0; round < 200; ++round) {
    const std::size_t num_tasks = round % 17;
    pool.Run(num_tasks, [&total](std::size_t task) {
      total.fetch_add(task + 1, std::memory_order_relaxed);
    });
    expected += num_tasks * (num_tasks + 1) / 2;
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(ProbePoolTest, ResolveWorkersClampsToTheHardware) {
  // One less than the CPUs this thread may run on, never more than 4,
  // and 0 with a single usable CPU.
  cpu_set_t allowed;
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  const std::size_t cpus = static_cast<std::size_t>(CPU_COUNT(&allowed));
  const std::size_t expected =
      cpus <= 1 ? 0 : std::min<std::size_t>(cpus - 1, 4);
  EXPECT_EQ(ProbePool::ResolveWorkers(), expected);
}

// A thread pinned to one CPU gets an inline pool, however many CPUs the
// host has: workers would only share that CPU with the caller.
TEST(ProbePoolTest, ResolveWorkersIsZeroWhenPinnedToOneCpu) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t workers = ProbePool::ResolveWorkers();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(workers, 0u);
}

TEST(ProbePoolTest, DestructionWithIdleWorkersIsClean) {
  auto pool = std::make_unique<ProbePool>(3);
  pool->Run(5, [](std::size_t) {});
  pool.reset();  // must join without a pending generation wedging workers
  SUCCEED();
}

}  // namespace
}  // namespace stardust
