// Tests for the correlator's probe worker pool (src/query/probe_pool):
// the exactly-once task contract across worker counts (including the
// inline zero-worker degradation), reuse across many generations, and
// the auto worker resolution.
#include "query/probe_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
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
  // One less than the hardware concurrency, never more than 4, and 0 on
  // a single-hardware-thread host.
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t expected =
      hw <= 1 ? 0 : std::min<std::size_t>(hw - 1, 4);
  EXPECT_EQ(ProbePool::ResolveWorkers(), expected);
}

TEST(ProbePoolTest, DestructionWithIdleWorkersIsClean) {
  auto pool = std::make_unique<ProbePool>(3);
  pool->Run(5, [](std::size_t) {});
  pool.reset();  // must join without a pending generation wedging workers
  SUCCEED();
}

}  // namespace
}  // namespace stardust
