#include "query/probe_pool.h"

#include <algorithm>

namespace stardust {

ProbePool::ProbePool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ProbePool::~ProbePool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::size_t ProbePool::ResolveWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) return 0;
  return std::min<std::size_t>(hw - 1, 4);
}

std::size_t ProbePool::Drain() {
  std::size_t done = 0;
  for (;;) {
    const std::size_t task =
        next_task_.fetch_add(1, std::memory_order_relaxed);
    if (task >= num_tasks_) return done;
    (*fn_)(task);
    ++done;
  }
}

void ProbePool::Run(std::size_t num_tasks,
                    const std::function<void(std::size_t)>& fn) {
  if (num_tasks == 0) return;
  if (threads_.empty()) {
    for (std::size_t task = 0; task < num_tasks; ++task) fn(task);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    num_tasks_ = num_tasks;
    fn_ = &fn;
    next_task_.store(0, std::memory_order_relaxed);
    completed_ = 0;
    acked_ = 0;
    ++generation_;
  }
  work_cv_.notify_all();
  const std::size_t mine = Drain();
  std::unique_lock<std::mutex> lock(mu_);
  completed_ += mine;
  // Full rendezvous: besides task completion, wait until every worker has
  // woken for this generation and left its drain. A worker that has not
  // acked yet may still read the run's cursor or callback, so returning
  // (and letting `fn` die or the next Run reset the cursor) before all
  // acks arrive would hand it dangling state.
  done_cv_.wait(lock, [this] {
    return completed_ == num_tasks_ && acked_ == threads_.size();
  });
  fn_ = nullptr;
}

void ProbePool::WorkerLoop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    const std::size_t done = Drain();
    {
      std::lock_guard<std::mutex> lock(mu_);
      completed_ += done;
      ++acked_;
      if (completed_ == num_tasks_ && acked_ == threads_.size()) {
        done_cv_.notify_all();
      }
    }
  }
}

}  // namespace stardust
