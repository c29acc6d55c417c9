#include "env/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "env/statistics.h"
#include "util/perf_context.h"

namespace leveldbpp {

ThreadPool* ThreadPool::Shared(int min_threads) {
  static ThreadPool* pool = new ThreadPool(0);
  pool->EnsureThreads(min_threads);
  return pool;
}

ThreadPool::ThreadPool(int num_threads) { EnsureThreads(num_threads); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::EnsureThreads(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(threads_.size()) < n) {
    threads_.emplace_back([this]() { WorkerLoop(); });
  }
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Only on shutdown
      fn = std::move(queue_.front());
      queue_.pop_front();
    }
    fn();
  }
}

void ParallelRun(std::vector<std::function<void()>>* tasks, int parallelism,
                 Statistics* stats) {
  const size_t n = tasks->size();
  if (n == 0) return;
  if (parallelism <= 1 || n == 1) {
    // Sequential fast path: in-order, on the caller, no synchronization.
    for (auto& task : *tasks) task();
    return;
  }

  // Work-sharing: the caller plus (helpers) pool workers drain one shared
  // counter, so a slow task never leaves the other executors idle while
  // queued tasks remain.
  const int helpers =
      static_cast<int>(std::min<size_t>(parallelism - 1, n - 1));
  ThreadPool* pool = ThreadPool::Shared(helpers);

  // Heap-allocated, refcounted control block. The caller waits only until
  // every task has FINISHED, not until every helper has arrived — a helper
  // showing up after the region drained sees next >= n and touches nothing
  // but this block, so the caller's stack (and `tasks`) may be long gone.
  struct Region {
    std::vector<std::function<void()>>* tasks;
    size_t n;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
    // Per-query attribution across the fan-out: when the caller had a
    // PerfContext active, every task runs under a task-local context that is
    // merged here (before its `done` increment, so the caller's barrier also
    // orders the merges) and folded back into the caller's context after the
    // barrier. Pool workers never enable a context of their own.
    bool perf_enabled = false;
    std::mutex perf_mu;
    PerfContext merged;  // guarded by perf_mu
  };
  auto region = std::make_shared<Region>();
  region->tasks = tasks;
  region->n = n;
  region->perf_enabled = CurrentThreadPerfContext() != nullptr;

  auto drain = [](Region* r) {
    while (true) {
      const size_t i = r->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= r->n) break;
      if (r->perf_enabled) {
        PerfContext local;
        PerfContext* prev = SwapThreadPerfContext(&local);
        (*r->tasks)[i]();
        SwapThreadPerfContext(prev);
        std::lock_guard<std::mutex> lock(r->perf_mu);
        r->merged.MergeFrom(local);
      } else {
        (*r->tasks)[i]();
      }
      // Release so the caller's acquire-load of `done` publishes everything
      // this task wrote.
      if (r->done.fetch_add(1, std::memory_order_release) + 1 == r->n) {
        // Last task overall: wake the caller if it parked. Taking the lock
        // before notifying closes the race with the caller's predicate
        // check.
        std::lock_guard<std::mutex> lock(r->mu);
        r->cv.notify_all();
      }
    }
  };
  for (int h = 0; h < helpers; h++) {
    // `region` captured by value: keeps the block alive past the caller's
    // return.
    pool->Submit([region, drain]() { drain(region.get()); });
  }
  drain(region.get());

  const auto wait_start = std::chrono::steady_clock::now();
  if (region->done.load(std::memory_order_acquire) < n) {
    // What remains is at most one in-flight task per helper (the caller's
    // drain claimed every unclaimed task). Park until the executor that
    // finishes the last task signals the region condvar.
    std::unique_lock<std::mutex> lock(region->mu);
    region->cv.wait(lock, [&]() {
      return region->done.load(std::memory_order_acquire) >= n;
    });
  }
  if (region->perf_enabled) {
    PerfContext* pc = CurrentThreadPerfContext();
    std::lock_guard<std::mutex> lock(region->perf_mu);
    pc->MergeFrom(region->merged);
  }
  if (stats != nullptr) {
    const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - wait_start);
    // Total tasks executed inside a parallel region (caller + helpers) —
    // which thread ran each one is a race, the count is not.
    stats->Record(kParallelTasks, static_cast<uint64_t>(n));
    stats->Record(kParallelWaitMicros,
                  static_cast<uint64_t>(waited.count()));
  }
}

}  // namespace leveldbpp
