// ThreadPool: the fixed-size worker pool behind the parallel read path
// (Options::read_parallelism) and each shard's DedicatedSchedulerEnv lane,
// living alongside the single-thread BackgroundScheduler in env_posix.cc.
//
// Design constraints (see DESIGN.md "Parallel read path"):
//  * One process-wide read pool shared by every DB instance, sized lazily
//    to the largest parallelism any caller has requested — mirroring how
//    all DBs share one background compaction thread.
//  * Submit-only API: no futures and no task return values. A task
//    communicates through state it owns exclusively (e.g. a per-task output
//    slot), and ParallelRun's region barrier publishes it to the caller.
//  * The read pool is for BOUNDED fan-out (a query resolving its
//    candidates), never for long-running work; tasks must not block on
//    other tasks.
//
// ParallelRun is the one entry point the engine's read path uses: it shares
// a task list between the calling thread and up to (parallelism - 1) pool
// workers, so parallelism == 1 (or a single task) runs entirely inline with
// zero scheduling overhead — keeping the default sequential paths
// byte-identical to the pre-pool engine.

#ifndef LEVELDBPP_ENV_THREAD_POOL_H_
#define LEVELDBPP_ENV_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace leveldbpp {

class Statistics;

/// Fixed-size FIFO worker pool. Workers are started by EnsureThreads and
/// run until the pool is destroyed; the shared instance never is (matching
/// BackgroundScheduler). An idle worker parks on the condvar; it never
/// polls, so an idle pool takes no CPU from the threads producing the work.
class ThreadPool {
 public:
  /// Process-wide shared pool. Grows (never shrinks) to the largest
  /// `min_threads` ever requested; the first caller starts the workers.
  static ThreadPool* Shared(int min_threads);

  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue `fn` for execution on some worker thread.
  void Submit(std::function<void()> fn);

  /// Ensure at least `n` worker threads exist.
  void EnsureThreads(int n);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // guarded by mu_
  std::vector<std::thread> threads_;         // guarded by mu_
  bool shutting_down_ = false;               // guarded by mu_
};

/// Run `tasks` with up to `parallelism` concurrent executors: the calling
/// thread plus at most (parallelism - 1) pool workers, all draining one
/// shared index. With parallelism <= 1 or a single task, every task runs
/// inline on the caller in order — no pool, no synchronization, no side
/// effects on timing or I/O attribution.
///
/// The caller returns as soon as every task has FINISHED — it never waits
/// for helpers to arrive, only for claimed tasks to complete: once its own
/// share is drained it parks on the region's condvar, signalled by whichever
/// executor finishes the last task. Helpers that arrive after the region is
/// drained touch only a refcounted control block, never the caller's stack.
///
/// Records kParallelTasks (tasks executed inside a parallel region) and
/// kParallelWaitMicros (time the caller spent waiting after finishing its
/// own share) on `stats` when non-null.
void ParallelRun(std::vector<std::function<void()>>* tasks, int parallelism,
                 Statistics* stats);

}  // namespace leveldbpp

#endif  // LEVELDBPP_ENV_THREAD_POOL_H_
