// ParallelRun contract: the sequential path runs inline and in order, a
// parallel region runs every task exactly once, the caller returns only
// after every task has finished (even tasks that block), regions nest
// inside pool tasks, task-local PerfContexts are merged into the caller's,
// and query.parallel.tasks counts the region's tasks. These tests run
// under TSan and ASan (scripts/check.sh SAN_FILTER): the tasks write plain,
// non-atomic slots, so a missing happens-before edge shows as a race.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include "env/statistics.h"
#include "env/thread_pool.h"
#include "util/perf_context.h"

namespace leveldbpp {
namespace {

TEST(ThreadPoolTest, SequentialRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  // p = 0 and p = 1 with several tasks, and a single task at p = 4.
  const struct {
    int parallelism;
    int tasks;
  } cases[] = {{0, 6}, {1, 6}, {4, 1}};
  for (const auto& c : cases) {
    SCOPED_TRACE("p=" + std::to_string(c.parallelism) +
                 " tasks=" + std::to_string(c.tasks));
    std::vector<int> order;
    std::vector<std::thread::id> ran_on;
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < c.tasks; i++) {
      tasks.push_back([&order, &ran_on, i]() {
        order.push_back(i);
        ran_on.push_back(std::this_thread::get_id());
      });
    }
    Statistics stats;
    ParallelRun(&tasks, c.parallelism, &stats);
    ASSERT_EQ(static_cast<size_t>(c.tasks), order.size());
    for (int i = 0; i < c.tasks; i++) {
      EXPECT_EQ(i, order[i]);
      EXPECT_EQ(caller, ran_on[i]);
    }
    // The inline path opens no region, so it records nothing.
    EXPECT_EQ(0u, stats.Get(kParallelTasks));
    EXPECT_EQ(0u, stats.Get(kParallelWaitMicros));
  }
}

TEST(ThreadPoolTest, EveryTaskRunsExactlyOnce) {
  constexpr int kTasks = 200;
  for (int p : {2, 4, 8}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    for (int round = 0; round < 20; round++) {
      std::vector<std::atomic<int>> runs(kTasks);
      std::vector<int> slots(kTasks, -1);
      std::vector<std::function<void()>> tasks;
      for (int i = 0; i < kTasks; i++) {
        tasks.push_back([&runs, &slots, i]() {
          runs[i].fetch_add(1, std::memory_order_relaxed);
          slots[i] = i * 3;
        });
      }
      ParallelRun(&tasks, p, nullptr);
      for (int i = 0; i < kTasks; i++) {
        ASSERT_EQ(1, runs[i].load()) << "task " << i;
        ASSERT_EQ(i * 3, slots[i]) << "task " << i;
      }
    }
  }
}

TEST(ThreadPoolTest, CallerWaitsForBlockingTasks) {
  // Each task sleeps, so the caller drains its share long before the
  // helpers finish theirs; it must still return only after every task.
  constexpr int kTasks = 8;
  for (int p : {2, 4, 8}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    std::vector<int> finished(kTasks, 0);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < kTasks; i++) {
      tasks.push_back([&finished, i]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(2 + i % 3));
        finished[i] = 1;
      });
    }
    Statistics stats;
    ParallelRun(&tasks, p, &stats);
    for (int i = 0; i < kTasks; i++) {
      EXPECT_EQ(1, finished[i]) << "task " << i;
    }
    EXPECT_EQ(static_cast<uint64_t>(kTasks), stats.Get(kParallelTasks));
  }
}

TEST(ThreadPoolTest, NestedRegionInsidePoolTask) {
  // The shape of a shard fan-out whose shard tasks each open a MultiGet
  // region on the same shared pool.
  constexpr int kOuter = 4;
  constexpr int kInner = 16;
  for (int round = 0; round < 20; round++) {
    std::vector<std::vector<int>> results(kOuter, std::vector<int>(kInner));
    std::vector<std::function<void()>> outer;
    for (int o = 0; o < kOuter; o++) {
      outer.push_back([&results, o]() {
        std::vector<std::function<void()>> inner;
        for (int i = 0; i < kInner; i++) {
          inner.push_back([&results, o, i]() { results[o][i] = o * 100 + i; });
        }
        ParallelRun(&inner, 4, nullptr);
      });
    }
    ParallelRun(&outer, kOuter, nullptr);
    for (int o = 0; o < kOuter; o++) {
      for (int i = 0; i < kInner; i++) {
        ASSERT_EQ(o * 100 + i, results[o][i]) << o << "/" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, TaskPerfContextMergedIntoCaller) {
  constexpr int kTasks = 32;
  Statistics task_stats;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < kTasks; i++) {
    tasks.push_back([&task_stats]() {
      task_stats.Record(kBlockRead, 2);
      PerfCounterAdd(&PerfContext::candidates_validated, 1);
    });
  }
  GetPerfContext()->Reset();
  EnablePerfContext();
  ParallelRun(&tasks, 4, nullptr);
  DisablePerfContext();
  const PerfContext* pc = GetPerfContext();
  EXPECT_EQ(2u * kTasks, pc->TickerValue(kBlockRead));
  EXPECT_EQ(static_cast<uint64_t>(kTasks), pc->candidates_validated);
  EXPECT_EQ(2u * kTasks, task_stats.Get(kBlockRead));
  GetPerfContext()->Reset();
}

TEST(ThreadPoolTest, ParallelTasksTickerCountsRegionTasks) {
  Statistics stats;
  std::vector<std::function<void()>> tasks(10, []() {});
  ParallelRun(&tasks, 4, &stats);
  EXPECT_EQ(10u, stats.Get(kParallelTasks));
  ParallelRun(&tasks, 2, &stats);
  EXPECT_EQ(20u, stats.Get(kParallelTasks));
  ParallelRun(&tasks, 1, &stats);  // inline: not a region
  EXPECT_EQ(20u, stats.Get(kParallelTasks));
}

}  // namespace
}  // namespace leveldbpp
