// The serving executor's worker pool (docs/parallel_execution.md): one
// FIFO queue drained by a fixed set of workers, whose destructor runs
// every queued task before it joins.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pdms/exec/thread_pool.h"

namespace pdms {
namespace exec {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, OneWorkerRunsTasksInOrderAndDrainsOnDestruction) {
  // The first task keeps the only worker busy while the rest are queued
  // and the pool is destroyed, so the destructor finds them still waiting:
  // it must run all of them, oldest first, before it joins.
  constexpr size_t kTasks = 50;
  std::vector<size_t> order;  // written by the worker only
  {
    ThreadPool pool(1);
    pool.Submit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(50)); });
    for (size_t i = 0; i < kTasks; ++i) {
      pool.Submit([&order, i] { order.push_back(i); });
    }
  }
  std::vector<size_t> want(kTasks);
  std::iota(want.begin(), want.end(), size_t{0});
  EXPECT_EQ(order, want);
}

}  // namespace
}  // namespace exec
}  // namespace pdms
