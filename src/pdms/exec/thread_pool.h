#ifndef PDMS_EXEC_THREAD_POOL_H_
#define PDMS_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pdms {
namespace exec {

/// A fixed set of worker threads draining one FIFO task queue
/// (docs/parallel_execution.md). The serving executor submits one task per
/// admitted request; no task waits on another, so workers simply take the
/// oldest queued task whenever they are free.
///
/// Tasks are plain `std::function<void()>` and must not throw — every
/// engine in this codebase reports failure through Status, and an
/// exception escaping a worker would terminate the process.
class ThreadPool {
 public:
  /// Spawns `workers` threads; `workers` must be at least 1.
  explicit ThreadPool(size_t workers);
  /// Runs every task already queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task behind every task submitted before it. Must not be
  /// called once destruction begins.
  void Submit(std::function<void()> fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;  // guarded by mu_
  bool stopping_ = false;                    // guarded by mu_
  std::vector<std::thread> threads_;
};

}  // namespace exec
}  // namespace pdms

#endif  // PDMS_EXEC_THREAD_POOL_H_
