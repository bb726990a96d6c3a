// The serving executor's worker queue (serve/executor.h,
// docs/parallel_execution.md): one FIFO queue drained by a fixed set of
// workers. Every admitted request runs, one worker answers in submission
// order, and Stop runs what is still queued before it joins.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "pdms/core/pdms.h"
#include "pdms/obs/metrics.h"
#include "pdms/serve/executor.h"
#include "pdms/util/check.h"

namespace pdms {
namespace serve {
namespace {

constexpr const char* kProgram = R"(
peer Hospital { relation Doctor(name, hospital); }
stored hdoc(name, hospital) <= Hospital:Doctor(name, hospital).
fact hdoc("alice", "county").
fact hdoc("bo", "mercy").
)";

constexpr const char* kQuery = "q(n, h) :- Hospital:Doctor(n, h).";

ServeRequest MakeRequest(uint64_t id) {
  ServeRequest request;
  request.conn_id = 1;
  request.request_id = id;
  request.query = kQuery;
  return request;
}

// Starts an executor over the demo network with admission that admits
// everything (a deep queue, a negligible pinned service estimate).
std::unique_ptr<RequestExecutor> StartExecutor(
    const Pdms& pdms, size_t workers, obs::MetricsRegistry* metrics,
    std::function<void(ServeOutcome)> done) {
  ExecutorOptions options;
  options.workers = workers;
  options.admission.max_queue = 256;
  options.admission.initial_service_ms = 0.001;
  options.admission.ewma_alpha = 0;
  auto executor = std::make_unique<RequestExecutor>(options, metrics);
  Status started = executor->Start(pdms.network(), pdms.database(),
                                   std::move(done));
  PDMS_CHECK_MSG(started.ok(), started.ToString().c_str());
  return executor;
}

TEST(Executor, EveryAdmittedRequestRuns) {
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(kProgram).ok());
  obs::MetricsRegistry metrics;
  std::mutex mu;
  std::vector<ServeOutcome> outcomes;  // appended by every worker
  auto executor = StartExecutor(
      pdms, /*workers=*/4, &metrics, [&mu, &outcomes](ServeOutcome out) {
        std::lock_guard<std::mutex> lock(mu);
        outcomes.push_back(std::move(out));
      });
  constexpr uint64_t kRequests = 100;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    ASSERT_FALSE(executor->Submit(MakeRequest(id)).has_value());
  }
  executor->Stop();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(outcomes.size(), kRequests);
  std::vector<bool> seen(kRequests + 1, false);
  for (const ServeOutcome& out : outcomes) {
    ASSERT_FALSE(out.shed);
    ASSERT_GE(out.answer.request_id, 1u);
    ASSERT_LE(out.answer.request_id, kRequests);
    EXPECT_FALSE(seen[out.answer.request_id]) << out.answer.request_id;
    seen[out.answer.request_id] = true;
    EXPECT_EQ(out.answer.tuples.size(), 2u);
  }
  EXPECT_EQ(metrics.counter("serve.completed"), kRequests);
  EXPECT_EQ(executor->admission()->queue_depth(), 0u);
}

TEST(Executor, OneWorkerAnswersInOrderAndStopRunsWhatIsQueued) {
  // Request 1's completion callback keeps the only worker busy while the
  // rest are queued and Stop is called, so Stop finds them still waiting:
  // they must all be answered, oldest first, before it returns.
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(kProgram).ok());
  std::vector<uint64_t> order;  // appended by the worker only
  auto executor = StartExecutor(
      pdms, /*workers=*/1, nullptr, [&order](ServeOutcome out) {
        if (out.answer.request_id == 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        order.push_back(out.answer.request_id);
      });
  constexpr uint64_t kRequests = 50;
  for (uint64_t id = 1; id <= kRequests; ++id) {
    ASSERT_FALSE(executor->Submit(MakeRequest(id)).has_value());
  }
  executor->Stop();

  std::vector<uint64_t> want(kRequests);
  std::iota(want.begin(), want.end(), uint64_t{1});
  EXPECT_EQ(order, want);
}

}  // namespace
}  // namespace serve
}  // namespace pdms
