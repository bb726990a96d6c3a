#ifndef PDMS_SERVE_EXECUTOR_H_
#define PDMS_SERVE_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "pdms/cache/plan_cache.h"
#include "pdms/core/pdms.h"
#include "pdms/exec/thread_pool.h"
#include "pdms/obs/metrics.h"
#include "pdms/obs/rolling.h"
#include "pdms/serve/access_log.h"
#include "pdms/serve/admission.h"
#include "pdms/serve/client_pool.h"
#include "pdms/serve/wire.h"
#include "pdms/util/timer.h"

namespace pdms {
namespace serve {

/// Tunables for the serving executor.
struct ExecutorOptions {
  /// Worker threads evaluating admitted requests, one request each at a
  /// time (also the parallelism the admission estimate assumes).
  size_t workers = 2;
  AdmissionOptions admission;
  /// Base reformulation options for every worker facade. Each facade is
  /// serial; parallelism comes from concurrent requests.
  ReformulationOptions query_options;
  /// Test/bench knob: a minimum service time per request, spent sleeping
  /// before evaluation. With a known floor the server's capacity is
  /// `workers * 1000 / floor` qps, which lets the overload test drive a
  /// deterministic 2x overload regardless of host speed. 0 disables.
  double service_floor_ms = 0;
  /// Federated stored relations: relation name -> the remote ppl_serverd
  /// endpoints that can serve it, as "host:port" or a '|'-separated
  /// replica list ("h1:p1|h2:p2"). A worker re-fetches each mapped
  /// relation (via a kScanRequest, forwarding the request's trace
  /// envelope) into its facade's database before evaluating, so answers
  /// reflect the remote peer's live data and the request's trace spans
  /// both processes. With several replicas the fetch is routed by observed
  /// cost: untried endpoints are probed first, after that the endpoint
  /// minimizing avg_ms * (1 + 9 * failure_rate) wins — the serving-side
  /// analogue of the simulator's CostEstimator. A failed fetch keeps the
  /// previously-fetched copy (and is counted in the per-endpoint health
  /// the stats frame reports). Scans go through a keep-alive ClientPool:
  /// connections are reused across requests, and a stale pooled socket
  /// costs one transparent reconnect instead of a failed fetch.
  std::map<std::string, std::string> remote_relations;
  /// Single-flight coalescing: while a request for some canonical query is
  /// being evaluated, identical untraced requests wait for its outcome
  /// instead of occupying admission slots and workers; each follower gets
  /// the leader's answer (or shed) stamped with its own request id.
  /// Traced requests never coalesce — they want their own span tree.
  /// Off by default because followers bypass per-request admission and
  /// shedding (a coalesced request can neither queue nor be shed);
  /// ppl_serverd turns it on.
  bool coalesce_identical = false;
  /// Windowed SLO stats fed per request (borrowed, nullable — null is
  /// the zero-overhead sink, like the registry).
  obs::RollingStats* rolling = nullptr;
  /// Structured per-request access log (borrowed, nullable).
  AccessLog* access_log = nullptr;
};

/// An admitted unit of work: one query frame plus the connection it came
/// from and the stopwatch started when the frame was read off the socket
/// (the deadline measures queueing + service, not just service).
struct ServeRequest {
  uint64_t conn_id = 0;
  uint64_t request_id = 0;
  std::string query;
  /// <= 0 means no deadline (wire convention).
  double budget_ms = 0;
  WallTimer arrival;
  /// The caller's trace context, when the query frame carried one; the
  /// worker assembles a server-side span tree and returns it in the
  /// answer's SpanBlock.
  std::optional<wire::TraceEnvelope> trace;
};

/// The outcome handed to the completion callback: exactly one of
/// `answer` (admitted and evaluated, possibly degraded/truncated) or
/// `shed` (deadline expired while the request sat in the queue).
struct ServeOutcome {
  uint64_t conn_id = 0;
  bool shed = false;
  wire::AnswerFrame answer;
  wire::ShedFrame shed_frame;
};

/// Evaluates admitted query requests on a FIFO pool of worker threads,
/// each owning a serial Pdms facade over the same network and data, all
/// sharing one thread-safe plan cache (the concurrent-serving
/// pattern, docs/parallel_execution.md). The executor owns admission
/// control: Submit either returns a ShedFrame immediately (queue full /
/// budget can't cover the expected wait) or schedules the request and
/// later fires the completion callback from a worker thread.
///
/// Deadline propagation (docs/serving.md): a request's remaining budget is
/// re-checked when a worker dequeues it — expiry while queued sheds it
/// without touching a facade or the network layer — and what is left
/// after dequeue becomes the facade's reformulation time budget, so
/// expiry mid-query yields a sound truncated answer instead of a missed
/// deadline.
class RequestExecutor {
 public:
  RequestExecutor(ExecutorOptions options, obs::MetricsRegistry* metrics);
  ~RequestExecutor();

  RequestExecutor(const RequestExecutor&) = delete;
  RequestExecutor& operator=(const RequestExecutor&) = delete;

  /// Builds the worker facades over copies of `network`/`data` and starts
  /// the pool. Must be called exactly once before Submit.
  Status Start(const PdmsNetwork& network, const Database& data,
               std::function<void(ServeOutcome)> done);

  /// Drains in-flight requests and joins the workers. Safe to call twice.
  void Stop();

  /// Offers a request. Returns the shed response when admission rejects
  /// it; nullopt when admitted, in which case `done` will eventually fire
  /// from a worker thread with this request's outcome.
  std::optional<wire::ShedFrame> Submit(ServeRequest request);

  AdmissionController* admission() { return &admission_; }
  cache::PlanCache* plan_cache() { return &plan_cache_; }
  const ExecutorOptions& options() const { return options_; }

  /// Milliseconds since executor construction — the clock the rolling
  /// stats are fed on (and snapshot against).
  double NowMs() const { return epoch_.ElapsedMillis(); }

  /// The executor-owned sections of the stats snapshot, as a JSON
  /// fragment (comma-separated `"key": value` pairs without braces):
  /// the rolling SLO window, admission state, and per-remote scan
  /// health. The server wraps this with its own sections into the
  /// kStatsResponse payload.
  std::string StatsJsonFragment() const;

 private:
  struct RemoteHealth {
    uint64_t scans = 0;
    uint64_t failures = 0;
    double total_ms = 0;
  };

  void RunOne(ServeRequest request, const std::string& sf_key);
  Pdms* PopFacade();
  void PushFacade(Pdms* facade);
  /// The canonical-query coalescing key of `request`, or "" when the
  /// request must not coalesce (traced, or unparseable query text —
  /// unparseable requests all share one error answer in principle, but
  /// keying them on raw text would conflate distinct parse errors).
  std::string SingleFlightKey(const ServeRequest& request) const;
  /// Delivers the leader's outcome to every follower queued under
  /// `sf_key` (stamped with the follower's ids) and retires the key.
  void ResolveFollowers(const std::string& sf_key, const ServeOutcome& leader);
  /// Re-fetches every mapped remote relation into `facade`'s database,
  /// recording per-endpoint health; spans land in `trace` when non-null.
  void FetchRemotes(Pdms* facade, obs::TraceContext* trace);
  /// Splits a '|'-separated replica list and picks the fetch endpoint by
  /// observed cost (see ExecutorOptions::remote_relations).
  std::string PickEndpoint(const std::string& endpoints) const;
  Status FetchOneRemote(const std::string& relation,
                        const std::string& endpoint, Pdms* facade,
                        obs::TraceContext* trace);
  void LogShed(const ServeRequest& request, const wire::ShedFrame& shed,
               double queue_ms);

  ExecutorOptions options_;
  obs::MetricsRegistry* metrics_;  // not owned; may be null
  AdmissionController admission_;
  cache::PlanCache plan_cache_;
  std::function<void(ServeOutcome)> done_;
  std::unique_ptr<exec::ThreadPool> pool_;

  std::mutex facades_mu_;
  std::vector<std::unique_ptr<Pdms>> facades_;  // all workers, for cleanup
  std::vector<Pdms*> free_facades_;             // currently unclaimed

  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  size_t in_flight_ = 0;
  bool started_ = false;
  bool stopped_ = false;

  /// Single-flight state: a key is present while its leader runs; the
  /// value holds the followers waiting on that leader's outcome.
  mutable std::mutex sf_mu_;
  std::map<std::string, std::vector<ServeRequest>> sf_inflight_;
  uint64_t sf_coalesced_ = 0;  // lifetime total, for the stats frame

  WallTimer epoch_;  // the rolling-stats clock, started at construction
  mutable std::mutex remotes_mu_;
  std::map<std::string, RemoteHealth> remote_health_;
  /// Keep-alive connections to federated peers, shared by all workers
  /// (the pool hands each worker an exclusive lease per scan).
  ClientPool client_pool_;
};

/// Builds the wire answer for one evaluated request. Exposed for tests:
/// the loopback smoke test asserts the server's frames decode to exactly
/// what this produces in-process.
wire::AnswerFrame MakeAnswerFrame(uint64_t request_id,
                                  const Result<AnswerResult>& result,
                                  double server_ms);

}  // namespace serve
}  // namespace pdms

#endif  // PDMS_SERVE_EXECUTOR_H_
