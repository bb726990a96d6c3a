#ifndef PDMS_SERVE_EXECUTOR_H_
#define PDMS_SERVE_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "pdms/cache/plan_cache.h"
#include "pdms/core/pdms.h"
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
  /// time (also the parallelism the admission estimate assumes). 0 means 1.
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
  /// minimizing ok_avg_ms * (1 + 9 * failure_rate) wins, where ok_avg_ms
  /// averages the successful scans only — the serving-side analogue of
  /// the simulator's CostEstimator. A replica that has only failed has no
  /// scan cost (a refused connection returns fast) and ranks after every
  /// replica that has succeeded. A failed fetch keeps the
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
  /// `query` parsed, at most once per request: by Submit when the request
  /// may coalesce (its key is needed before admission), else by the
  /// worker. nullopt until then.
  std::optional<Result<ConjunctiveQuery>> parsed;
  /// CanonicalQueryKey of `parsed`, computed at most once and only when
  /// needed: the single-flight key, and the access log's `query` field.
  /// Empty until then, or when the text does not parse.
  std::string key;
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

/// Evaluates admitted query requests on its own worker threads, which
/// take them from one FIFO queue. Worker i owns serial Pdms facade i over
/// the same network and data, and all facades share one thread-safe plan
/// cache (the concurrent-serving pattern, docs/parallel_execution.md).
/// One mutex and condition variable guard the queue and the lifecycle;
/// Stop lets the workers drain the queue before they exit, so every
/// admitted request is answered. The executor owns admission
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
  /// one worker thread per facade. Must be called exactly once before
  /// Submit.
  Status Start(const PdmsNetwork& network, const Database& data,
               std::function<void(ServeOutcome)> done);

  /// Runs every queued request, then joins the workers. Safe to call
  /// twice; must not run concurrently with Submit.
  void Stop();

  /// Offers a request. Returns the shed response when admission rejects
  /// it; nullopt when admitted, in which case `done` will eventually fire
  /// from a worker thread with this request's outcome. Called from one
  /// thread (the server's network loop).
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
    double ok_ms = 0;  // the successful scans' share of total_ms
  };

  /// Worker loop: takes the oldest queued request until Stop finds the
  /// queue empty. `facade` is this worker's own.
  void Work(Pdms* facade);
  void RunOne(Pdms* facade, ServeRequest request);
  /// Whether `request` takes part in single-flight coalescing: untraced
  /// (a traced request wants its own span tree) with coalescing on. Such
  /// a request's key is computed in Submit; a text that does not parse
  /// leaves it empty and the request runs alone (keying on raw text would
  /// conflate distinct parse errors).
  bool Coalesces(const ServeRequest& request) const;
  /// Records `out`, hands it to every follower of `request`, then to the
  /// completion callback.
  void Finish(const ServeRequest& request, ServeOutcome out,
              double queue_ms, double exec_ms, bool cache_hit);
  /// Delivers the leader's outcome to every follower queued under
  /// `leader`'s key (stamped with the follower's ids) and retires the key.
  void ResolveFollowers(const ServeRequest& leader, const ServeOutcome& out);
  /// The one place an outcome is recorded — answered, coalesced, shed at
  /// offer, shed at dequeue: its rolling-stats record and its access-log
  /// entry.
  void Record(const ServeRequest& request, const ServeOutcome& out,
              double queue_ms, double exec_ms, bool cache_hit);
  /// Re-fetches every mapped remote relation into `facade`'s database,
  /// recording per-endpoint health; spans land in `trace` when non-null.
  void FetchRemotes(Pdms* facade, obs::TraceContext* trace);
  /// Splits a '|'-separated replica list and picks the fetch endpoint by
  /// observed cost (see ExecutorOptions::remote_relations).
  std::string PickEndpoint(const std::string& endpoints) const;
  Status FetchOneRemote(const std::string& relation,
                        const std::string& endpoint, Pdms* facade,
                        obs::TraceContext* trace);

  ExecutorOptions options_;
  obs::MetricsRegistry* metrics_;  // not owned; may be null
  AdmissionController admission_;
  cache::PlanCache plan_cache_;
  std::function<void(ServeOutcome)> done_;
  std::vector<std::unique_ptr<Pdms>> facades_;  // facade i is worker i's

  /// Guards the request queue and the lifecycle flags; `cv_` wakes the
  /// workers for a queued request or for Stop.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<ServeRequest> queue_;
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
  /// Last: the workers use every member above, and Stop (run by the
  /// destructor) joins them before any of those is destroyed.
  std::vector<std::thread> workers_;
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
