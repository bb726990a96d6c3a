#include "pdms/serve/executor.h"

#include <chrono>
#include <cstdlib>
#include <limits>
#include <thread>
#include <utility>

#include "pdms/core/query_pipeline.h"
#include "pdms/lang/canonical.h"
#include "pdms/lang/parser.h"
#include "pdms/serve/client.h"
#include "pdms/util/strings.h"

namespace pdms {
namespace serve {
namespace {

ExecutorOptions AtLeastOneWorker(ExecutorOptions options) {
  if (options.workers == 0) options.workers = 1;
  return options;
}

// Parses the request's text unless that was done already, and computes its
// canonical key when `want_key` and it is not known yet: each at most
// once per request.
void ParseOnce(ServeRequest* request, bool want_key) {
  if (!request->parsed.has_value()) {
    request->parsed = ParseRuleText(request->query);
  }
  if (want_key && request->key.empty() && request->parsed->ok()) {
    request->key = CanonicalQueryKey(**request->parsed);
  }
}

ServeOutcome ShedOutcome(const ServeRequest& request, wire::ShedReason reason,
                         double retry_after_ms, size_t queue_depth,
                         const char* message) {
  ServeOutcome out;
  out.conn_id = request.conn_id;
  out.shed = true;
  out.shed_frame.request_id = request.request_id;
  out.shed_frame.reason = reason;
  out.shed_frame.retry_after_ms = retry_after_ms;
  out.shed_frame.queue_depth = static_cast<uint32_t>(queue_depth);
  out.shed_frame.message = message;
  return out;
}

double RemainingBudgetMs(const ServeRequest& request) {
  if (request.budget_ms <= 0) {
    return std::numeric_limits<double>::infinity();
  }
  return Deadline::AfterMillis(request.budget_ms)
      .RemainingMillis(request.arrival.ElapsedMillis());
}

obs::RollingStats::Shed ToRollingShed(wire::ShedReason reason) {
  return reason == wire::ShedReason::kQueueFull
             ? obs::RollingStats::Shed::kQueueFull
             : obs::RollingStats::Shed::kDeadline;
}

}  // namespace

wire::AnswerFrame MakeAnswerFrame(uint64_t request_id,
                                  const Result<AnswerResult>& result,
                                  double server_ms) {
  wire::AnswerFrame a;
  a.request_id = request_id;
  a.server_ms = server_ms;
  if (!result.ok()) {
    a.status_code = static_cast<uint32_t>(result.status().code());
    a.status_message = result.status().message();
    a.relation_name = "q";
    return a;
  }
  const AnswerResult& r = *result;
  a.completeness = static_cast<uint8_t>(r.degradation.completeness);
  if (r.stats.tree_truncated) a.truncated |= wire::AnswerFrame::kTruncatedTree;
  if (r.stats.enumeration_truncated) {
    a.truncated |= wire::AnswerFrame::kTruncatedEnumeration;
  }
  a.rewritings_skipped = r.degradation.rewritings_skipped;
  a.branches_pruned = r.degradation.branches_pruned;
  a.excluded_peers = r.degradation.excluded_peers;
  a.excluded_stored = r.degradation.excluded_stored;
  a.relation_name = r.answers.name();
  a.arity = static_cast<uint32_t>(r.answers.arity());
  a.tuples = r.answers.tuples();
  return a;
}

RequestExecutor::RequestExecutor(ExecutorOptions options,
                                 obs::MetricsRegistry* metrics)
    : options_(AtLeastOneWorker(std::move(options))),
      metrics_(metrics),
      admission_(options_.admission, options_.workers, metrics),
      client_pool_(ClientPool::Options{}, metrics) {}

RequestExecutor::~RequestExecutor() { Stop(); }

Status RequestExecutor::Start(const PdmsNetwork& network, const Database& data,
                              std::function<void(ServeOutcome)> done) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) {
      return Status::FailedPrecondition("executor already started");
    }
    started_ = true;
  }
  done_ = std::move(done);
  // One serial facade per worker, all sharing the thread-safe caches.
  // Once its worker starts, facade i is touched by worker i alone.
  for (size_t i = 0; i < options_.workers; ++i) {
    auto facade = std::make_unique<Pdms>(options_.query_options);
    *facade->mutable_network() = network;
    *facade->mutable_database() = data;
    facade->set_plan_cache(&plan_cache_);
    facade->set_metrics(metrics_);
    workers_.emplace_back([this, f = facade.get()] { Work(f); });
    facades_.push_back(std::move(facade));
  }
  return Status::Ok();
}

void RequestExecutor::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void RequestExecutor::Work(Pdms* facade) {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
    // Stop ends a worker only once the queue is empty, so every admitted
    // request runs.
    if (queue_.empty()) return;
    ServeRequest request = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    RunOne(facade, std::move(request));
    lock.lock();
  }
}

bool RequestExecutor::Coalesces(const ServeRequest& request) const {
  return options_.coalesce_identical && !request.trace.has_value();
}

std::optional<wire::ShedFrame> RequestExecutor::Submit(ServeRequest request) {
  bool accepting;
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting = started_ && !stopped_;
  }
  if (!accepting) {
    ServeOutcome out = ShedOutcome(
        request, wire::ShedReason::kQueueFull,
        admission_.options().retry_after_floor_ms, 0, "server shutting down");
    Record(request, out, 0, 0, false);
    return std::move(out.shed_frame);
  }
  // Single-flight: identical untraced queries ride the in-flight leader
  // instead of taking admission slots and workers. The key is claimed
  // before the admission offer so two concurrent identical requests can
  // never both become leaders; a shed leader resolves (sheds) whatever
  // followers raced in behind it.
  if (Coalesces(request)) {
    ParseOnce(&request, /*want_key=*/true);
    if (!request.key.empty()) {
      std::lock_guard<std::mutex> lock(sf_mu_);
      auto it = sf_inflight_.find(request.key);
      if (it != sf_inflight_.end()) {
        it->second.push_back(std::move(request));
        ++sf_coalesced_;
        if (metrics_) metrics_->Add("serve.coalesced");
        return std::nullopt;  // resolved when the leader completes
      }
      sf_inflight_.emplace(request.key, std::vector<ServeRequest>{});
    }
  }
  AdmissionController::Decision decision =
      admission_.Offer(RemainingBudgetMs(request));
  if (!decision.admitted) {
    ServeOutcome out = ShedOutcome(
        request, decision.reason, decision.retry_after_ms,
        decision.queue_depth,
        decision.reason == wire::ShedReason::kQueueFull
            ? "admission queue full"
            : "remaining budget below expected wait");
    Record(request, out, 0, 0, false);
    ResolveFollowers(request, out);
    return std::move(out.shed_frame);
  }
  if (options_.rolling != nullptr) {
    options_.rolling->RecordQueueDepth(NowMs(), decision.queue_depth);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(request));
  }
  cv_.notify_one();
  return std::nullopt;
}

void RequestExecutor::ResolveFollowers(const ServeRequest& leader,
                                       const ServeOutcome& out) {
  if (!Coalesces(leader) || leader.key.empty()) return;
  std::vector<ServeRequest> followers;
  {
    std::lock_guard<std::mutex> lock(sf_mu_);
    auto it = sf_inflight_.find(leader.key);
    if (it == sf_inflight_.end()) return;
    followers = std::move(it->second);
    sf_inflight_.erase(it);
  }
  for (ServeRequest& f : followers) {
    ServeOutcome copy = out;
    copy.conn_id = f.conn_id;
    copy.shed_frame.request_id = f.request_id;
    copy.answer.request_id = f.request_id;
    copy.answer.spans.reset();  // the span tree belongs to the leader
    // A follower waits on the leader the whole time; a coalesced answer
    // is the ultimate cache hit: zero evaluation.
    Record(f, copy, f.arrival.ElapsedMillis(), 0, /*cache_hit=*/!copy.shed);
    done_(std::move(copy));
  }
}

void RequestExecutor::Finish(const ServeRequest& request, ServeOutcome out,
                             double queue_ms, double exec_ms,
                             bool cache_hit) {
  Record(request, out, queue_ms, exec_ms, cache_hit);
  ResolveFollowers(request, out);
  done_(std::move(out));
}

void RequestExecutor::RunOne(Pdms* facade, ServeRequest request) {
  WallTimer service;
  const double queue_ms = request.arrival.ElapsedMillis();

  const Deadline deadline = request.budget_ms > 0
                                ? Deadline::AfterMillis(request.budget_ms)
                                : Deadline::Infinite();
  // Dequeue-time re-check: a budget that ran out while the request sat in
  // the queue sheds it here, before the facade (and thus any stored-
  // relation access) is touched.
  if (deadline.Expired(queue_ms)) {
    admission_.CancelQueued();
    if (metrics_) metrics_->Add("serve.shed_after_queue");
    Finish(request,
           ShedOutcome(request, wire::ShedReason::kDeadline,
                       admission_.RetryAfterMs(), admission_.queue_depth(),
                       "budget expired while queued"),
           queue_ms, 0, false);
    return;
  }

  if (options_.service_floor_ms > 0) {
    // The deterministic-capacity knob: pad every request to a known
    // service time so tests can compute the overload point exactly.
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options_.service_floor_ms));
  }

  // Server-side trace assembly. The request's envelope roots a combined
  // context whose clock every piece shares: the federation fetches and
  // the facade's query each record into their own Fork (the facade
  // clears its context at query entry, which must not wipe the fetch
  // spans) and are grafted under one "serve" root. The whole tree rides
  // back in the answer's SpanBlock for the client to import.
  const bool traced = request.trace.has_value();
  obs::TraceContext combined(traced ? request.trace->trace_id : "query");
  obs::SpanId root = obs::kNoSpan;
  if (traced) {
    root = combined.StartSpan("serve");
    combined.SetAttribute(root, "request_id", request.request_id);
    combined.SetAttribute(root, "queue_ms", queue_ms);
  }

  if (!options_.remote_relations.empty()) {
    obs::TraceContext fetch_ctx = combined.Fork();
    FetchRemotes(facade, traced ? &fetch_ctx : nullptr);
    if (traced) combined.MergeChild(root, std::move(fetch_ctx));
  }

  // Whatever budget survives queueing becomes the reformulation time
  // budget, so mid-query expiry degrades to a sound truncated answer.
  ReformulationOptions opts = options_.query_options;
  if (!deadline.infinite()) {
    double remaining = deadline.RemainingMillis(request.arrival.ElapsedMillis());
    opts.time_budget_ms = remaining > 0 ? remaining : 0.001;
  }
  facade->set_options(opts);
  obs::TraceContext query_ctx = combined.Fork();
  if (traced) facade->set_trace(&query_ctx);
  ParseOnce(&request, /*want_key=*/options_.access_log != nullptr);
  const Result<ConjunctiveQuery>& parsed = *request.parsed;
  Status checked = parsed.ok()
                       ? CheckNetworkQuery(facade->network(), *parsed)
                       : parsed.status();
  Result<AnswerResult> result =
      checked.ok() ? facade->AnswerWithReport(*parsed)
                   : Result<AnswerResult>(std::move(checked));
  if (traced) {
    facade->set_trace(nullptr);
    combined.MergeChild(root, std::move(query_ctx));
  }

  const double service_ms = service.ElapsedMillis();
  ServeOutcome out;
  out.conn_id = request.conn_id;
  out.answer = MakeAnswerFrame(request.request_id, result, service_ms);
  if (traced) {
    combined.EndSpan(root);
    wire::SpanBlock block;
    block.trace_id = combined.trace_id();
    block.spans = combined.spans();
    out.answer.spans = std::move(block);
  }
  if (metrics_) {
    metrics_->Add("serve.completed");
    metrics_->Observe("serve.service_ms", service_ms);
    if (out.answer.truncated != 0) metrics_->Add("serve.truncated_answers");
  }
  admission_.OnComplete(service_ms);
  if (options_.rolling != nullptr) {
    options_.rolling->RecordQueueDepth(NowMs(), admission_.queue_depth());
  }
  Finish(request, std::move(out), queue_ms, service_ms,
         result.ok() && result->plan_cache_hit);
}

void RequestExecutor::Record(const ServeRequest& request,
                             const ServeOutcome& out, double queue_ms,
                             double exec_ms, bool cache_hit) {
  const double total_ms = request.arrival.ElapsedMillis();
  if (options_.rolling != nullptr) {
    if (out.shed) {
      options_.rolling->RecordShed(NowMs(),
                                   ToRollingShed(out.shed_frame.reason));
    } else {
      options_.rolling->RecordAnswer(NowMs(), total_ms, cache_hit,
                                     out.answer.completeness,
                                     out.answer.truncated != 0);
    }
  }
  if (options_.access_log == nullptr) return;
  AccessEntry entry;
  entry.ts_ms = AccessLog::WallMs();
  entry.conn_id = request.conn_id;
  entry.request_id = request.request_id;
  entry.query = request.key.empty() ? request.query : request.key;
  entry.deadline_ms = request.budget_ms;
  entry.queue_ms = queue_ms;
  entry.exec_ms = exec_ms;
  entry.total_ms = total_ms;
  if (out.shed) {
    entry.shed = wire::ShedReasonName(out.shed_frame.reason);
  } else {
    entry.cache_hit = cache_hit;
    entry.verdict = out.answer.status_code == 0
                        ? static_cast<int>(out.answer.completeness)
                        : -1;
  }
  if (request.trace.has_value()) entry.trace_id = request.trace->trace_id;
  options_.access_log->Append(entry);
}

std::string RequestExecutor::PickEndpoint(const std::string& endpoints) const {
  std::vector<std::string> replicas = StrSplit(endpoints, '|');
  if (replicas.size() <= 1) return endpoints;
  std::lock_guard<std::mutex> lock(remotes_mu_);
  std::string best;
  double best_cost = 0;
  for (const std::string& endpoint : replicas) {
    auto it = remote_health_.find(endpoint);
    if (it == remote_health_.end() || it->second.scans == 0) {
      return endpoint;  // untried replicas are probed before any ranking
    }
    const RemoteHealth& health = it->second;
    const uint64_t successes = health.scans - health.failures;
    const double fail_rate = static_cast<double>(health.failures) /
                             static_cast<double>(health.scans);
    // Failure-inflated average latency of the successful scans: a replica
    // failing nine scans in ten costs 9.1x its average. A failed scan says
    // nothing about scan cost (a refused connection returns at once), so
    // a replica that has only failed ranks after every one that has
    // succeeded.
    const double cost =
        successes == 0
            ? std::numeric_limits<double>::infinity()
            : health.ok_ms / static_cast<double>(successes) *
                  (1.0 + 9.0 * fail_rate);
    if (best.empty() || cost < best_cost) {
      best = endpoint;
      best_cost = cost;
    }
  }
  return best;
}

void RequestExecutor::FetchRemotes(Pdms* facade, obs::TraceContext* trace) {
  for (const auto& [relation, endpoints] : options_.remote_relations) {
    const std::string endpoint = PickEndpoint(endpoints);
    WallTimer fetch;
    Status status = FetchOneRemote(relation, endpoint, facade, trace);
    const double fetch_ms = fetch.ElapsedMillis();
    if (metrics_) {
      metrics_->Add(status.ok() ? "serve.remote_scans"
                                : "serve.remote_scan_failures");
      metrics_->Observe("serve.remote_scan_ms", fetch_ms);
    }
    std::lock_guard<std::mutex> lock(remotes_mu_);
    RemoteHealth& health = remote_health_[endpoint];
    ++health.scans;
    health.total_ms += fetch_ms;
    if (status.ok()) {
      health.ok_ms += fetch_ms;
    } else {
      ++health.failures;
    }
  }
}

Status RequestExecutor::FetchOneRemote(const std::string& relation,
                                       const std::string& endpoint,
                                       Pdms* facade,
                                       obs::TraceContext* trace) {
  obs::ScopedSpan span(trace, "remote_fetch");
  span.Set("relation", relation);
  span.Set("endpoint", endpoint);
  bool reconnected = false;
  Result<sim::Message> response =
      client_pool_.ScanRelation(endpoint, relation, trace, &reconnected);
  if (reconnected) span.Set("reconnected", uint64_t{1});
  if (!response.ok()) {
    span.Set("error", response.status().message());
    return response.status();
  }
  if (!response->status.ok()) {
    span.Set("error", response->status.message());
    return response->status;
  }
  Database* db = facade->mutable_database();
  Relation* existing = db->FindMutable(relation);
  if (existing != nullptr && existing->arity() == response->arity) {
    existing->Clear();
    for (const Tuple& tuple : response->tuples) existing->Insert(tuple);
  } else {
    // Unknown (or re-declared) relation: insert creates it fresh. An
    // arity change mid-flight is a remote schema change; the stale copy
    // is unreachable through the (re-validated) catalog anyway.
    for (const Tuple& tuple : response->tuples) db->Insert(relation, tuple);
  }
  span.Set("tuples", static_cast<uint64_t>(response->tuples.size()));
  return Status::Ok();
}

std::string RequestExecutor::StatsJsonFragment() const {
  std::string out = "\"rolling\": ";
  if (options_.rolling != nullptr) {
    out += options_.rolling->GetSnapshot(NowMs()).ToJson();
  } else {
    out += "null";
  }
  out += StrFormat(
      ", \"admission\": {\"queue_depth\": %zu, \"ewma_service_ms\": %.10g, "
      "\"max_queue\": %zu, \"workers\": %zu}",
      admission_.queue_depth(), admission_.ewma_service_ms(),
      admission_.options().max_queue, options_.workers);
  out += ", \"remotes\": {";
  {
    std::lock_guard<std::mutex> lock(remotes_mu_);
    bool first = true;
    for (const auto& [endpoint, health] : remote_health_) {
      if (!first) out += ", ";
      first = false;
      out += StrFormat(
          "\"%s\": {\"scans\": %llu, \"failures\": %llu, "
          "\"total_ms\": %.10g}",
          endpoint.c_str(), static_cast<unsigned long long>(health.scans),
          static_cast<unsigned long long>(health.failures), health.total_ms);
    }
  }
  out += "}";
  out += StrFormat(
      ", \"client_pool\": {\"dials\": %llu, \"reuses\": %llu, "
      "\"discards\": %llu, \"idle\": %zu}",
      static_cast<unsigned long long>(client_pool_.dials()),
      static_cast<unsigned long long>(client_pool_.reuses()),
      static_cast<unsigned long long>(client_pool_.discards()),
      client_pool_.idle_count());
  {
    std::lock_guard<std::mutex> lock(sf_mu_);
    out += StrFormat(
        ", \"single_flight\": {\"inflight\": %zu, \"coalesced\": %llu}",
        sf_inflight_.size(), static_cast<unsigned long long>(sf_coalesced_));
  }
  return out;
}

}  // namespace serve
}  // namespace pdms
