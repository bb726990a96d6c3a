#include "pdms/serve/executor.h"

#include <chrono>
#include <cstdlib>
#include <limits>
#include <thread>
#include <utility>

#include "pdms/lang/canonical.h"
#include "pdms/lang/parser.h"
#include "pdms/serve/client.h"
#include "pdms/util/check.h"
#include "pdms/util/strings.h"

namespace pdms {
namespace serve {
namespace {

AdmissionOptions WithWorkers(AdmissionOptions admission, size_t workers) {
  admission.workers = workers > 0 ? workers : 1;
  return admission;
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
    : options_(options),
      metrics_(metrics),
      admission_(WithWorkers(options.admission,
                             options.workers > 0 ? options.workers : 1),
                 metrics),
      client_pool_(ClientPool::Options{}, metrics) {
  if (options_.workers == 0) options_.workers = 1;
}

RequestExecutor::~RequestExecutor() { Stop(); }

Status RequestExecutor::Start(const PdmsNetwork& network, const Database& data,
                              std::function<void(ServeOutcome)> done) {
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (started_) {
      return Status::FailedPrecondition("executor already started");
    }
    started_ = true;
  }
  done_ = std::move(done);
  // One serial facade per worker, all sharing the thread-safe caches; a
  // worker claims a free facade for the duration of one request, so the
  // facades themselves never see concurrent use.
  for (size_t i = 0; i < options_.workers; ++i) {
    auto facade = std::make_unique<Pdms>(options_.query_options);
    *facade->mutable_network() = network;
    *facade->mutable_database() = data;
    facade->set_plan_cache(&plan_cache_);
    facade->set_metrics(metrics_);
    free_facades_.push_back(facade.get());
    facades_.push_back(std::move(facade));
  }
  pool_ = std::make_unique<exec::ThreadPool>(options_.workers);
  return Status::Ok();
}

void RequestExecutor::Stop() {
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    if (!started_ || stopped_) {
      stopped_ = true;
      return;
    }
    stopped_ = true;
    drain_cv_.wait(lock, [this] { return in_flight_ == 0; });
  }
  pool_.reset();  // joins the workers; every submitted task has run
}

std::optional<wire::ShedFrame> RequestExecutor::Submit(ServeRequest request) {
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (!started_ || stopped_) {
      wire::ShedFrame shed;
      shed.request_id = request.request_id;
      shed.reason = wire::ShedReason::kQueueFull;
      shed.retry_after_ms = admission_.options().retry_after_floor_ms;
      shed.message = "server shutting down";
      LogShed(request, shed, 0);
      return shed;
    }
  }
  // Single-flight: identical untraced queries ride the in-flight leader
  // instead of taking admission slots and workers. The key is claimed
  // before the admission offer so two concurrent identical requests can
  // never both become leaders; a shed leader resolves (sheds) whatever
  // followers raced in behind it.
  const std::string sf_key = SingleFlightKey(request);
  if (!sf_key.empty()) {
    std::lock_guard<std::mutex> lock(sf_mu_);
    auto it = sf_inflight_.find(sf_key);
    if (it != sf_inflight_.end()) {
      it->second.push_back(std::move(request));
      ++sf_coalesced_;
      if (metrics_) metrics_->Add("serve.coalesced");
      return std::nullopt;  // resolved when the leader completes
    }
    sf_inflight_.emplace(sf_key, std::vector<ServeRequest>{});
  }
  AdmissionController::Decision decision =
      admission_.Offer(RemainingBudgetMs(request));
  if (!decision.admitted) {
    wire::ShedFrame shed;
    shed.request_id = request.request_id;
    shed.reason = decision.reason;
    shed.retry_after_ms = decision.retry_after_ms;
    shed.queue_depth = decision.queue_depth;
    shed.message = decision.reason == wire::ShedReason::kQueueFull
                       ? "admission queue full"
                       : "remaining budget below expected wait";
    if (options_.rolling != nullptr) {
      options_.rolling->RecordShed(NowMs(), ToRollingShed(decision.reason));
    }
    LogShed(request, shed, 0);
    if (!sf_key.empty()) {
      ServeOutcome leader;
      leader.shed = true;
      leader.shed_frame = shed;
      ResolveFollowers(sf_key, leader);
    }
    return shed;
  }
  if (options_.rolling != nullptr) {
    options_.rolling->RecordQueueDepth(NowMs(), decision.queue_depth);
  }
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++in_flight_;
  }
  pool_->Submit([this, sf_key, request = std::move(request)]() mutable {
    RunOne(std::move(request), sf_key);
  });
  return std::nullopt;
}

std::string RequestExecutor::SingleFlightKey(
    const ServeRequest& request) const {
  if (!options_.coalesce_identical) return "";
  if (request.trace.has_value()) return "";  // wants its own span tree
  Result<ConjunctiveQuery> parsed = ParseRuleText(request.query);
  if (!parsed.ok()) return "";
  return CanonicalQueryKey(*parsed);
}

void RequestExecutor::ResolveFollowers(const std::string& sf_key,
                                       const ServeOutcome& leader) {
  if (sf_key.empty()) return;
  std::vector<ServeRequest> followers;
  {
    std::lock_guard<std::mutex> lock(sf_mu_);
    auto it = sf_inflight_.find(sf_key);
    if (it == sf_inflight_.end()) return;
    followers = std::move(it->second);
    sf_inflight_.erase(it);
  }
  for (ServeRequest& f : followers) {
    ServeOutcome out;
    out.conn_id = f.conn_id;
    out.shed = leader.shed;
    if (leader.shed) {
      out.shed_frame = leader.shed_frame;
      out.shed_frame.request_id = f.request_id;
      if (options_.rolling != nullptr) {
        options_.rolling->RecordShed(NowMs(),
                                     ToRollingShed(out.shed_frame.reason));
      }
      LogShed(f, out.shed_frame, f.arrival.ElapsedMillis());
    } else {
      out.answer = leader.answer;
      out.answer.request_id = f.request_id;
      out.answer.spans.reset();  // the span tree belongs to the leader
      const double total_ms = f.arrival.ElapsedMillis();
      if (options_.rolling != nullptr) {
        // A coalesced answer is the ultimate cache hit: zero evaluation.
        options_.rolling->RecordAnswer(NowMs(), total_ms, /*cache_hit=*/true,
                                       out.answer.completeness,
                                       out.answer.truncated != 0);
      }
      if (options_.access_log != nullptr) {
        AccessEntry entry;
        entry.ts_ms = AccessLog::WallMs();
        entry.conn_id = f.conn_id;
        entry.request_id = f.request_id;
        entry.query = sf_key;
        entry.deadline_ms = f.budget_ms;
        entry.queue_ms = total_ms;  // spent entirely waiting on the leader
        entry.total_ms = total_ms;
        entry.cache_hit = true;
        entry.verdict = out.answer.status_code == 0
                            ? static_cast<int>(out.answer.completeness)
                            : -1;
        options_.access_log->Append(entry);
      }
    }
    done_(std::move(out));
  }
}

Pdms* RequestExecutor::PopFacade() {
  std::lock_guard<std::mutex> lock(facades_mu_);
  PDMS_CHECK_MSG(!free_facades_.empty(),
                 "more concurrent requests than worker facades");
  Pdms* facade = free_facades_.back();
  free_facades_.pop_back();
  return facade;
}

void RequestExecutor::PushFacade(Pdms* facade) {
  std::lock_guard<std::mutex> lock(facades_mu_);
  free_facades_.push_back(facade);
}

void RequestExecutor::RunOne(ServeRequest request, const std::string& sf_key) {
  WallTimer service;
  const double queue_ms = request.arrival.ElapsedMillis();
  ServeOutcome out;
  out.conn_id = request.conn_id;

  const Deadline deadline = request.budget_ms > 0
                                ? Deadline::AfterMillis(request.budget_ms)
                                : Deadline::Infinite();
  // Dequeue-time re-check: a budget that ran out while the request sat in
  // the queue sheds it here, before any facade (and thus any stored-
  // relation access) is touched.
  if (deadline.Expired(request.arrival.ElapsedMillis())) {
    admission_.CancelQueued();
    out.shed = true;
    out.shed_frame.request_id = request.request_id;
    out.shed_frame.reason = wire::ShedReason::kDeadline;
    out.shed_frame.retry_after_ms = admission_.RetryAfterMs();
    out.shed_frame.queue_depth =
        static_cast<uint32_t>(admission_.queue_depth());
    out.shed_frame.message = "budget expired while queued";
    if (metrics_) metrics_->Add("serve.shed_after_queue");
    if (options_.rolling != nullptr) {
      options_.rolling->RecordShed(NowMs(),
                                   obs::RollingStats::Shed::kDeadline);
    }
    LogShed(request, out.shed_frame, queue_ms);
    ResolveFollowers(sf_key, out);
    done_(std::move(out));
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (--in_flight_ == 0) drain_cv_.notify_all();
    return;
  }

  if (options_.service_floor_ms > 0) {
    // The deterministic-capacity knob: pad every request to a known
    // service time so tests can compute the overload point exactly.
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options_.service_floor_ms));
  }

  Pdms* facade = PopFacade();

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
  Result<AnswerResult> result = facade->AnswerWithReport(request.query);
  if (traced) {
    facade->set_trace(nullptr);
    combined.MergeChild(root, std::move(query_ctx));
  }
  std::string canonical = request.query;
  if (options_.access_log != nullptr) {
    Result<ConjunctiveQuery> parsed = facade->ParseQuery(request.query);
    if (parsed.ok()) canonical = CanonicalQueryKey(*parsed);
  }
  PushFacade(facade);

  const double service_ms = service.ElapsedMillis();
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

  const double total_ms = request.arrival.ElapsedMillis();
  const bool cache_hit = result.ok() && result->plan_cache_hit;
  const int verdict =
      result.ok() ? static_cast<int>(result->degradation.completeness) : -1;
  if (options_.rolling != nullptr) {
    options_.rolling->RecordAnswer(NowMs(), total_ms, cache_hit,
                                   verdict < 0 ? 0 : verdict,
                                   out.answer.truncated != 0);
    options_.rolling->RecordQueueDepth(NowMs(), admission_.queue_depth());
  }
  if (options_.access_log != nullptr) {
    AccessEntry entry;
    entry.ts_ms = AccessLog::WallMs();
    entry.conn_id = request.conn_id;
    entry.request_id = request.request_id;
    entry.query = canonical;
    entry.deadline_ms = request.budget_ms;
    entry.queue_ms = queue_ms;
    entry.exec_ms = service_ms;
    entry.total_ms = total_ms;
    entry.cache_hit = cache_hit;
    entry.verdict = verdict;
    if (traced) entry.trace_id = request.trace->trace_id;
    options_.access_log->Append(entry);
  }

  ResolveFollowers(sf_key, out);
  done_(std::move(out));
  std::lock_guard<std::mutex> lock(drain_mu_);
  if (--in_flight_ == 0) drain_cv_.notify_all();
}

void RequestExecutor::LogShed(const ServeRequest& request,
                              const wire::ShedFrame& shed, double queue_ms) {
  if (options_.access_log == nullptr) return;
  AccessEntry entry;
  entry.ts_ms = AccessLog::WallMs();
  entry.conn_id = request.conn_id;
  entry.request_id = request.request_id;
  entry.query = request.query;  // raw: no facade in hand on the shed path
  entry.deadline_ms = request.budget_ms;
  entry.queue_ms = queue_ms;
  entry.total_ms = request.arrival.ElapsedMillis();
  entry.shed = wire::ShedReasonName(shed.reason);
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
    const double avg_ms =
        health.total_ms / static_cast<double>(health.scans);
    const double fail_rate = static_cast<double>(health.failures) /
                             static_cast<double>(health.scans);
    // Failure-inflated average latency: a replica failing every scan
    // costs 10x its average, so a healthy slower replica beats it.
    const double cost = avg_ms * (1.0 + 9.0 * fail_rate);
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
    if (!status.ok()) ++health.failures;
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
