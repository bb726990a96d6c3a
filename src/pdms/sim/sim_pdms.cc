#include "pdms/sim/sim_pdms.h"

#include <algorithm>
#include <map>
#include <memory>

#include "pdms/core/query_pipeline.h"
#include "pdms/sim/event_loop.h"
#include "pdms/sim/peer_node.h"
#include "pdms/util/strings.h"

namespace pdms {
namespace sim {

namespace {

/// A relay batch gets `request_timeout_ms * kRelayTimeoutFactor` before the
/// coordinator falls back to unicast for its unresolved relations.
constexpr double kRelayTimeoutFactor = 2.5;

/// One in-flight stored-relation fetch at the coordinator.
struct Fetch {
  std::string owner;
  size_t arity = 0;
  size_t attempts = 0;          // requests transmitted so far
  uint64_t last_request_id = 0;  // timeout events for older ids are stale
  double sent_at_ms = 0;        // virtual send time of the latest attempt
  bool resolved = false;
  Status status = Status::Ok();
  std::vector<Tuple> tuples;
};

/// Restores the trace clock to wall time when the query leaves the
/// simulated timeline, whatever the exit path.
struct TraceClockGuard {
  obs::TraceContext* ctx;
  ~TraceClockGuard() {
    if (ctx != nullptr) ctx->set_now_fn({});
  }
};

}  // namespace

SimPdms::SimPdms(const PdmsNetwork& network, const Database& data,
                 SimOptions options)
    : network_(network), data_(data), options_(options) {
  reformulator_ =
      std::make_unique<Reformulator>(network_, options_.reform);
}

void SimPdms::Partition(const std::string& a, const std::string& b) {
  partitions_.insert(std::minmax(a, b));
}

void SimPdms::Heal(const std::string& a, const std::string& b) {
  partitions_.erase(std::minmax(a, b));
}

void SimPdms::HealAll() { partitions_.clear(); }

std::vector<std::pair<std::string, std::string>> SimPdms::Partitions() const {
  return {partitions_.begin(), partitions_.end()};
}

void SimPdms::SetPeerCrashed(const std::string& peer, bool crashed) {
  if (crashed) {
    crashed_.insert(peer);
  } else {
    crashed_.erase(peer);
  }
}

Result<AnswerResult> SimPdms::Answer(std::string_view query_text) {
  PDMS_ASSIGN_OR_RETURN(ConjunctiveQuery query,
                        ParseNetworkQuery(network_, query_text));
  return Answer(query);
}

Result<AnswerResult> SimPdms::Answer(const ConjunctiveQuery& query) {
  last_trace_.clear();
  AnswerResult out;
  out.answers = Relation(query.head().predicate(), query.head().arity());

  // The virtual clock exists before any traced work so the whole query —
  // reformulation included — is stamped in simulated time, making the span
  // tree (timestamps and all) a deterministic function of the seed.
  FaultInjector clock(options_.seed);
  EventLoop loop(&clock);
  TraceClockGuard clock_guard{trace_};
  if (trace_ != nullptr) {
    trace_->Clear();
    trace_->set_now_fn([&clock] { return clock.now_ms(); });
  }
  obs::ScopedSpan query_span(trace_, "query");
  query_span.Set("query", query.head().predicate());
  query_span.Set("mode", "sim");
  query_span.Set("seed", static_cast<uint64_t>(options_.seed));

  // Step 1 (local to the querying peer): reformulate, pruning sources the
  // catalog already knows are down — identical to the in-process facade.
  // With caches attached, lookups run under the copied catalog's
  // (revision, availability epoch) scope; a plan hit skips reformulation
  // but the fetch/evaluate steps below still run over the simulated
  // network in full.
  // Cost-aware execution (docs/network_cost_model.md): one estimator per
  // query blends the static link map with the tracker's live SRTTs. It
  // only ever reorders work — candidate ordering, provider choice,
  // routing — so answers stay byte-identical to the cost-blind path.
  const bool cost_aware = options_.reform.cost_aware;
  std::unique_ptr<CostEstimator> estimator;
  if (cost_aware) {
    estimator = std::make_unique<CostEstimator>(
        &network_, options_.links, kCoordinatorName, health_);
  }
  ReformulationOptions base = options_.reform;
  base.cost_estimator = estimator.get();
  QueryPipeline pipeline(network_, std::move(base),
                         {trace_, metrics_, plan_cache_});
  PDMS_ASSIGN_OR_RETURN(QueryPlan plan, pipeline.Plan(query,
                                                      reformulator_.get(),
                                                      &query_span));

  // Step 2: every stored relation the rewritings scan must be fetched from
  // its owning peer over the simulated network. Relations served by no
  // peer stay local and cost no messages.
  std::set<std::string> needed;
  for (const ConjunctiveQuery& disjunct : plan.rewriting().disjuncts()) {
    for (const Atom& atom : disjunct.body()) {
      if (network_.IsStoredRelation(atom.predicate())) {
        needed.insert(atom.predicate());
      }
    }
  }

  SimNetwork net(&loop, options_.seed);
  net.set_faults(options_.faults);
  {
    auto model = NetworkModel::Create(options_.network_model, options_.links);
    if (!model.ok()) return model.status();
    net.set_model(std::move(*model));
  }
  net.set_obs_trace(trace_);
  for (const auto& [a, b] : partitions_) net.Partition(a, b);

  AccessStats access;
  Database fetched;  // what the coordinator actually received
  std::map<std::string, Fetch> fetches;
  std::map<std::string, std::unique_ptr<PeerNode>> nodes;
  size_t provider_switches = 0;

  for (const std::string& relation : needed) {
    ++access.probes;
    auto owner = network_.StoredRelationPeer(relation);
    if (cost_aware && owner.ok()) {
      // Replicated stored relations (several storage descriptions sharing
      // one head) give a provider choice; the cheapest estimated round
      // trip wins, ties keeping the legacy first-description owner. All
      // replicas serve the same slice of the instance, so the choice is
      // answer-neutral.
      auto cheapest = estimator->CheapestProvider(relation);
      if (cheapest.ok()) {
        if (*cheapest != *owner) ++provider_switches;
        owner = cheapest;
      }
      if (metrics_ != nullptr) {
        metrics_->Observe("net.est_scan_cost_ms",
                          estimator->ScanCostMs(relation));
      }
    }
    size_t arity = 0;
    if (auto a = network_.RelationArity(relation); a.ok()) arity = *a;
    if (!owner.ok() || owner->empty()) {
      // No owning peer: the querying node holds this relation itself.
      ++access.successes;
      (void)fetched.CreateRelation(relation, arity);
      if (const Relation* local = data_.Find(relation); local != nullptr) {
        for (const Tuple& t : local->tuples()) fetched.Insert(relation, t);
      }
      continue;
    }
    auto [it, inserted] = nodes.try_emplace(*owner);
    if (inserted) {
      it->second = std::make_unique<PeerNode>(*owner, &net);
      it->second->set_crashed(crashed_.count(*owner) > 0);
    }
    Relation slice(relation, arity);
    if (const Relation* local = data_.Find(relation); local != nullptr) {
      slice = *local;
    }
    it->second->ServeRelation(slice);
    Fetch& fetch = fetches[relation];
    fetch.owner = *owner;
    fetch.arity = arity;
  }

  // Peer failure detection (optional, shared across queries like the
  // caches): fetches to suspected peers fail fast, one probe per backoff
  // window checks recovery, and known-slow responses get one hedged
  // duplicate request. Times fed to the tracker combine its monotonic
  // session clock with this query's virtual clock.
  const bool health_on = health_ != nullptr && health_->config().enabled;
  auto session_now = [&] {
    return (health_ != nullptr ? health_->now_ms() : 0.0) + clock.now_ms();
  };

  // Relay batch planning (cost-aware): all the fetches owned by one
  // remote zone are grouped into a single batched round trip through a
  // relay peer of that zone, so the expensive trunk carries 2 messages per
  // zone instead of 2 per scan. Routing only: any relay failure falls
  // back to the per-relation unicast ladder below, which is why the
  // answer set cannot depend on relaying.
  struct RelayBatch {
    std::string relay;
    std::vector<std::string> relations;  // map order: sorted
    uint64_t request_id = 0;
    double sent_at_ms = 0;
    bool resolved = false;
  };
  std::vector<RelayBatch> batches;
  std::map<std::string, size_t> batch_of;       // relation -> batches index
  std::map<uint64_t, size_t> batch_by_request;  // request id -> batches index
  if (cost_aware && options_.relay_fanout && options_.links != nullptr &&
      options_.links->num_zones() > 1) {
    const LinkMap& links = *options_.links;
    const size_t coordinator_zone = links.ZoneOf(kCoordinatorName);
    std::map<size_t, std::vector<std::string>> by_zone;
    for (const auto& [relation, fetch] : fetches) {
      size_t zone = links.ZoneOf(fetch.owner);
      if (zone != coordinator_zone) by_zone[zone].push_back(relation);
    }
    for (auto& [zone, relations] : by_zone) {
      if (relations.size() < 2) continue;  // a lone scan gains nothing
      // Relay = the zone's cheapest owner; iterating the sorted owner set
      // makes the tie-break (first name) deterministic.
      std::set<std::string> owners;
      for (const std::string& r : relations) owners.insert(fetches[r].owner);
      std::string relay;
      double best = 0;
      for (const std::string& owner : owners) {
        double cost = estimator->PeerCostMs(owner);
        if (relay.empty() || cost < best) {
          relay = owner;
          best = cost;
        }
      }
      // A suspected relay would stall the whole batch until the fallback
      // timer; route those zones over plain unicast (where the per-fetch
      // health gate applies as usual).
      if (health_ != nullptr && health_->config().enabled &&
          health_->IsSuspected(relay)) {
        continue;
      }
      size_t index = batches.size();
      batches.push_back(RelayBatch{relay, relations, 0, 0, false});
      for (const std::string& r : relations) batch_of[r] = index;
    }
  }

  // Virtual time when the last fetch settled — the answer-latency metric
  // the topology bench sweeps. loop.now_ms() at exit would overstate it:
  // timeout events stay queued past resolution and run the clock forward.
  double last_resolve_ms = 0;

  // Declared before the handler below so the relay-fallback path can
  // re-enter the unicast ladder; assigned after.
  std::function<void(const std::string&)> send_request;

  // The coordinator: accepts any response for an unresolved fetch (scans
  // are idempotent, so a late answer to a retransmitted request is as good
  // as a fresh one) and ignores duplicates.
  net.Register(kCoordinatorName, [&](const std::string& /*src*/,
                                     const Message& message) {
    if (message.type == Message::Type::kRelayScanResponse) {
      auto bit = batch_by_request.find(message.request_id);
      if (bit == batch_by_request.end()) return;
      RelayBatch& batch = batches[bit->second];
      if (batch.resolved) return;  // duplicate or post-fallback straggler
      batch.resolved = true;
      bool any_ok = false;
      for (const Message::ScanResult& r : message.results) {
        auto it = fetches.find(r.relation);
        if (it == fetches.end() || it->second.resolved) continue;
        Fetch& fetch = it->second;
        if (r.status.ok()) {
          fetch.resolved = true;
          fetch.status = r.status;
          fetch.tuples = r.tuples;
          if (r.arity > 0) fetch.arity = r.arity;
          ++access.successes;
          last_resolve_ms = clock.now_ms();
          any_ok = true;
        } else {
          // The relay answered but this sub-scan failed there; retry the
          // relation directly with the full unicast ladder.
          ++net.mutable_stats()->relay_fallbacks;
          net.AppendTrace(StrFormat("rfbk  scan(%s): relay %s reported %s",
                                    r.relation.c_str(), batch.relay.c_str(),
                                    r.status.ToString().c_str()));
          send_request(r.relation);
        }
      }
      if (any_ok && health_ != nullptr) {
        health_->RecordSuccess(batch.relay, session_now(),
                               clock.now_ms() - batch.sent_at_ms);
      }
      return;
    }
    if (message.type != Message::Type::kScanResponse) return;
    auto it = fetches.find(message.relation);
    if (it == fetches.end() || it->second.resolved) return;
    Fetch& fetch = it->second;
    fetch.resolved = true;
    fetch.status = message.status;
    last_resolve_ms = clock.now_ms();
    if (message.status.ok()) {
      fetch.tuples = message.tuples;
      if (message.arity > 0) fetch.arity = message.arity;
      ++access.successes;
      if (health_ != nullptr) {
        health_->RecordSuccess(fetch.owner, session_now(),
                               clock.now_ms() - fetch.sent_at_ms);
      }
    } else {
      ++access.failures;
      if (health_ != nullptr) {
        health_->RecordFailure(fetch.owner, session_now());
      }
    }
  });

  const size_t max_attempts = std::max<size_t>(1, options_.retry.max_attempts);
  Rng retry_rng(options_.seed ^ 0xd1b54a32d192ed03ull);
  uint64_t next_request_id = 1;

  send_request =
      [&](const std::string& relation) {
        Fetch& fetch = fetches[relation];
        if (fetch.resolved) return;  // answered while backing off
        ++fetch.attempts;
        ++access.attempts;
        uint64_t id = next_request_id++;
        fetch.last_request_id = id;
        fetch.sent_at_ms = clock.now_ms();
        Message request;
        request.type = Message::Type::kScanRequest;
        request.request_id = id;
        request.relation = relation;
        net.Send(kCoordinatorName, fetch.owner, request);
        // Hedged retransmission: with an SRTT estimate, a response that is
        // several SRTTs overdue is probably lost — send one duplicate
        // (same id: the coordinator takes any response for an unresolved
        // fetch) instead of sitting out the rest of the timeout.
        if (health_on && health_->config().hedge_srtt_multiplier > 0) {
          double srtt = health_->SrttMs(fetch.owner);
          double hedge_ms = srtt * health_->config().hedge_srtt_multiplier;
          if (srtt > 0 && hedge_ms < options_.request_timeout_ms) {
            loop.Schedule(hedge_ms, [&, relation, id] {
              Fetch& f = fetches[relation];
              if (f.resolved || f.last_request_id != id) return;
              ++net.mutable_stats()->hedges;
              net.AppendTrace(StrFormat(
                  "hedge req#%llu scan(%s) overdue; duplicate to %s",
                  static_cast<unsigned long long>(id), relation.c_str(),
                  f.owner.c_str()));
              Message dup;
              dup.type = Message::Type::kScanRequest;
              dup.request_id = id;
              dup.relation = relation;
              net.Send(kCoordinatorName, f.owner, dup);
            });
          }
        }
        loop.Schedule(options_.request_timeout_ms, [&, relation, id] {
          Fetch& f = fetches[relation];
          if (f.resolved || f.last_request_id != id) return;
          ++net.mutable_stats()->request_timeouts;
          net.AppendTrace(StrFormat(
              "time  req#%llu scan(%s) timed out (attempt %zu/%zu)",
              static_cast<unsigned long long>(id), relation.c_str(),
              f.attempts, max_attempts));
          if (trace_ != nullptr) {
            obs::SpanId t = trace_->Instant("timeout");
            trace_->SetAttribute(t, "relation", relation);
            trace_->SetAttribute(t, "attempt", static_cast<uint64_t>(f.attempts));
            trace_->SetAttribute(t, "request_id", id);
          }
          if (f.attempts >= max_attempts) {
            f.resolved = true;
            f.status = Status::Unavailable(StrFormat(
                "%s:%s unreachable after %zu attempt(s)", f.owner.c_str(),
                relation.c_str(), f.attempts));
            last_resolve_ms = clock.now_ms();
            ++access.failures;
            if (health_ != nullptr) {
              health_->RecordFailure(f.owner, session_now());
            }
            return;
          }
          ++access.retries;
          ++net.mutable_stats()->retransmits;
          double backoff =
              options_.retry.BackoffMillis(f.attempts, &retry_rng);
          access.backoff_ms += backoff;
          loop.Schedule(backoff,
                        [&send_request, relation] { send_request(relation); });
        });
      };

  // Sends one relay batch: the attempts accounting mirrors unicast (+1 per
  // relation) so a fault-free cost-aware run reports the same access stats
  // as the cost-blind run it must match byte for byte.
  auto send_batch = [&](size_t index) {
    RelayBatch& batch = batches[index];
    uint64_t id = next_request_id++;
    batch.request_id = id;
    batch.sent_at_ms = clock.now_ms();
    batch_by_request[id] = index;
    Message request;
    request.type = Message::Type::kRelayScanRequest;
    request.request_id = id;
    request.sub_timeout_ms = options_.request_timeout_ms;
    for (const std::string& relation : batch.relations) {
      Fetch& fetch = fetches[relation];
      ++fetch.attempts;
      ++access.attempts;
      fetch.sent_at_ms = batch.sent_at_ms;
      Message::RelayTarget target;
      target.owner = fetch.owner;
      target.relation = relation;
      request.targets.push_back(std::move(target));
    }
    ++net.mutable_stats()->relay_batches;
    net.mutable_stats()->relay_scans += batch.relations.size();
    net.AppendTrace(StrFormat("rplan req#%llu relay via %s: %zu scan(s)",
                              static_cast<unsigned long long>(id),
                              batch.relay.c_str(), batch.relations.size()));
    net.Send(kCoordinatorName, batch.relay, std::move(request));
    // The batch gets one generous budget (it covers two trunk crossings
    // plus the intra-zone fan-out), then every still-unresolved relation
    // falls back to the unicast ladder — so a dead relay costs latency,
    // never answers.
    double budget = options_.request_timeout_ms * kRelayTimeoutFactor;
    loop.Schedule(budget, [&, index] {
      RelayBatch& b = batches[index];
      if (b.resolved) return;
      b.resolved = true;
      net.AppendTrace(StrFormat("rtime relay batch req#%llu via %s timed out",
                                static_cast<unsigned long long>(b.request_id),
                                b.relay.c_str()));
      if (health_ != nullptr) health_->RecordFailure(b.relay, session_now());
      for (const std::string& relation : b.relations) {
        if (fetches[relation].resolved) continue;
        ++net.mutable_stats()->relay_fallbacks;
        send_request(relation);
      }
    });
  };

  // The fetch span stays open across loop.Run so every message hop and
  // timeout event nests under it.
  obs::ScopedSpan fetch_span(trace_, "fetch");
  fetch_span.Set("relations", static_cast<uint64_t>(fetches.size()));
  if (cost_aware) {
    fetch_span.Set("cost_aware", static_cast<uint64_t>(1));
    fetch_span.Set("relay_batches", static_cast<uint64_t>(batches.size()));
  }
  for (auto& [relation, fetch] : fetches) {
    if (batch_of.count(relation) != 0) continue;  // travels in a relay batch
    // Gate each fetch through the failure detector before its first
    // transmission: a suspected peer inside its probe backoff costs zero
    // messages — the crash was paid for once, at detection time.
    if (health_on) {
      PeerGate gate = health_->Admit(fetch.owner, session_now());
      if (gate == PeerGate::kSkip) {
        fetch.resolved = true;
        fetch.status = Status::Unavailable(
            StrFormat("%s:%s skipped: peer suspected down",
                      fetch.owner.c_str(), relation.c_str()));
        ++access.failures;
        ++net.mutable_stats()->skipped_suspected;
        net.AppendTrace(StrFormat("skip  scan(%s): %s suspected down",
                                  relation.c_str(), fetch.owner.c_str()));
        continue;
      }
      if (gate == PeerGate::kProbe) {
        net.AppendTrace(StrFormat("probe scan(%s): probing suspected %s",
                                  relation.c_str(), fetch.owner.c_str()));
      }
    }
    send_request(relation);
  }
  for (size_t i = 0; i < batches.size(); ++i) send_batch(i);

  Status run = loop.Run(options_.max_virtual_ms, options_.max_events);
  last_trace_ = net.TraceString();
  access.elapsed_ms = loop.now_ms();
  // Fold this query's virtual duration into the tracker's session clock so
  // probe backoff windows keep counting down across queries (each query
  // runs on a fresh loop starting at 0). Floored at 1ms: a query whose
  // fetches were all skipped costs zero virtual time, and without a floor
  // the probe window would never arrive and a recovered peer would never
  // be re-contacted.
  if (health_ != nullptr) health_->AdvanceClock(std::max(loop.now_ms(), 1.0));
  if (metrics_ != nullptr) {
    const MessageStats& m = net.stats();
    metrics_->Add("sim.messages_sent", m.sent);
    metrics_->Add("sim.messages_delivered", m.delivered);
    metrics_->Add("sim.messages_dropped", m.dropped);
    metrics_->Add("sim.messages_duplicated", m.duplicated);
    metrics_->Add("sim.messages_partitioned", m.partitioned);
    metrics_->Add("sim.request_timeouts", m.request_timeouts);
    metrics_->Add("sim.retransmits", m.retransmits);
    metrics_->Add("sim.hedges", m.hedges);
    metrics_->Add("sim.skipped_suspected", m.skipped_suspected);
    metrics_->Add("net.relay_batches", m.relay_batches);
    metrics_->Add("net.relay_scans", m.relay_scans);
    metrics_->Add("net.relay_fallbacks", m.relay_fallbacks);
    metrics_->Add("net.provider_switches", provider_switches);
    metrics_->Observe("sim.fetch_ms", loop.now_ms());
    // Unlike sim.fetch_ms (= loop.now_ms(), which includes stale timeout
    // timers draining after the last answer arrived), this is when the
    // final fetch actually settled — the bench's answer-latency measure.
    metrics_->Observe("sim.resolve_ms", last_resolve_ms);
  }
  fetch_span.End();
  if (!run.ok()) return run;  // detected hang; last_trace() has the story

  // Assemble the coordinator's view of the data. Failed fetches stay out
  // of it; the gate below reports them, so the evaluator skips exactly the
  // disjuncts that touch one.
  for (auto& [relation, fetch] : fetches) {
    if (!fetch.resolved) {
      // Cannot happen while the timeout chain is intact; be defensive so a
      // future scheduling bug degrades instead of fabricating answers.
      fetch.status = Status::Internal("fetch never resolved: " + relation);
    }
    if (fetch.status.ok()) {
      (void)fetched.CreateRelation(relation, fetch.arity);
      for (const Tuple& t : fetch.tuples) fetched.Insert(relation, t);
    }
  }

  // Step 3: evaluate the rewritings over what actually arrived. The
  // fetched database is rebuilt per query, so its columnar conversion is
  // per query as well; the *physical plan* still comes from the shared
  // slot when the statistics line up.
  StoredGate gate = [&](const std::string& relation) {
    auto it = fetches.find(relation);
    return it == fetches.end() ? Status::Ok() : it->second.status;
  };
  PDMS_RETURN_IF_ERROR(pipeline.Evaluate(std::move(plan), &engine_, fetched,
                                         gate, access, &out));
  out.degradation.messages = net.stats();
  out.degradation.distributed = true;
  query_span.Set("answers", static_cast<uint64_t>(out.answers.size()));
  return out;
}

}  // namespace sim
}  // namespace pdms
