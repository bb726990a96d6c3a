// The answering entry points — Pdms::AnswerWithReport,
// Pdms::AnswerStreaming, fault-free sim::SimPdms::Answer and the serving
// executor (serve::RequestExecutor, in process, without TCP) — share one
// query pipeline (plan-cache protocol, union evaluation, degradation
// report). This suite pins that they behave alike on seeded Section-5
// generator worlds (diameters 1-3) and the Figure-1 emergency scenario.
//
// Every query runs three times against caches that outlive the runs —
// cold, warm, and after one stored relation of its first rewriting is
// marked unavailable — and, as ppl_shell does, each simulated run gets a
// fresh SimPdms over the facade's current catalog and data while its
// PlanCache is shared across runs. The executor answers the cold and warm
// runs on one instance (its two workers share its plan cache) and the
// third on a new one started over the changed catalog, as a restarted
// ppl_serverd would. Per run:
//
//  - the canonical answers of all four paths are equal, and the
//    executor's answer frame carries what MakeAnswerFrame makes of
//    AnswerWithReport's result (status, completeness, truncation, skipped
//    rewritings, pruned branches, excluded relations and peers);
//  - the local and simulated reports agree on plan_cache_hit, the static
//    exclusions (stats.excluded_stored, stats.pruned_unavailable) and the
//    verdict (completeness, excluded relations and peers, skipped
//    rewritings);
//  - both paths move cache.hits / misses / inserts / invalidations by the
//    same amounts.

#include <cstddef>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pdms/cache/plan_cache.h"
#include "pdms/core/pdms.h"
#include "pdms/core/reformulator.h"
#include "pdms/gen/emergency.h"
#include "pdms/gen/workload.h"
#include "pdms/obs/metrics.h"
#include "pdms/serve/executor.h"
#include "pdms/sim/sim_pdms.h"

namespace pdms {
namespace {

struct World {
  std::string name;
  PdmsNetwork network;
  Database data;
  std::vector<ConjunctiveQuery> queries;
};

std::vector<World> Worlds() {
  std::vector<World> worlds;
  for (uint64_t seed : {7u, 31u, 88u}) {
    for (size_t diameter : {size_t{1}, size_t{2}, size_t{3}}) {
      gen::WorkloadConfig config;
      config.num_peers = 18;
      config.num_strata = diameter;
      config.definitional_fraction = 0.25;
      config.providers_per_relation = 2;
      config.comparison_fraction = 0.2;
      config.facts_per_stored = 6;
      config.value_domain = 6;
      config.seed = seed;
      // One subgoal at diameter 3 keeps the union near 40 rewritings, so
      // the suite stays fast under the sanitizers.
      config.query_subgoals = diameter == 3 ? 1 : 2;
      auto workload = gen::GenerateWorkload(config);
      EXPECT_TRUE(workload.ok()) << workload.status().ToString();
      if (!workload.ok()) continue;
      worlds.push_back({"seed " + std::to_string(seed) + " diameter " +
                            std::to_string(diameter),
                        std::move(workload->network),
                        std::move(workload->data),
                        {std::move(workload->query)}});
    }
  }
  Pdms emergency;
  EXPECT_TRUE(emergency.LoadProgram(gen::EmergencyBasePpl()).ok());
  EXPECT_TRUE(emergency.LoadProgram(gen::EmergencyEarthquakePpl()).ok());
  World world{"emergency", emergency.network(), emergency.database(), {}};
  for (const char* text :
       {"Q(f1, f2) :- FS:SameEngine(f1, f2, e), FS:Skill(f1, s), "
        "FS:Skill(f2, s).",
        "q(p) :- NDC:SkilledPerson(p, \"Doctor\").",
        "q(pid, bed) :- H:Patient(pid, bed, st)."}) {
    auto query = emergency.ParseQuery(text);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    if (query.ok()) world.queries.push_back(std::move(*query));
  }
  worlds.push_back(std::move(world));
  return worlds;
}

std::string Canonical(Relation rel) {
  rel.SortCanonical();
  return rel.ToString();
}

const char* const kCacheCounters[] = {"cache.hits", "cache.misses",
                                      "cache.inserts", "cache.invalidations"};

std::map<std::string, uint64_t> CacheCounters(
    const obs::MetricsRegistry& metrics) {
  std::map<std::string, uint64_t> out;
  for (const char* name : kCacheCounters) out[name] = metrics.counter(name);
  return out;
}

std::map<std::string, uint64_t> Delta(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : after) out[name] = value - before.at(name);
  return out;
}

std::string StreamAll(Pdms* pdms, const ConjunctiveQuery& query) {
  auto result = pdms->AnswerStreaming(query, [](const Tuple&) { return true; });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? Canonical(*result) : "";
}

// The simulated path of one run: a fresh runtime over the facade's
// current catalog and data, wired to the long-lived caches.
struct SimSide {
  cache::PlanCache plan_cache;
  obs::MetricsRegistry metrics;

  Result<AnswerResult> Answer(const Pdms& facade,
                              const ConjunctiveQuery& query) {
    sim::SimPdms sim(facade.network(), facade.database());
    sim.set_plan_cache(&plan_cache);
    sim.set_metrics(&metrics);
    return sim.Answer(query);
  }
};

// The serving path: an in-process executor whose outcomes arrive through
// its completion callback, one request at a time.
class ServedSide {
 public:
  void Start(const PdmsNetwork& network, const Database& data) {
    serve::ExecutorOptions options;
    options.workers = 2;
    executor_ = std::make_unique<serve::RequestExecutor>(options, nullptr);
    Status started = executor_->Start(
        network, data,
        [this](serve::ServeOutcome out) { pending_.set_value(std::move(out)); });
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  serve::ServeOutcome Answer(const ConjunctiveQuery& query) {
    pending_ = std::promise<serve::ServeOutcome>();
    std::future<serve::ServeOutcome> outcome = pending_.get_future();
    serve::ServeRequest request;
    request.request_id = ++next_id_;
    request.query = query.ToString();
    auto shed = executor_->Submit(std::move(request));
    EXPECT_FALSE(shed.has_value()) << shed->message;
    return outcome.get();
  }

 private:
  std::unique_ptr<serve::RequestExecutor> executor_;
  std::promise<serve::ServeOutcome> pending_;
  uint64_t next_id_ = 0;
};

// The served frame carries exactly what the facade's report says.
void ExpectSameFrame(const serve::ServeOutcome& served,
                     const Result<AnswerResult>& local) {
  ASSERT_FALSE(served.shed) << served.shed_frame.message;
  const serve::wire::AnswerFrame& got = served.answer;
  const serve::wire::AnswerFrame want = serve::MakeAnswerFrame(
      got.request_id, local, /*server_ms=*/got.server_ms);
  EXPECT_EQ(got.status_code, want.status_code) << got.status_message;
  EXPECT_EQ(got.completeness, want.completeness);
  EXPECT_EQ(got.truncated, want.truncated);
  EXPECT_EQ(got.rewritings_skipped, want.rewritings_skipped);
  EXPECT_EQ(got.branches_pruned, want.branches_pruned);
  EXPECT_EQ(got.excluded_peers, want.excluded_peers);
  EXPECT_EQ(got.excluded_stored, want.excluded_stored);
  EXPECT_EQ(Canonical(got.ToRelation()), Canonical(want.ToRelation()));
}

// The stored relation the query's first rewriting scans first, or "".
std::string FirstScannedRelation(const PdmsNetwork& network,
                                 const ConjunctiveQuery& query) {
  Reformulator reformulator(network);
  auto ref = reformulator.Reformulate(query);
  EXPECT_TRUE(ref.ok()) << ref.status().ToString();
  if (!ref.ok() || ref->rewriting.empty()) return "";
  const ConjunctiveQuery& first = ref->rewriting.disjuncts()[0];
  return first.body().empty() ? "" : first.body()[0].predicate();
}

TEST(PipelineParity, LocalStreamingAndSimAgreeAcrossCacheStates) {
  size_t nonempty = 0, hits = 0, invalidated = 0, degraded = 0;
  for (const World& world : Worlds()) {
    SCOPED_TRACE(world.name);
    for (const ConjunctiveQuery& query : world.queries) {
      SCOPED_TRACE(query.ToString());
      cache::PlanCache plan_cache;
      obs::MetricsRegistry metrics;
      Pdms local;
      *local.mutable_network() = world.network;
      *local.mutable_database() = world.data;
      local.set_plan_cache(&plan_cache);
      local.set_metrics(&metrics);
      SimSide sim;
      ServedSide served;
      served.Start(world.network, world.data);
      const std::string downed = FirstScannedRelation(world.network, query);

      for (const char* phase : {"cold", "warm", "unavailable"}) {
        SCOPED_TRACE(phase);
        if (std::string(phase) == "unavailable") {
          ASSERT_FALSE(downed.empty());
          ASSERT_TRUE(local.mutable_network()
                          ->SetStoredRelationAvailable(downed, false)
                          .ok());
          served.Start(local.network(), local.database());
        }
        auto local_before = CacheCounters(metrics);
        auto got = local.AnswerWithReport(query);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        auto local_delta = Delta(local_before, CacheCounters(metrics));

        auto sim_before = CacheCounters(sim.metrics);
        auto simulated = sim.Answer(local, query);
        ASSERT_TRUE(simulated.ok()) << simulated.status().ToString();
        auto sim_delta = Delta(sim_before, CacheCounters(sim.metrics));

        // Streaming on the cache-attached facade (its hit branch once the
        // plan is cached) and on an uncached one (the miss branch).
        Pdms uncached;
        *uncached.mutable_network() = local.network();
        *uncached.mutable_database() = local.database();

        const std::string want = Canonical(got->answers);
        EXPECT_EQ(Canonical(simulated->answers), want);
        EXPECT_EQ(StreamAll(&local, query), want);
        EXPECT_EQ(StreamAll(&uncached, query), want);

        EXPECT_EQ(simulated->plan_cache_hit, got->plan_cache_hit);
        EXPECT_EQ(simulated->stats.excluded_stored, got->stats.excluded_stored);
        EXPECT_EQ(simulated->stats.pruned_unavailable,
                  got->stats.pruned_unavailable);
        const DegradationReport& a = got->degradation;
        const DegradationReport& b = simulated->degradation;
        EXPECT_EQ(b.completeness, a.completeness);
        EXPECT_EQ(b.excluded_stored, a.excluded_stored);
        EXPECT_EQ(b.excluded_peers, a.excluded_peers);
        EXPECT_EQ(b.rewritings_skipped, a.rewritings_skipped);
        EXPECT_EQ(sim_delta, local_delta);
        ExpectSameFrame(served.Answer(query), got);

        if (want != Canonical(Relation(query.head().predicate(),
                                       query.head().arity()))) {
          ++nonempty;
        }
        if (got->plan_cache_hit) ++hits;
        if (local_delta["cache.invalidations"] > 0) ++invalidated;
        if (a.degraded()) ++degraded;
      }
    }
  }
  // The sweep must exercise what it compares: answers, warm hits, scoped
  // invalidation and degraded verdicts.
  EXPECT_GE(nonempty, 12u);
  EXPECT_GE(hits, 6u);
  EXPECT_GE(invalidated, 6u);
  EXPECT_GE(degraded, 6u);
}

}  // namespace
}  // namespace pdms
