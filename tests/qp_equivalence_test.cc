// The vectorized engine's acceptance property (docs/query_planning.md):
// on seeded random PDMSs with data — the paper's Figure-3 chain-of-peers
// shape — the vectorized evaluator must return byte-identical answers to
// the legacy tuple-at-a-time evaluator after canonical ordering, across
// plan-cache states (cold, warm, shared). The
// legacy evaluator stays in the tree as the oracle (legacy_oracle.h)
// exactly so this suite can hold the line.

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "pdms/cache/plan_cache.h"
#include "pdms/core/pdms.h"
#include "pdms/eval/evaluator.h"
#include "pdms/fault/access.h"
#include "pdms/fault/fault_injector.h"
#include "pdms/gen/workload.h"
#include "pdms/obs/metrics.h"
#include "pdms/qp/engine.h"
#include "legacy_oracle.h"

namespace pdms {
namespace {

gen::Workload MakeWorkload(uint64_t seed, size_t facts_per_stored,
                           int64_t value_domain) {
  gen::WorkloadConfig config;
  config.num_peers = 20;
  config.num_strata = 3;
  config.definitional_fraction = 0.25;
  config.providers_per_relation = 2;
  config.comparison_fraction = 0.2;
  config.facts_per_stored = facts_per_stored;
  config.value_domain = value_domain;
  config.seed = seed;
  auto workload = gen::GenerateWorkload(config);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  return std::move(*workload);
}

// The evaluation-heavy world: single definitional providers make each
// rewriting one chain join whose length doubles per stratum, over 1,024
// facts per stored relation in a domain just above that (join fan-out
// ~0.8), so deep chains stay selective but still produce answers.
gen::Workload ChainWorkload(size_t strata) {
  gen::WorkloadConfig config;
  config.num_peers = 48;
  config.num_strata = strata;
  config.providers_per_relation = 1;
  config.definitional_fraction = 1.0;
  config.definitional_union_width = 1;
  config.facts_per_stored = 1024;
  config.value_domain = 1280;
  config.seed = 4200;
  auto workload = gen::GenerateWorkload(config);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  return std::move(*workload);
}

Pdms MakePdms(const gen::Workload& workload) {
  Pdms pdms;
  *pdms.mutable_network() = workload.network;
  *pdms.mutable_database() = workload.data;
  return pdms;
}

/// One run's observable outcome: answers canonically ordered (the legacy
/// evaluator returns them in discovery order, so its relation is sorted
/// here before rendering; the vectorized engine's already is — the
/// comparison is still byte-for-byte on the rendered text).
struct Outcome {
  std::string answers;
  std::string report;
};

Outcome Render(const Result<AnswerResult>& result) {
  Outcome out;
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) {
    Relation sorted = result->answers;
    sorted.SortCanonical();
    out.answers = sorted.ToString();
    out.report = result->degradation.ToString();
  }
  return out;
}

Outcome RunOne(Pdms* pdms, const ConjunctiveQuery& query) {
  return Render(pdms->AnswerWithReport(query));
}

// The legacy evaluator over the facade's reformulation.
Outcome RunOracle(Pdms* pdms, const ConjunctiveQuery& query) {
  return Render(LegacyAnswerWithReport(pdms, query));
}

TEST(QpEquivalence, VectorizedMatchesLegacyAcrossSeeds) {
  for (uint64_t seed : {3u, 17u, 58u, 104u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    gen::Workload workload =
        MakeWorkload(seed, /*facts_per_stored=*/6, /*value_domain=*/8);
    Pdms legacy = MakePdms(workload);
    Outcome want = RunOracle(&legacy, workload.query);
    Pdms vectorized = MakePdms(workload);
    Outcome got = RunOne(&vectorized, workload.query);
    EXPECT_EQ(got.answers, want.answers);
    EXPECT_EQ(got.report, want.report);
  }
}

TEST(QpEquivalence, SparseAndDenseValueDomains) {
  // A tight value domain forces dense joins (heavy duplicate elimination);
  // a wide one makes most joins miss. Both must agree with legacy.
  for (int64_t domain : {int64_t{2}, int64_t{64}}) {
    SCOPED_TRACE("domain " + std::to_string(domain));
    gen::Workload workload = MakeWorkload(29, /*facts_per_stored=*/8, domain);
    Pdms legacy = MakePdms(workload);
    Pdms vectorized = MakePdms(workload);
    Outcome want = RunOracle(&legacy, workload.query);
    Outcome got = RunOne(&vectorized, workload.query);
    EXPECT_EQ(got.answers, want.answers);
    EXPECT_EQ(got.report, want.report);
  }
}

TEST(QpEquivalence, PlanCacheStateDoesNotChangeAnswers) {
  gen::Workload workload = MakeWorkload(41, 6, 8);
  Pdms legacy = MakePdms(workload);
  Outcome want = RunOracle(&legacy, workload.query);

  // Cold, then warm through the same facade-attached cache: the second
  // query reuses both the rewriting and the cached physical plan.
  cache::PlanCache cache;
  obs::MetricsRegistry metrics;
  Pdms vectorized = MakePdms(workload);
  vectorized.set_plan_cache(&cache);
  vectorized.set_metrics(&metrics);
  Outcome cold = RunOne(&vectorized, workload.query);
  Outcome warm = RunOne(&vectorized, workload.query);
  EXPECT_EQ(cold.answers, want.answers);
  EXPECT_EQ(warm.answers, want.answers);
  EXPECT_EQ(warm.report, cold.report);
  EXPECT_GT(metrics.counter("qp.plan_reused"), 0u);

  // A different facade sharing the cache (the serving pattern) also
  // reuses the plan slot and still matches.
  Pdms sharer = MakePdms(workload);
  sharer.set_plan_cache(&cache);
  Outcome shared = RunOne(&sharer, workload.query);
  EXPECT_EQ(shared.answers, want.answers);
}

TEST(QpEquivalence, InsertsBetweenQueriesKeepTheEnginesAligned) {
  // Facts inserted after the first answer must show up identically in
  // both engines (the catalog refreshes incrementally; the cached plan's
  // fingerprint goes stale and is recompiled).
  gen::Workload workload = MakeWorkload(77, 5, 6);
  Pdms legacy = MakePdms(workload);
  Pdms vectorized = MakePdms(workload);
  RunOracle(&legacy, workload.query);
  RunOne(&vectorized, workload.query);

  // Replay every stored fact (duplicates exercise dedup) and add one
  // genuinely new fact per relation — each tuple reversed keeps arity —
  // driving the incremental append path on the vectorized side.
  const Database& data = workload.data;
  for (const std::string& name : data.RelationNames()) {
    for (const Tuple& t : data.Find(name)->tuples()) {
      Status a = legacy.Insert(name, t);
      Status b = vectorized.Insert(name, t);
      ASSERT_EQ(a.ok(), b.ok());
    }
    const std::vector<Tuple>& tuples = data.Find(name)->tuples();
    if (!tuples.empty()) {
      Tuple reversed(tuples.front().rbegin(), tuples.front().rend());
      Status a = legacy.Insert(name, reversed);
      Status b = vectorized.Insert(name, reversed);
      ASSERT_EQ(a.ok(), b.ok());
    }
  }
  Outcome want = RunOracle(&legacy, workload.query);
  Outcome got = RunOne(&vectorized, workload.query);
  EXPECT_EQ(got.answers, want.answers);
  EXPECT_EQ(got.report, want.report);
}

// The distinct relations of `uq` in first-use order over (disjunct, body
// order): the order in which the engine consults its gate.
std::vector<std::string> FirstUseOrder(const UnionQuery& uq) {
  std::vector<std::string> order;
  for (const ConjunctiveQuery& cq : uq.disjuncts()) {
    for (const Atom& a : cq.body()) {
      if (std::find(order.begin(), order.end(), a.predicate()) ==
          order.end()) {
        order.push_back(a.predicate());
      }
    }
  }
  return order;
}

TEST(QpEquivalence, GateIsConsultedOncePerDistinctRelation) {
  // StoredGate contract (eval/evaluator.h): one call per distinct plan
  // relation per evaluation, in first-use order, whatever the verdicts —
  // on a cold plan slot, a warm one, and with some relations vetoed. A
  // fresh engine and one engine re-evaluating through one plan slot both
  // answer exactly as the legacy evaluator, on small random worlds and on
  // long chain joins.
  std::vector<std::pair<std::string, gen::Workload>> worlds;
  for (uint64_t seed : {3u, 17u, 58u}) {
    worlds.emplace_back("seed " + std::to_string(seed),
                        MakeWorkload(seed, 6, 8));
  }
  for (size_t strata : {size_t{2}, size_t{3}}) {
    worlds.emplace_back("chain, strata " + std::to_string(strata),
                        ChainWorkload(strata));
  }
  for (const auto& [name, workload] : worlds) {
    SCOPED_TRACE(name);
    Pdms pdms = MakePdms(workload);
    auto ref = pdms.Reformulate(workload.query);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    const UnionQuery& uq = ref->rewriting;
    ASSERT_FALSE(uq.empty());
    const std::vector<std::string> order = FirstUseOrder(uq);
    // Veto every third relation in first-use order (none when there are
    // fewer than three), so later disjuncts read vetoes kept from earlier
    // ones.
    auto vetoed = [&](const std::string& relation) {
      size_t at = std::find(order.begin(), order.end(), relation) -
                  order.begin();
      return at % 3 == 2;
    };
    for (bool veto : {false, true}) {
      SCOPED_TRACE(veto ? "vetoing gate" : "open gate");
      auto verdict = [&](const std::string& relation) {
        return veto && vetoed(relation) ? Status::Unavailable("vetoed")
                                        : Status::Ok();
      };
      auto want = EvaluateUnionDegraded(uq, workload.data, verdict);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      want->answers.SortCanonical();
      if (!veto) {
        EXPECT_FALSE(want->answers.empty());
      }
      qp::Engine fresh;
      auto unslotted = fresh.EvaluateUnionDegraded(uq, workload.data, verdict);
      ASSERT_TRUE(unslotted.ok()) << unslotted.status().ToString();
      EXPECT_EQ(unslotted->answers.tuples(), want->answers.tuples());
      qp::Engine engine;
      qp::PhysicalPlanSlot slot;
      for (const char* state : {"cold", "warm"}) {
        SCOPED_TRACE(state);
        std::vector<std::string> calls;
        StoredGate counting = [&](const std::string& relation) {
          calls.push_back(relation);
          return verdict(relation);
        };
        auto got = engine.EvaluateUnionDegraded(uq, workload.data, counting,
                                                nullptr, nullptr, &slot);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(calls, order);
        EXPECT_EQ(got->answers.tuples(), want->answers.tuples());
        EXPECT_EQ(got->disjuncts_skipped, want->disjuncts_skipped);
        EXPECT_EQ(got->unavailable_relations, want->unavailable_relations);
      }
    }
  }
}

// A facade whose every stored relation is flaky and slow, so probes retry
// and spend the deadline's budget.
Pdms FaultyPdms(const gen::Workload& workload, Deadline deadline) {
  Pdms pdms = MakePdms(workload);
  pdms.set_fault_seed(11);
  FaultProfile flaky;
  flaky.failure_probability = 0.4;
  flaky.latency_ms = 2.0;
  flaky.latency_jitter_ms = 1.0;
  for (const std::string& name : workload.data.RelationNames()) {
    pdms.mutable_fault_injector()->SetStoredProfile(name, flaky);
  }
  RetryPolicy policy;
  policy.max_attempts = 3;
  pdms.set_retry_policy(policy);
  pdms.set_deadline(deadline);
  return pdms;
}

TEST(QpEquivalence, RetriesAndAMidUnionDeadlineMatchTheOracle) {
  // An AccessController over a FaultInjector, retrying, with a deadline
  // that runs out halfway through the union: the engine's single probe
  // per relation must leave the same access stats, exclusions, skips and
  // answers as the legacy evaluator's per-disjunct probes.
  for (uint64_t seed : {3u, 17u, 104u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    gen::Workload workload = MakeWorkload(seed, 6, 8);
    Pdms unbounded = FaultyPdms(workload, Deadline::Infinite());
    auto full = unbounded.AnswerWithReport(workload.query);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    const double budget = full->degradation.access.elapsed_ms / 2;
    ASSERT_GT(budget, 0.0);

    Pdms legacy = FaultyPdms(workload, Deadline::AfterMillis(budget));
    Pdms vectorized = FaultyPdms(workload, Deadline::AfterMillis(budget));
    auto want = LegacyAnswerWithReport(&legacy, workload.query);
    auto got = vectorized.AnswerWithReport(workload.query);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const AccessStats& a = got->degradation.access;
    const AccessStats& b = want->degradation.access;
    EXPECT_GT(a.timeouts, 0u);   // the deadline expired...
    EXPECT_GT(a.successes, 0u);  // ...after some relations were scanned
    EXPECT_GT(a.retries, 0u);
    EXPECT_EQ(a.ToString(), b.ToString());
    EXPECT_EQ(got->degradation.excluded_stored,
              want->degradation.excluded_stored);
    EXPECT_EQ(got->degradation.rewritings_skipped,
              want->degradation.rewritings_skipped);
    EXPECT_EQ(got->degradation.ToString(), want->degradation.ToString());
    EXPECT_EQ(Render(got).answers, Render(want).answers);
  }
}

}  // namespace
}  // namespace pdms
