// The vectorized engine's acceptance property (docs/query_planning.md):
// on seeded random PDMSs with data — the paper's Figure-3 chain-of-peers
// shape — the vectorized evaluator must return byte-identical answers to
// the legacy tuple-at-a-time evaluator after canonical ordering, across
// thread counts (1/2/8) and plan-cache states (cold, warm, shared). The
// legacy evaluator stays in the tree as the oracle (legacy_oracle.h)
// exactly so this suite can hold the line.

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pdms/cache/goal_memo.h"
#include "pdms/cache/plan_cache.h"
#include "pdms/core/pdms.h"
#include "pdms/gen/workload.h"
#include "pdms/obs/metrics.h"
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

Pdms MakePdms(const gen::Workload& workload, size_t threads) {
  ReformulationOptions options;
  options.threads = threads;
  Pdms pdms(options);
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

TEST(QpEquivalence, VectorizedMatchesLegacyAcrossSeedsAndThreads) {
  for (uint64_t seed : {3u, 17u, 58u, 104u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    gen::Workload workload =
        MakeWorkload(seed, /*facts_per_stored=*/6, /*value_domain=*/8);
    Pdms legacy = MakePdms(workload, /*threads=*/1);
    Outcome want = RunOracle(&legacy, workload.query);
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      Pdms vectorized = MakePdms(workload, threads);
      Outcome got = RunOne(&vectorized, workload.query);
      EXPECT_EQ(got.answers, want.answers);
      EXPECT_EQ(got.report, want.report);
    }
  }
}

TEST(QpEquivalence, SparseAndDenseValueDomains) {
  // A tight value domain forces dense joins (heavy duplicate elimination);
  // a wide one makes most joins miss. Both must agree with legacy.
  for (int64_t domain : {int64_t{2}, int64_t{64}}) {
    SCOPED_TRACE("domain " + std::to_string(domain));
    gen::Workload workload = MakeWorkload(29, /*facts_per_stored=*/8, domain);
    Pdms legacy = MakePdms(workload, 1);
    Pdms vectorized = MakePdms(workload, 2);
    Outcome want = RunOracle(&legacy, workload.query);
    Outcome got = RunOne(&vectorized, workload.query);
    EXPECT_EQ(got.answers, want.answers);
    EXPECT_EQ(got.report, want.report);
  }
}

TEST(QpEquivalence, PlanCacheStateDoesNotChangeAnswers) {
  gen::Workload workload = MakeWorkload(41, 6, 8);
  Pdms legacy = MakePdms(workload, 1);
  Outcome want = RunOracle(&legacy, workload.query);

  // Cold, then warm through the same facade-attached cache: the second
  // query reuses both the rewriting and the cached physical plan.
  cache::PlanCache cache;
  obs::MetricsRegistry metrics;
  Pdms vectorized = MakePdms(workload, 2);
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
  Pdms sharer = MakePdms(workload, 1);
  sharer.set_plan_cache(&cache);
  Outcome shared = RunOne(&sharer, workload.query);
  EXPECT_EQ(shared.answers, want.answers);
}

TEST(QpEquivalence, InsertsBetweenQueriesKeepTheEnginesAligned) {
  // Facts inserted after the first answer must show up identically in
  // both engines (the catalog refreshes incrementally; the cached plan's
  // fingerprint goes stale and is recompiled).
  gen::Workload workload = MakeWorkload(77, 5, 6);
  Pdms legacy = MakePdms(workload, 1);
  Pdms vectorized = MakePdms(workload, 2);
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

}  // namespace
}  // namespace pdms
