// CachingPdms integration tests: the pre-wired facade serves repeat
// queries from the plan cache, emits the `cache.*` metrics and
// `cache_lookup` spans, invalidates on catalog mutations and availability
// flips, and keeps evaluating cached plans through the degraded path. The
// same hooks thread through SimPdms, where caches shared across facade
// instances survive because they are keyed by the catalog's scope. Also
// covers the disjunct-dedup satellite: isomorphic rewritings are dropped
// before evaluation and counted.

#include "pdms/cache/caching_pdms.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "pdms/lang/canonical.h"
#include "pdms/obs/metrics.h"
#include "pdms/obs/trace.h"
#include "pdms/sim/sim_pdms.h"

namespace pdms {
namespace cache {
namespace {

constexpr const char* kProgram = R"(
  peer A { relation R(x, y); }
  peer B { relation S(x, y); }
  stored sa(x, y) <= A:R(x, y).
  stored sb(x, y) <= B:S(x, y).
  mapping B:S(x, y) :- A:R(x, y).
  fact sa(1, 2).
  fact sa(2, 3).
  fact sb(5, 6).
)";

bool HasSpan(const obs::TraceContext& trace, const std::string& name,
             const std::string& attr_key, const std::string& attr_value) {
  for (const obs::Span& span : trace.spans()) {
    if (span.name != name) continue;
    for (const auto& [k, v] : span.attributes) {
      if (k == attr_key && v == attr_value) return true;
    }
  }
  return false;
}

TEST(CachingPdms, RepeatQueryHitsWithIdenticalAnswers) {
  CachingPdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(kProgram).ok());
  obs::MetricsRegistry metrics;
  obs::TraceContext trace;
  pdms.set_metrics(&metrics);
  pdms.set_trace(&trace);

  const std::string query = "q(x, y) :- B:S(x, y).";
  auto cold = pdms.Answer(query);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(metrics.counter("cache.misses"), 1u);
  EXPECT_EQ(metrics.counter("cache.inserts"), 1u);
  EXPECT_TRUE(HasSpan(trace, "cache_lookup", "result", "miss"));

  auto warm = pdms.Answer(query);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->ToString(), cold->ToString());
  EXPECT_EQ(metrics.counter("cache.hits"), 1u);
  EXPECT_EQ(pdms.plan_cache()->stats().hits, 1u);
  EXPECT_TRUE(HasSpan(trace, "cache_lookup", "result", "hit"));
  EXPECT_TRUE(HasSpan(trace, "query", "cache", "hit"));
}

TEST(CachingPdms, AlphaEquivalentQueriesShareOnePlan) {
  CachingPdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(kProgram).ok());
  ASSERT_TRUE(pdms.Answer("q(x, y) :- B:S(x, y).").ok());
  // Renamed variables, same canonical key: served from the cache.
  ASSERT_TRUE(pdms.Answer("q(u, v) :- B:S(u, v).").ok());
  EXPECT_EQ(pdms.plan_cache()->stats().hits, 1u);
  EXPECT_EQ(pdms.plan_cache()->size(), 1u);
}

TEST(CachingPdms, CachedPlanSeesNewFactsWithoutInvalidation) {
  // Fact inserts don't move the catalog revision: the plan stays cached
  // (reformulation is data-independent) and evaluation sees the new data.
  CachingPdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(kProgram).ok());
  const std::string query = "q(x, y) :- B:S(x, y).";
  ASSERT_TRUE(pdms.Answer(query).ok());
  ASSERT_TRUE(pdms.Insert("sa", {Value::Int(8), Value::Int(9)}).ok());
  auto warm = pdms.Answer(query);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(pdms.plan_cache()->stats().hits, 1u);
  EXPECT_TRUE(warm->Contains({Value::Int(8), Value::Int(9)}));
}

TEST(CachingPdms, MappingEditInvalidatesAndReplans) {
  CachingPdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(kProgram).ok());
  obs::MetricsRegistry metrics;
  pdms.set_metrics(&metrics);

  const std::string query = "q(x, y) :- B:S(x, y).";
  ASSERT_TRUE(pdms.Answer(query).ok());
  ASSERT_TRUE(pdms.LoadProgram(R"(
    peer C { relation T(x, y); }
    stored sc(x, y) <= C:T(x, y).
    mapping B:S(x, y) :- C:T(x, y).
    fact sc(7, 7).
  )").ok());
  auto after = pdms.Answer(query);
  ASSERT_TRUE(after.ok());
  EXPECT_GT(metrics.counter("cache.invalidations"), 0u);
  EXPECT_GT(pdms.plan_cache()->stats().invalidations, 0u);
  // The replanned query uses the new mapping.
  EXPECT_TRUE(after->Contains({Value::Int(7), Value::Int(7)}));
}

TEST(CachingPdms, AvailabilityFlipInvalidatesAndDegradesLikeCacheOff) {
  CachingPdms cached;
  ASSERT_TRUE(cached.LoadProgram(kProgram).ok());
  Pdms plain;
  ASSERT_TRUE(plain.LoadProgram(kProgram).ok());

  const std::string query = "q(x, y) :- B:S(x, y).";
  ASSERT_TRUE(cached.Answer(query).ok());  // warm at full availability

  ASSERT_TRUE(
      cached.mutable_network()->SetStoredRelationAvailable("sa", false).ok());
  ASSERT_TRUE(
      plain.mutable_network()->SetStoredRelationAvailable("sa", false).ok());
  auto degraded = cached.AnswerWithReport(query);
  auto expected = plain.AnswerWithReport(query);
  ASSERT_TRUE(degraded.ok());
  ASSERT_TRUE(expected.ok());
  EXPECT_GT(cached.plan_cache()->stats().invalidations, 0u);
  EXPECT_EQ(degraded->answers.ToString(), expected->answers.ToString());
  EXPECT_EQ(degraded->degradation.completeness,
            expected->degradation.completeness);

  // Flip back: the epoch moved again, so the stale full-availability plan
  // cannot resurface; the fresh plan answers completely.
  ASSERT_TRUE(
      cached.mutable_network()->SetStoredRelationAvailable("sa", true).ok());
  auto restored = cached.Answer(query);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->Contains({Value::Int(1), Value::Int(2)}));
}

TEST(CachingPdms, ClearAndBudgetControls) {
  CachingPdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(kProgram).ok());
  ASSERT_TRUE(pdms.Answer("q(x, y) :- B:S(x, y).").ok());
  EXPECT_GT(pdms.plan_cache()->size(), 0u);
  pdms.ClearCaches();
  EXPECT_EQ(pdms.plan_cache()->size(), 0u);

  ASSERT_TRUE(pdms.Answer("q(x, y) :- B:S(x, y).").ok());
  pdms.set_plan_budget_bytes(1);
  // The next insert evicts the oversized survivor; budgets stick.
  EXPECT_EQ(pdms.plan_cache()->budget_bytes(), 1u);
  std::string stats = pdms.CacheStatsString();
  EXPECT_NE(stats.find("plan cache"), std::string::npos);
}

TEST(CachingPdms, SharedCachesServeSimPdmsAcrossInstances) {
  // ppl_shell's pattern: one long-lived plan cache, a fresh SimPdms per
  // query. The second instance hits the plan the first one warmed because
  // the catalog scope is unchanged.
  Pdms base;
  ASSERT_TRUE(base.LoadProgram(kProgram).ok());
  PlanCache plans;

  auto run = [&](const std::string& query) {
    sim::SimPdms sim(base.network(), base.database());
    sim.set_plan_cache(&plans);
    auto result = sim.Answer(query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result->answers.ToString();
  };

  std::string cold = run("q(x, y) :- B:S(x, y).");
  EXPECT_EQ(plans.stats().hits, 0u);
  std::string warm = run("q(x, y) :- B:S(x, y).");
  EXPECT_EQ(plans.stats().hits, 1u);
  EXPECT_EQ(warm, cold);

  // A catalog mutation on the base instance moves the scope the next
  // SimPdms announces, invalidating the shared caches.
  ASSERT_TRUE(
      base.mutable_network()->SetStoredRelationAvailable("sa", false).ok());
  std::string degraded = run("q(x, y) :- B:S(x, y).");
  EXPECT_GT(plans.stats().invalidations, 0u);

  Pdms plain;
  ASSERT_TRUE(plain.LoadProgram(kProgram).ok());
  ASSERT_TRUE(
      plain.mutable_network()->SetStoredRelationAvailable("sa", false).ok());
  sim::SimPdms fresh(plain.network(), plain.database());
  auto expected = fresh.Answer("q(x, y) :- B:S(x, y).");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(degraded, expected->answers.ToString());
}

TEST(CachingPdms, IsomorphicDisjunctsAreDedupedAndCounted) {
  // Two identical mappings make every rewriting through B:S enumerate
  // twice; the enumerator must emit it once and count the duplicate.
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(R"(
    peer A { relation R(x, y); }
    peer B { relation S(x, y); }
    stored sa(x, y) <= A:R(x, y).
    mapping B:S(x, y) :- A:R(x, y).
    mapping B:S(u, v) :- A:R(u, v).
    fact sa(1, 2).
  )").ok());
  auto ref = pdms.Reformulate("q(x, y) :- B:S(x, y).");
  ASSERT_TRUE(ref.ok());
  EXPECT_GT(ref->stats.duplicate_disjuncts, 0u);
  std::set<std::string> keys;
  for (const ConjunctiveQuery& cq : ref->rewriting.disjuncts()) {
    EXPECT_TRUE(keys.insert(CanonicalQueryKey(cq)).second)
        << "duplicate disjunct survived: " << cq.ToString();
  }
  auto answers = pdms.Answer("q(x, y) :- B:S(x, y).");
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 1u);
}

}  // namespace
}  // namespace cache
}  // namespace pdms
