// Plan-cache unit tests: the byte-budgeted LRU map, scope invalidation
// (revision and availability epoch), the hit/miss/evict/invalidate
// counters, and the mid-churn insert guard — a plan reformulated under one
// scope must never be inserted after the network moved (the regression
// case is a revision bump racing an insert).

#include "pdms/cache/plan_cache.h"

#include <gtest/gtest.h>

#include <string>

#include "pdms/cache/lru.h"
#include "pdms/core/pdms.h"
#include "pdms/lang/parser.h"

namespace pdms {
namespace cache {
namespace {

ConjunctiveQuery Cq(const std::string& text) {
  auto q = ParseRuleText(text);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *q;
}

PlanCacheHook::Plan MakePlan(const std::string& rewriting_text) {
  PlanCacheHook::Plan plan;
  plan.rewriting.Add(Cq(rewriting_text));
  return plan;
}

// A network-less scope: the cache falls back to wholesale clearing on any
// (revision, epoch) movement — the behavior these unit tests pin down.
// Dependency-tracked invalidation (scopes with a network) is covered by
// cache_invalidation_test.cc and the churn DST.
CacheScope Scope(uint64_t revision, uint64_t epoch) {
  CacheScope scope;
  scope.revision = revision;
  scope.epoch = epoch;
  return scope;
}

// --- LruByteMap ---

TEST(LruByteMap, TouchPromotesAndPutEvictsFromTheBack) {
  LruByteMap<int> lru(30);
  EXPECT_EQ(lru.Put("a", 1, 10), 0u);
  EXPECT_EQ(lru.Put("b", 2, 10), 0u);
  EXPECT_EQ(lru.Put("c", 3, 10), 0u);
  EXPECT_EQ(lru.total_bytes(), 30u);

  // "a" is the LRU entry; touching it makes "b" the victim instead.
  ASSERT_NE(lru.Touch("a"), nullptr);
  EXPECT_EQ(lru.Put("d", 4, 10), 1u);
  EXPECT_EQ(lru.Touch("b"), nullptr);
  ASSERT_NE(lru.Touch("a"), nullptr);
  EXPECT_EQ(*lru.Touch("a"), 1);
}

TEST(LruByteMap, ReplacingAKeyAdjustsBytesWithoutEviction) {
  LruByteMap<int> lru(30);
  lru.Put("a", 1, 10);
  lru.Put("b", 2, 10);
  EXPECT_EQ(lru.Put("a", 9, 20), 0u);  // replace: 20 + 10 fits
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.total_bytes(), 30u);
  EXPECT_EQ(*lru.Touch("a"), 9);
}

TEST(LruByteMap, OversizedEntryIsAdmittedAloneThenEvictedByTheNextPut) {
  LruByteMap<int> lru(10);
  EXPECT_EQ(lru.Put("big", 1, 100), 0u);  // sole entry survives over budget
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.Put("small", 2, 5), 1u);  // "big" goes
  EXPECT_EQ(lru.Touch("big"), nullptr);
  ASSERT_NE(lru.Touch("small"), nullptr);
}

TEST(LruByteMap, ZeroByteChargeIsAdmittedAndNeverForcesEviction) {
  LruByteMap<int> lru(20);
  lru.Put("a", 1, 10);
  lru.Put("b", 2, 10);  // budget exactly full
  // A zero-charge entry fits in a full cache without evicting anything.
  EXPECT_EQ(lru.Put("free", 3, 0), 0u);
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.total_bytes(), 20u);
  ASSERT_NE(lru.Touch("free"), nullptr);
  EXPECT_EQ(*lru.Touch("free"), 3);
  // And it survives the eviction that a real charge triggers.
  EXPECT_EQ(lru.Put("c", 4, 10), 1u);
  ASSERT_NE(lru.Touch("free"), nullptr);
}

TEST(LruByteMap, ReinsertingWithALargerChargeEvictsToFit) {
  LruByteMap<int> lru(30);
  lru.Put("a", 1, 10);
  lru.Put("b", 2, 10);
  lru.Put("c", 3, 10);
  // Re-inserting "c" at triple the charge must evict the LRU entries, not
  // double-count the old charge.
  EXPECT_EQ(lru.Put("c", 9, 30), 2u);
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.total_bytes(), 30u);
  ASSERT_NE(lru.Touch("c"), nullptr);
  EXPECT_EQ(*lru.Touch("c"), 9);
}

TEST(LruByteMap, ShrinkingTheBudgetEvictsDown) {
  LruByteMap<int> lru(40);
  lru.Put("a", 1, 10);
  lru.Put("b", 2, 10);
  lru.Put("c", 3, 10);
  EXPECT_EQ(lru.SetBudget(15), 2u);  // only the MRU entry "c" fits
  EXPECT_EQ(lru.size(), 1u);
  ASSERT_NE(lru.Touch("c"), nullptr);
}

// --- PlanCache ---

TEST(PlanCache, HitAfterInsertInTheSameScope) {
  PlanCache cache;
  EXPECT_EQ(cache.EnterScope(Scope(1, 0)), 0u);
  EXPECT_EQ(cache.Find("k"), nullptr);
  auto outcome = cache.Insert("k", MakePlan("q(x) :- s(x, y)."), 1, 0);
  EXPECT_TRUE(outcome.stored);
  std::shared_ptr<const PlanCacheHook::Plan> hit = cache.Find("k");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->rewriting.size(), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().inserts, 1u);
}

TEST(PlanCache, RevisionChangeInvalidatesEverything) {
  PlanCache cache;
  cache.EnterScope(Scope(1, 0));
  cache.Insert("a", MakePlan("q(x) :- s(x, y)."), 1, 0);
  cache.Insert("b", MakePlan("q(x) :- t(x, y)."), 1, 0);
  // Same scope re-announced: nothing happens.
  EXPECT_EQ(cache.EnterScope(Scope(1, 0)), 0u);
  EXPECT_EQ(cache.size(), 2u);
  // Revision moved (a mapping edit): both entries are dead.
  EXPECT_EQ(cache.EnterScope(Scope(2, 0)), 2u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_EQ(cache.Find("a"), nullptr);
}

TEST(PlanCache, AvailabilityEpochChangeInvalidatesEverything) {
  PlanCache cache;
  cache.EnterScope(Scope(3, 7));
  cache.Insert("a", MakePlan("q(x) :- s(x, y)."), 3, 7);
  // Same revision, availability flipped: plans pruned sources that may be
  // back (or used sources now gone) — invalid either way.
  EXPECT_EQ(cache.EnterScope(Scope(3, 8)), 1u);
  EXPECT_EQ(cache.Find("a"), nullptr);
}

// The mid-churn regression: reformulation started at scope (1,0); while
// the plan was being built, the network moved (revision bump, or an
// availability flip). The insert must be dropped — storing it would serve
// a plan from a network that no longer exists at the very next Find.
TEST(PlanCache, InsertRacingARevisionBumpIsDropped) {
  PlanCache cache;
  cache.EnterScope(Scope(1, 0));
  auto outcome = cache.Insert("k", MakePlan("q(x) :- s(x, y)."), 2, 0);
  EXPECT_FALSE(outcome.stored);
  EXPECT_TRUE(outcome.dropped_stale);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().inserts_dropped_stale, 1u);

  // Same race via the availability epoch.
  outcome = cache.Insert("k", MakePlan("q(x) :- s(x, y)."), 1, 1);
  EXPECT_TRUE(outcome.dropped_stale);

  // No churn: the insert lands and the cache stays coherent.
  outcome = cache.Insert("k", MakePlan("q(x) :- s(x, y)."), 1, 0);
  EXPECT_TRUE(outcome.stored);
  EXPECT_NE(cache.Find("k"), nullptr);
  EXPECT_EQ(cache.stats().inserts_dropped_stale, 2u);
}

TEST(PlanCache, EvictionUnderTinyBudgetCountsEvictions) {
  PlanCache cache(/*budget_bytes=*/1);  // every insert evicts predecessors
  cache.EnterScope(Scope(1, 0));
  auto first = cache.Insert("a", MakePlan("q(x) :- s(x, y)."), 1, 0);
  EXPECT_TRUE(first.stored);
  EXPECT_EQ(first.evictions, 0u);  // oversized sole entry is admitted
  auto second = cache.Insert("b", MakePlan("q(x) :- t(x, y)."), 1, 0);
  EXPECT_TRUE(second.stored);
  EXPECT_EQ(second.evictions, 1u);
  EXPECT_EQ(cache.Find("a"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(PlanCache, ClearDropsEntriesButKeepsCounters) {
  PlanCache cache;
  cache.EnterScope(Scope(1, 0));
  cache.Insert("a", MakePlan("q(x) :- s(x, y)."), 1, 0);
  cache.Find("a");
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().invalidations, 0u);  // operator clear, not churn
  // The scope is untouched: inserts in the declared scope still land.
  EXPECT_TRUE(cache.Insert("a", MakePlan("q(x) :- s(x, y)."), 1, 0).stored);
}

TEST(PlanCache, EstimateGrowsWithPlanSize) {
  PlanCacheHook::Plan small = MakePlan("q(x) :- s(x, y).");
  PlanCacheHook::Plan big = MakePlan("q(x) :- s(x, y), t(y, z), u(z, w).");
  big.rewriting.Add(Cq("q(x) :- v(x, y)."));
  EXPECT_GT(PlanCache::EstimatePlanBytes("k", big),
            PlanCache::EstimatePlanBytes("k", small));
}

// OptionsFingerprint scopes the plan cache: builds share cached plans
// only when their fingerprints agree.
TEST(PlanCache, FingerprintSeparatesSourceRestrictions) {
  ReformulationOptions a;
  ReformulationOptions b;
  b.unavailable_stored.insert("sa");
  ReformulationOptions c;
  c.allowed_stored.insert("sv");
  // Availability is deliberately NOT part of the fingerprint: flips are
  // catalog change events handled by dependency-tracked invalidation, so
  // entries untouched by a flip keep hitting (docs/churn_invalidation.md).
  EXPECT_EQ(OptionsFingerprint(a), OptionsFingerprint(b));
  // The allow-list *is* structural: it shapes which expansions exist.
  EXPECT_NE(OptionsFingerprint(a), OptionsFingerprint(c));
  EXPECT_NE(OptionsFingerprint(b), OptionsFingerprint(c));
  EXPECT_EQ(OptionsFingerprint(a), OptionsFingerprint(ReformulationOptions{}));
  // The tree-node budget is deliberately *not* part of the fingerprint:
  // only untruncated plans are cached, and those are budget-invariant.
  ReformulationOptions d;
  d.max_tree_nodes = 7;
  EXPECT_EQ(OptionsFingerprint(a), OptionsFingerprint(d));
}

}  // namespace
}  // namespace cache
}  // namespace pdms
