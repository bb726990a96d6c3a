// Dependency-tracked invalidation: scopes carrying a network make the
// caches digest the catalog's change log and drop exactly the entries
// whose recorded footprint a change touches — unrelated entries keep
// hitting across churn. These tests pin the selective behavior down with
// real networks; the wholesale fallback (network-less scopes) is covered
// by plan_cache_test.cc, and whole-schedule equivalence by the churn DST.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pdms/cache/dependency_index.h"
#include "pdms/cache/plan_cache.h"
#include "pdms/core/pdms.h"
#include "pdms/lang/parser.h"

namespace pdms {
namespace cache {
namespace {

// --- DependencyIndex ---

DepSet Deps(std::vector<std::string> preds) {
  DepSet deps;
  for (std::string& p : preds) deps.predicates.insert(std::move(p));
  return deps;
}

TEST(DependencyIndex, MatchesByPredicateIntersection) {
  DependencyIndex index;
  index.Add("k1", Deps({"A:R", "sa"}));
  index.Add("k2", Deps({"B:S", "sb"}));
  index.Add("k3", Deps({"A:R", "B:S"}));
  EXPECT_EQ(index.Match({"A:R"}),
            (std::vector<std::string>{"k1", "k3"}));
  EXPECT_EQ(index.Match({"sb"}),
            (std::vector<std::string>{"k2"}));
  EXPECT_TRUE(index.Match({"unrelated"}).empty());
}

TEST(DependencyIndex, RemoveAndReAddReplaceTheFootprint) {
  DependencyIndex index;
  index.Add("k", Deps({"A:R"}));
  index.Add("k", Deps({"B:S"}));  // re-registration replaces, not merges
  EXPECT_TRUE(index.Match({"A:R"}).empty());
  EXPECT_EQ(index.Match({"B:S"}),
            (std::vector<std::string>{"k"}));
  index.Remove("k");
  EXPECT_TRUE(index.Match({"B:S"}).empty());
  EXPECT_EQ(index.size(), 0u);
}

// --- Selective invalidation through the facade ---

// Two independent chains (C:T over B:S over A:R, and F:W over E:V over
// D:U) sharing nothing: churn on one side must never drop plans warmed on
// the other.
constexpr const char* kTwoIslands = R"(
  peer A { relation R(x, y); }
  peer B { relation S(x, y); }
  peer C { relation T(x, y); }
  peer D { relation U(x, y); }
  peer E { relation V(x, y); }
  peer F { relation W(x, y); }
  stored sa(x, y) <= A:R(x, y).
  stored sd(x, y) <= D:U(x, y).
  mapping B:S(x, y) :- A:R(x, y).
  mapping C:T(x, y) :- B:S(x, y).
  mapping E:V(x, y) :- D:U(x, y).
  mapping F:W(x, y) :- E:V(x, y).
  fact sa(1, 2).
  fact sd(3, 4).
)";

TEST(SelectiveInvalidation, MappingEditDropsOnlyTouchedPlans) {
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(kTwoIslands).ok());
  PlanCache plans;
  pdms.set_plan_cache(&plans);

  ASSERT_TRUE(pdms.Answer("q(x, y) :- C:T(x, y).").ok());
  ASSERT_TRUE(pdms.Answer("p(x, y) :- F:W(x, y).").ok());
  EXPECT_EQ(plans.size(), 2u);

  // Edit the C-island mapping: the C plan dies, the F plan survives and
  // the next F query is a pure hit.
  auto mappings = pdms.network().peer_mappings();
  std::string name;
  for (const auto& m : mappings) {
    if (m.rule.head().predicate() == "B:S") name = m.name;
  }
  ASSERT_FALSE(name.empty());
  auto edited = ParseRuleText("q(x, y) :- A:R(y, x).");
  ASSERT_TRUE(edited.ok());
  PeerMapping next;
  next.kind = PeerMappingKind::kDefinitional;
  next.rule = Rule(Atom("B:S", {Term::Var("x"), Term::Var("y")}),
                   edited->body());
  ASSERT_TRUE(
      pdms.mutable_network()->ReplacePeerMapping(name, next).ok());

  size_t hits_before = plans.stats().hits;
  ASSERT_TRUE(pdms.Answer("p(x, y) :- F:W(x, y).").ok());
  EXPECT_EQ(plans.stats().hits, hits_before + 1)
      << "the untouched island must keep hitting";
  EXPECT_EQ(plans.stats().invalidations, 1u)
      << "exactly the edited island's plan is dropped";
  // And the edited island reformulates fresh, seeing the new mapping.
  auto after = pdms.Answer("q(x, y) :- C:T(x, y).");
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->Contains({Value::Int(2), Value::Int(1)}));
}

TEST(SelectiveInvalidation, AvailabilityFlipDropsOnlyDependentPlans) {
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(kTwoIslands).ok());
  PlanCache plans;
  pdms.set_plan_cache(&plans);

  ASSERT_TRUE(pdms.Answer("q(x, y) :- C:T(x, y).").ok());
  ASSERT_TRUE(pdms.Answer("p(x, y) :- F:W(x, y).").ok());

  // sd down: the F plan depended on it (via reachability); the C plan is
  // untouched and must hit.
  ASSERT_TRUE(
      pdms.mutable_network()->SetStoredRelationAvailable("sd", false).ok());
  size_t hits_before = plans.stats().hits;
  ASSERT_TRUE(pdms.Answer("q(x, y) :- C:T(x, y).").ok());
  EXPECT_EQ(plans.stats().hits, hits_before + 1);
  EXPECT_GE(plans.stats().invalidations, 1u);

  // Flip it back: again only the F side is affected.
  ASSERT_TRUE(
      pdms.mutable_network()->SetStoredRelationAvailable("sd", true).ok());
  hits_before = plans.stats().hits;
  ASSERT_TRUE(pdms.Answer("q(x, y) :- C:T(x, y).").ok());
  EXPECT_EQ(plans.stats().hits, hits_before + 1);
}

TEST(SelectiveInvalidation, FactInsertsNeverInvalidate) {
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(kTwoIslands).ok());
  PlanCache plans;
  pdms.set_plan_cache(&plans);

  ASSERT_TRUE(pdms.Answer("q(x, y) :- C:T(x, y).").ok());
  ASSERT_TRUE(pdms.Insert("sa", {Value::Int(7), Value::Int(8)}).ok());
  size_t hits_before = plans.stats().hits;
  auto after = pdms.Answer("q(x, y) :- C:T(x, y).");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(plans.stats().hits, hits_before + 1)
      << "rewritings are data-independent; inserts must not invalidate";
  EXPECT_EQ(plans.stats().invalidations, 0u);
  // The new fact flows through the cached plan.
  EXPECT_TRUE(after->Contains({Value::Int(7), Value::Int(8)}));
}

TEST(SelectiveInvalidation, MappingRemovalRenumbersIdsButKeepsUntouchedPlans) {
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(kTwoIslands).ok());
  PlanCache plans;
  pdms.set_plan_cache(&plans);

  const std::vector<std::string> queries = {
      "q(x, y) :- C:T(x, y).", "p(x, y) :- F:W(x, y).",
      "r(x, y) :- B:S(x, y).", "s(x, y) :- E:V(x, y)."};
  for (const std::string& query : queries) {
    ASSERT_TRUE(pdms.Answer(query).ok());
  }
  EXPECT_EQ(plans.size(), queries.size());

  // Removing the first mapping (B:S, on the C island) renumbers every
  // later description id, the F island's included. Plans embed no ids —
  // rewritings are plain queries over stored relations — so only the C
  // island's plans are stale: the F island's keep hitting.
  std::string victim = pdms.network().peer_mappings().front().name;
  ASSERT_EQ(pdms.network().peer_mappings().front().rule.head().predicate(),
            "B:S");
  ASSERT_TRUE(pdms.mutable_network()->RemovePeerMapping(victim).ok());
  size_t hits_before = plans.stats().hits;
  ASSERT_TRUE(pdms.Answer("p(x, y) :- F:W(x, y).").ok());
  ASSERT_TRUE(pdms.Answer("s(x, y) :- E:V(x, y).").ok());
  EXPECT_EQ(plans.stats().hits, hits_before + 2)
      << "renumbered ids alone must not stale a plan";
  EXPECT_EQ(plans.stats().invalidations, 2u)
      << "exactly the C island's plans are dropped";

  // Every answer, cached or not, equals a fresh facade's over the same
  // edited network.
  Pdms fresh;
  ASSERT_TRUE(fresh.LoadProgram(kTwoIslands).ok());
  ASSERT_TRUE(fresh.mutable_network()->RemovePeerMapping(victim).ok());
  for (const std::string& query : queries) {
    auto actual = pdms.Answer(query);
    auto expected = fresh.Answer(query);
    ASSERT_EQ(actual.ok(), expected.ok()) << query;
    if (!expected.ok()) continue;
    EXPECT_EQ(actual->ToString(), expected->ToString()) << query;
  }
}

TEST(SelectiveInvalidation, WholesaleModeClearsOnAnyMovement) {
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(kTwoIslands).ok());
  PlanCache plans;
  plans.set_wholesale_invalidation(true);
  pdms.set_plan_cache(&plans);

  ASSERT_TRUE(pdms.Answer("q(x, y) :- C:T(x, y).").ok());
  ASSERT_TRUE(pdms.Answer("p(x, y) :- F:W(x, y).").ok());
  EXPECT_EQ(plans.size(), 2u);
  // An edit on the C island clears both islands in wholesale mode — the
  // negative control the churn DST's hit-rate assertion leans on.
  std::string victim = pdms.network().peer_mappings().front().name;
  ASSERT_TRUE(pdms.mutable_network()->RemovePeerMapping(victim).ok());
  ASSERT_TRUE(pdms.Answer("p(x, y) :- F:W(x, y).").ok());
  EXPECT_EQ(plans.stats().invalidations, 2u);
}

// A scope whose options fingerprint moved (e.g. the allow-list changed)
// is a different world: the tracked path must fall back to a full reset.
TEST(SelectiveInvalidation, FingerprintChangeForcesFullReset) {
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(kTwoIslands).ok());
  PlanCache plans;
  pdms.set_plan_cache(&plans);

  ASSERT_TRUE(pdms.Answer("q(x, y) :- C:T(x, y).").ok());
  EXPECT_EQ(plans.size(), 1u);
  ReformulationOptions restricted = pdms.options();
  restricted.allowed_stored.insert("sa");
  pdms.set_options(restricted);
  ASSERT_TRUE(pdms.Answer("q(x, y) :- C:T(x, y).").ok());
  EXPECT_GE(plans.stats().invalidations, 1u);
}

}  // namespace
}  // namespace cache
}  // namespace pdms
