// Shared-prefix execution of a cached union (docs/query_planning.md): the
// UnionPlan stores its disjuncts as one prefix trie, and ExecuteUnion runs
// every common prefix once. This suite holds the trie to two oracles:
//
//  - per disjunct, ExecuteDisjunct over that disjunct's own plan returns
//    the same tuples in the same order as the disjunct's trie leaf;
//  - per union, the engine's answers, skips and unavailable relations
//    equal the legacy tuple-at-a-time evaluator's.
//
// It covers generator worlds (seeds x diameters 1-4, comparisons on), the
// 256-facts-per-relation top-stratum serving shape, and hand-built unions
// for each way two prefixes can agree or differ.

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pdms/core/pdms.h"
#include "pdms/eval/evaluator.h"
#include "pdms/gen/workload.h"
#include "pdms/lang/parser.h"
#include "pdms/obs/metrics.h"
#include "pdms/obs/trace.h"
#include "pdms/qp/engine.h"
#include "pdms/qp/planner.h"
#include "pdms/qp/vectorized.h"
#include "pdms/util/rng.h"

namespace pdms {
namespace qp {
namespace {

ConjunctiveQuery Q(const std::string& text) {
  auto cq = ParseRuleText(text);
  EXPECT_TRUE(cq.ok()) << text << ": " << cq.status().ToString();
  return *cq;
}

ColumnarCatalog EnsuredCatalog(const UnionQuery& uq, const Database& db) {
  ColumnarCatalog catalog;
  for (const ConjunctiveQuery& cq : uq.disjuncts()) {
    for (const Atom& a : cq.body()) {
      const Relation* rel = db.Find(a.predicate());
      if (rel != nullptr) catalog.Ensure(*rel);
    }
  }
  return catalog;
}

// Whether `gate` lets every relation of `cq` through.
bool Admitted(const ConjunctiveQuery& cq, const StoredGate& gate) {
  if (!gate) return true;
  for (const Atom& a : cq.body()) {
    if (!gate(a.predicate()).ok()) return false;
  }
  return true;
}

// Trie leaves against per-disjunct execution of the same plan: same tuples
// in the same order. `plan` is executed for the admitted disjuncts.
void ExpectLeavesMatchDisjuncts(const UnionPlan& plan, const UnionQuery& uq,
                                const Database& db,
                                const ColumnarCatalog& catalog,
                                const StoredGate& gate) {
  ASSERT_EQ(plan.disjuncts.size(), uq.size());
  std::vector<char> run(uq.size(), 0);
  for (size_t d = 0; d < uq.size(); ++d) {
    run[d] = Admitted(uq.disjuncts()[d], gate) && plan.disjuncts[d].const_ok;
  }
  std::vector<const JoinTable*> tables(plan.join_tables.size(), nullptr);
  std::vector<std::vector<Tuple>> shards(uq.size());
  ExecuteUnion(plan, run, MarkPaths(plan, run), tables, db, catalog, &shards);
  for (size_t d = 0; d < uq.size(); ++d) {
    SCOPED_TRACE("disjunct " + std::to_string(d) + ": " +
                 uq.disjuncts()[d].ToString());
    if (!Admitted(uq.disjuncts()[d], gate)) {
      EXPECT_TRUE(shards[d].empty());
      continue;
    }
    auto dp = PlanDisjunct(uq.disjuncts()[d], db, catalog);
    ASSERT_TRUE(dp.ok()) << dp.status().ToString();
    auto alone = ExecuteDisjunct(*dp, db, catalog, nullptr);
    ASSERT_TRUE(alone.ok()) << alone.status().ToString();
    EXPECT_EQ(shards[d], *alone);
  }
}

// The full check of one union: leaves against disjuncts, and the engine's
// union evaluation against the legacy oracle.
void CheckUnion(const UnionQuery& uq, const Database& db,
                const StoredGate& gate = nullptr) {
  ColumnarCatalog catalog = EnsuredCatalog(uq, db);
  auto plan = PlanUnion(uq, db, catalog);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto want = EvaluateUnionDegraded(uq, db, gate);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  want->answers.SortCanonical();
  ExpectLeavesMatchDisjuncts(*plan, uq, db, catalog, gate);
  Engine engine;
  auto got = engine.EvaluateUnionDegraded(uq, db, gate);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->answers.tuples(), want->answers.tuples());
  EXPECT_EQ(got->disjuncts_skipped, want->disjuncts_skipped);
  EXPECT_EQ(got->unavailable_relations, want->unavailable_relations);
}

UnionQuery Reformulated(const PdmsNetwork& network, const Database& data,
                        const ConjunctiveQuery& query) {
  Pdms pdms;
  *pdms.mutable_network() = network;
  *pdms.mutable_database() = data;
  auto ref = pdms.Reformulate(query);
  EXPECT_TRUE(ref.ok()) << ref.status().ToString();
  return ref.ok() ? ref->rewriting : UnionQuery();
}

TEST(SharedPrefix, GeneratorWorldsAcrossSeedsAndDiameters) {
  for (uint64_t seed : {5u, 23u, 61u}) {
    for (size_t diameter = 1; diameter <= 4; ++diameter) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " diameter " +
                   std::to_string(diameter));
      gen::WorkloadConfig config;
      config.num_peers = 18;
      config.num_strata = diameter;
      config.definitional_fraction = 0.25;
      config.providers_per_relation = 2;
      config.comparison_fraction = 0.2;
      config.facts_per_stored = 6;
      config.value_domain = 6;
      config.seed = seed;
      // One subgoal from diameter 3 keeps the unions small enough for the
      // sanitizer legs.
      config.query_subgoals = diameter >= 3 ? 1 : 2;
      auto workload = gen::GenerateWorkload(config);
      ASSERT_TRUE(workload.ok()) << workload.status().ToString();
      UnionQuery uq =
          Reformulated(workload->network, workload->data, workload->query);
      CheckUnion(uq, workload->data);
    }
  }
}

TEST(SharedPrefix, TopStratumServingShape) {
  // The serving benchmark's world: the Figure-3 catalog (48 peers,
  // diameter 4) with 256 uniform facts per stored relation over 1,024
  // values, queried at a top-stratum relation; its union holds hundreds
  // of long chain rewritings that mostly share prefixes.
  gen::WorkloadConfig config;
  config.num_peers = 48;
  config.num_strata = 4;
  config.definitional_fraction = 0.25;
  config.providers_per_relation = 2;
  config.facts_per_stored = 0;
  config.value_domain = 1024;
  config.seed = 1;
  auto workload = gen::GenerateWorkload(config);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  Database data;
  Rng rng(1);
  for (const std::string& name : workload->network.StoredRelationNames()) {
    auto arity = workload->network.RelationArity(name);
    ASSERT_TRUE(arity.ok());
    ASSERT_TRUE(data.CreateRelation(name, *arity).ok());
    for (size_t i = 0; i < 256; ++i) {
      Tuple tuple;
      for (size_t k = 0; k < *arity; ++k) {
        tuple.push_back(Value::Int(rng.UniformInt(0, 1023)));
      }
      data.Insert(name, std::move(tuple));
    }
  }
  UnionQuery uq =
      Reformulated(workload->network, data, Q("Q(x, y) :- P5:F0(x, y)."));
  ASSERT_GT(uq.size(), 100u);
  ColumnarCatalog catalog = EnsuredCatalog(uq, data);
  auto plan = PlanUnion(uq, data, catalog);
  ASSERT_TRUE(plan.ok());
  size_t steps = 0;
  for (const ConjunctiveQuery& cq : uq.disjuncts()) steps += cq.body().size();
  EXPECT_LT(plan->nodes.size() - 1, steps);  // prefixes are shared
  CheckUnion(uq, data);
}

Database HandDb() {
  Database db;
  for (auto [a, b] : {std::pair{1, 2}, {2, 3}, {3, 4}, {2, 2}, {5, 3}}) {
    db.Insert("r", {Value::Int(a), Value::Int(b)});
  }
  for (auto [a, b] :
       {std::pair{2, 5}, {3, 6}, {4, 7}, {2, 1}, {3, 3}, {9, 9}}) {
    db.Insert("s", {Value::Int(a), Value::Int(b)});
  }
  for (auto [a, b] :
       {std::pair{5, 1}, {6, 2}, {7, 1}, {1, 1}, {3, 8}, {8, 8}}) {
    db.Insert("t", {Value::Int(a), Value::Int(b)});
  }
  db.Insert("blocked", {Value::Int(2), Value::Int(5)});
  return db;
}

TEST(SharedPrefix, EqualPrefixesWithDifferentHeads) {
  CheckUnion(UnionQuery({Q("q(x, z) :- r(x, y), s(y, z)."),
                         Q("q(z, x) :- r(x, y), s(y, z)."),
                         Q("q(y, y) :- r(x, y), s(y, z)."),
                         Q("q(x, 7) :- r(x, y), s(y, z)."),
                         Q("q(x, y) :- r(x, y).")}),
             HandDb());
}

TEST(SharedPrefix, PrefixesThatDifferInFilterOrKeyColumns) {
  UnionQuery uq({Q("q(x, y) :- r(x, y), s(y, 5)."),
                 Q("q(x, y) :- r(x, y), s(y, 6)."),
                 Q("q(x, z) :- r(x, y), s(y, z)."),
                 Q("q(x, z) :- r(x, y), s(z, y)."),
                 Q("q(x, y) :- r(x, y), s(y, y).")});
  Database db = HandDb();
  CheckUnion(uq, db);
  // Same relations and binds, different filters or key columns: no two
  // of these second steps may share a node.
  ColumnarCatalog catalog = EnsuredCatalog(uq, db);
  auto plan = PlanUnion(uq, db, catalog);
  ASSERT_TRUE(plan.ok());
  std::vector<uint32_t> ends;
  for (const DisjunctLeaf& leaf : plan->disjuncts) ends.push_back(leaf.node);
  for (size_t a = 0; a < ends.size(); ++a) {
    for (size_t b = a + 1; b < ends.size(); ++b) {
      EXPECT_NE(ends[a], ends[b]) << a << " vs " << b;
    }
  }
}

TEST(SharedPrefix, PrefixesThatDifferOnlyInBuildSide) {
  // One catalog never plans the same step with two build sides, so the
  // second disjunct is the first with its join's build side flipped.
  Database db = HandDb();
  ConjunctiveQuery cq = Q("q(x, z) :- r(x, y), s(y, z).");
  UnionQuery uq({cq, cq});
  ColumnarCatalog catalog = EnsuredCatalog(uq, db);
  auto plain = PlanDisjunct(cq, db, catalog);
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->steps.size(), 2u);
  DisjunctPlan flipped = *plain;
  flipped.steps[1].build_on_atom = !flipped.steps[1].build_on_atom;
  UnionPlanBuilder builder;
  builder.Add(*plain);
  builder.Add(flipped);
  UnionPlan plan = std::move(builder).Finish();
  EXPECT_EQ(plan.nodes.size(), 4u);  // root, the shared scan, two joins
  EXPECT_EQ(plan.nodes[plan.disjuncts[0].node].parent,
            plan.nodes[plan.disjuncts[1].node].parent);
  std::vector<char> run = {1, 1};
  std::vector<const JoinTable*> tables(plan.join_tables.size(), nullptr);
  std::vector<std::vector<Tuple>> shards(2);
  EXPECT_EQ(ExecuteUnion(plan, run, MarkPaths(plan, run), tables, db,
                         catalog, &shards),
            3u);
  auto want_plain = ExecuteDisjunct(*plain, db, catalog, nullptr);
  auto want_flipped = ExecuteDisjunct(flipped, db, catalog, nullptr);
  ASSERT_TRUE(want_plain.ok() && want_flipped.ok());
  EXPECT_EQ(shards[0], *want_plain);
  EXPECT_EQ(shards[1], *want_flipped);
}

TEST(SharedPrefix, CrossProductsGroundBodiesAndConstantComparisons) {
  ConjunctiveQuery ground_true(
      Atom("q", {Term::Constant(Value::Int(1)), Term::Constant(Value::Int(2))}),
      {}, {Comparison{Term::Constant(Value::Int(1)), CmpOp::kLt,
                      Term::Constant(Value::Int(2))}});
  ConjunctiveQuery ground_false(
      Atom("q", {Term::Constant(Value::Int(3)), Term::Constant(Value::Int(4))}),
      {}, {Comparison{Term::Constant(Value::Int(2)), CmpOp::kLt,
                      Term::Constant(Value::Int(1))}});
  ConjunctiveQuery false_with_body(
      Atom("q", {Term::Var("x"), Term::Var("y")}),
      {Atom("r", {Term::Var("x"), Term::Var("y")})},
      {Comparison{Term::Constant(Value::Int(5)), CmpOp::kLt,
                  Term::Constant(Value::Int(1))}});
  CheckUnion(UnionQuery({Q("q(x, z) :- r(x, 2), t(z, 1)."),
                         Q("q(x, z) :- r(x, 2), t(z, 1), s(x, z)."),
                         ground_true, ground_false, false_with_body,
                         Q("q(x, y) :- r(x, y).")}),
             HandDb());
}

TEST(SharedPrefix, RepeatedVariablesAndComparisons) {
  CheckUnion(UnionQuery({Q("q(x, x) :- r(x, x)."),
                         Q("q(x, y) :- r(x, y), s(y, y)."),
                         Q("q(x, y) :- r(x, y), s(y, y), x < y."),
                         Q("q(x, z) :- r(x, y), s(y, z), z > 4."),
                         Q("q(x, z) :- r(x, y), s(y, z), z > 4, t(z, w).")}),
             HandDb());
}

TEST(SharedPrefix, GatedOutDisjunctInsideASharedPrefix) {
  StoredGate gate = [](const std::string& relation) {
    return relation == "blocked" ? Status::Unavailable("gated off")
                                 : Status::Ok();
  };
  CheckUnion(UnionQuery({Q("q(x, z) :- r(x, y), s(y, z)."),
                         Q("q(x, z) :- r(x, y), blocked(y, z)."),
                         Q("q(x, z) :- r(x, y), s(y, z), blocked(y, z)."),
                         Q("q(x, y) :- r(x, y).")}),
             HandDb(), gate);
}

TEST(SharedPrefix, ExecStepsCountsEachSharedPrefixOnce) {
  // r (5 rows) is the cheapest non-empty scan; e is empty, so it plans
  // first and prunes its subtree. The trie:
  //
  //   root
  //   ├── r                  leaf 2
  //   │   ├── s              leaves 0, 1
  //   │   └── s [z > 100]    leaf 4
  //   │       └── t          leaf 5
  //   └── e
  //       └── r
  //           └── s          leaf 3
  //
  // Executed: r, s, s[z > 100] (empty: t never runs), e (empty) = 4
  // steps, against 2+2+1+1+2+2 = 10 per disjunct.
  Database db = HandDb();
  ASSERT_TRUE(db.CreateRelation("e", 2).ok());
  UnionQuery uq({Q("q(x, z) :- r(x, y), s(y, z)."),
                 Q("q(z, x) :- r(x, y), s(y, z)."),
                 Q("q(x, y) :- r(x, y)."),
                 Q("q(x, w) :- r(x, y), e(y, w), s(w, z)."),
                 Q("q(x, z) :- r(x, y), s(y, z), z > 100."),
                 Q("q(x, w) :- r(x, y), s(y, z), z > 100, t(z, w).")});
  obs::MetricsRegistry metrics;
  obs::TraceContext trace;
  Engine engine;
  auto got = engine.EvaluateUnionDegraded(uq, db, nullptr, &trace, &metrics);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(metrics.counter("qp.exec_steps"), 4u);
  EXPECT_EQ(metrics.counter("qp.exec_disjuncts"), 6u);
  const obs::Span* plan_span = nullptr;
  const obs::Span* exec_span = nullptr;
  for (const obs::Span& s : trace.spans()) {
    if (s.name == "qp.plan") plan_span = &s;
    if (s.name == "qp.exec") exec_span = &s;
  }
  ASSERT_NE(plan_span, nullptr);
  ASSERT_NE(exec_span, nullptr);
  ASSERT_NE(plan_span->FindAttribute("nodes"), nullptr);
  EXPECT_EQ(*plan_span->FindAttribute("nodes"), "7");
  ASSERT_NE(exec_span->FindAttribute("steps"), nullptr);
  EXPECT_EQ(*exec_span->FindAttribute("steps"), "4");
  CheckUnion(uq, db);
}

// The step kernel reuses one intermediate buffer per trie depth and one
// scratch set per execution, so the cases below make consecutive siblings
// differ in everything a stale buffer could leak: slot width, row count,
// depth, and emptiness.

TEST(SharedPrefix, SiblingsOfDifferentWidthsAndRowCounts) {
  // Under the shared r scan: a 30-row, 4-slot cross product, then a
  // filtered 3-slot join, then a 2-slot self-filter, then a wide join
  // again — each refilling the buffer the previous sibling left behind.
  CheckUnion(UnionQuery({Q("q(x, w) :- r(x, y), s(z, w)."),
                         Q("q(x, z) :- r(x, y), s(y, z), z > 2."),
                         Q("q(x, y) :- r(x, y), s(y, y)."),
                         Q("q(x, y) :- r(x, y), s(y, 5)."),
                         Q("q(w, x) :- r(x, y), s(z, w), t(w, v).")}),
             HandDb());
}

TEST(SharedPrefix, DeepPathFollowedByAShallowSibling) {
  CheckUnion(UnionQuery({Q("q(a, e) :- r(a, b), s(b, c), t(c, d), r(d, e)."),
                         Q("q(a, d) :- r(a, b), s(b, c), t(c, d)."),
                         Q("q(a, b) :- r(a, b), t(b, c)."),
                         Q("q(a, c) :- r(a, b), s(b, c), r(c, d), s(d, e)."),
                         Q("q(a, b) :- r(a, b).")}),
             HandDb());
}

TEST(SharedPrefix, StepThatGoesEmptyAfterANonEmptySibling) {
  // The second and third joins find no rows (a constant the dictionary
  // never saw; a comparison nothing passes) right after a sibling that
  // filled the same buffer, and a non-empty sibling follows them.
  CheckUnion(UnionQuery({Q("q(x, z) :- r(x, y), s(y, z)."),
                         Q("q(x, y) :- r(x, y), s(y, 100)."),
                         Q("q(x, z) :- r(x, y), s(y, z), z > 100, t(z, w)."),
                         Q("q(x, w) :- r(x, y), t(y, w)."),
                         Q("q(x, w) :- r(x, y), s(y, 100), t(y, w).")}),
             HandDb());
}

TEST(SharedPrefix, WarmEngineAlternatingOpenAndVetoingGates) {
  // One engine and one plan slot, so every run after the first reuses the
  // cached plan and marks its paths for the gate at hand: an open gate
  // runs every path, a vetoing one only the surviving paths. Each run must
  // match the oracle whichever came before it.
  Database db = HandDb();
  UnionQuery uq({Q("q(x, z) :- r(x, y), s(y, z)."),
                 Q("q(x, z) :- r(x, y), blocked(y, z)."),
                 Q("q(x, z) :- r(x, y), s(y, z), blocked(y, z)."),
                 Q("q(x, z) :- blocked(x, y), t(y, z)."),
                 Q("q(x, y) :- r(x, y), s(y, y)."),
                 Q("q(x, y) :- r(x, y).")});
  StoredGate open = [](const std::string&) { return Status::Ok(); };
  StoredGate vetoing = [](const std::string& relation) {
    return relation == "blocked" ? Status::Unavailable("gated off")
                                 : Status::Ok();
  };
  Engine engine;
  PhysicalPlanSlot slot;
  size_t steps[3] = {0, 0, 0};  // per gate: open, vetoing, none
  for (size_t run = 0; run < 6; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    // Open, vetoing, no gate at all, and around again.
    StoredGate gate = run % 3 == 0 ? open : run % 3 == 1 ? vetoing : nullptr;
    auto want = EvaluateUnionDegraded(uq, db, gate);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    want->answers.SortCanonical();
    obs::MetricsRegistry metrics;
    auto got = engine.EvaluateUnionDegraded(uq, db, gate, nullptr, &metrics,
                                            &slot);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->answers.tuples(), want->answers.tuples());
    EXPECT_EQ(got->disjuncts_skipped, want->disjuncts_skipped);
    EXPECT_EQ(got->unavailable_relations, want->unavailable_relations);
    EXPECT_EQ(metrics.counter("qp.plan_reused"), run == 0 ? 0u : 1u);
    EXPECT_EQ(metrics.counter("qp.exec_disjuncts"),
              uq.size() - want->disjuncts_skipped);
    // The warm run walks exactly the paths a fresh engine marks for the
    // same gate: a vetoed disjunct's private steps are not run.
    obs::MetricsRegistry fresh_metrics;
    Engine fresh;
    ASSERT_TRUE(
        fresh.EvaluateUnionDegraded(uq, db, gate, nullptr, &fresh_metrics)
            .ok());
    EXPECT_EQ(metrics.counter("qp.exec_steps"),
              fresh_metrics.counter("qp.exec_steps"));
    steps[run % 3] = metrics.counter("qp.exec_steps");
  }
  EXPECT_LT(steps[1], steps[0]);
  EXPECT_EQ(steps[2], steps[0]);
  CheckUnion(uq, db, vetoing);
  CheckUnion(uq, db, open);
}

}  // namespace
}  // namespace qp
}  // namespace pdms
