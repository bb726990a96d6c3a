// Tests for the Section 4 reformulation algorithm: GAV unfolding, LAV
// MCD covering (unc labels), interleaving, cyclic termination, and the
// paper's Figure 2 worked example.

#include "pdms/core/reformulator.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pdms/core/pdms.h"
#include "pdms/gen/workload.h"
#include "pdms/lang/homomorphism.h"
#include "pdms/lang/parser.h"
#include "pdms/obs/metrics.h"
#include "pdms/obs/trace.h"

namespace pdms {
namespace {

ConjunctiveQuery MustParseRule(const std::string& text) {
  auto r = ParseRuleText(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << " for: " << text;
  return *r;
}

// Builds the Figure 2 PDMS: one peer with the SameEngine/AssignedTo/Skill
// relations, descriptions r0-r3.
Pdms MakeFigure2Pdms() {
  Pdms pdms;
  Status s = pdms.LoadProgram(R"(
    peer FS {
      relation SameEngine(f1, f2, e);
      relation AssignedTo(f, e);
      relation Skill(f, s);
      relation SameSkill(f1, f2);
      relation Sched(f, start, end);
    }
    // r0: definitional.
    mapping FS:SameEngine(f1, f2, e) :-
        FS:AssignedTo(f1, e), FS:AssignedTo(f2, e).
    // r1: inclusion (LAV-style).
    mapping (f1, f2) :
        FS:SameSkill(f1, f2) <= FS:Skill(f1, s), FS:Skill(f2, s).
    // r2 and r3: storage descriptions.
    stored s1(f, e, st) <= FS:AssignedTo(f, e), FS:Sched(f, st, end).
    stored s2(f1, f2) = FS:SameSkill(f1, f2).
  )");
  EXPECT_TRUE(s.ok()) << s.ToString();
  return pdms;
}

TEST(Reformulator, Figure2WorkedExample) {
  Pdms pdms = MakeFigure2Pdms();
  auto result = pdms.Reformulate(
      "Q(f1, f2) :- FS:SameEngine(f1, f2, e), FS:Skill(f1, s), "
      "FS:Skill(f2, s).");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const UnionQuery& uq = result->rewriting;
  // The paper's expected reformulation:
  //   Q'(f1,f2) :- s1(f1,e,_), s1(f2,e,_), s2(f1,f2)
  //   UNION Q'(f1,f2) :- s1(f1,e,_), s1(f2,e,_), s2(f2,f1)
  ASSERT_FALSE(uq.empty());
  ConjunctiveQuery expected1 = MustParseRule(
      "Q(f1, f2) :- s1(f1, e, a), s1(f2, e, b), s2(f1, f2).");
  ConjunctiveQuery expected2 = MustParseRule(
      "Q(f1, f2) :- s1(f1, e, a), s1(f2, e, b), s2(f2, f1).");
  bool found1 = false;
  bool found2 = false;
  for (const ConjunctiveQuery& cq : uq.disjuncts()) {
    if (EquivalentCQ(cq, expected1)) found1 = true;
    if (EquivalentCQ(cq, expected2)) found2 = true;
    // Every disjunct must reference stored relations only.
    for (const Atom& a : cq.body()) {
      EXPECT_TRUE(a.predicate() == "s1" || a.predicate() == "s2")
          << cq.ToString();
    }
  }
  EXPECT_TRUE(found1) << uq.ToString();
  EXPECT_TRUE(found2) << uq.ToString();
}

TEST(Reformulator, Figure2EndToEndAnswers) {
  Pdms pdms = MakeFigure2Pdms();
  // Firefighters 101 and 102 share engine 12 and a skill.
  ASSERT_TRUE(pdms.LoadProgram(R"(
    fact s1(101, 12, 700).
    fact s1(102, 12, 700).
    fact s1(103, 19, 700).
    fact s2(101, 102).
  )").ok());
  auto answers = pdms.Answer(
      "Q(f1, f2) :- FS:SameEngine(f1, f2, e), FS:Skill(f1, s), "
      "FS:Skill(f2, s).");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_TRUE(answers->Contains({Value::Int(101), Value::Int(102)}))
      << answers->ToString();
  // The symmetric pair comes from the second (flipped) rewriting.
  EXPECT_TRUE(answers->Contains({Value::Int(102), Value::Int(101)}))
      << answers->ToString();
  // 103 rides a different engine.
  EXPECT_FALSE(answers->Contains({Value::Int(101), Value::Int(103)}));
}

TEST(Reformulator, PureGavChainUnfolds) {
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(R"(
    peer A { relation Top(x, y); }
    peer B { relation Mid(x, y); }
    peer C { relation Base(x, y); }
    mapping A:Top(x, y) :- B:Mid(x, z), B:Mid(z, y).
    mapping B:Mid(x, y) :- C:Base(x, y).
    stored base(x, y) <= C:Base(x, y).
  )").ok());
  auto result = pdms.Reformulate("q(x, y) :- A:Top(x, y).");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rewriting.size(), 1u) << result->rewriting.ToString();
  ConjunctiveQuery expected =
      MustParseRule("q(x, y) :- base(x, z), base(z, y).");
  EXPECT_TRUE(EquivalentCQ(result->rewriting.disjuncts()[0], expected))
      << result->rewriting.ToString();
}

TEST(Reformulator, GavDisjunctionYieldsUnion) {
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(R"(
    peer A { relation P(x); }
    peer B { relation P1(x); relation P2(x); }
    mapping A:P(x) :- B:P1(x).
    mapping A:P(x) :- B:P2(x).
    stored sp1(x) <= B:P1(x).
    stored sp2(x) <= B:P2(x).
  )").ok());
  auto result = pdms.Reformulate("q(x) :- A:P(x).");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rewriting.size(), 2u) << result->rewriting.ToString();
}

TEST(Reformulator, LavProjectionBlocksDistinguishedVariable) {
  // The paper's V3 example: a view projecting away a needed join variable
  // must not be used.
  Pdms fresh;
  ASSERT_TRUE(fresh.LoadProgram(R"(
    peer M { relation E1(x, y); relation E2(x, y); }
    peer P { relation V3(u); }
    mapping (u) : P:V3(u) <= M:E1(u, z).
    stored sv3(u) <= P:V3(u).
  )").ok());
  // q needs the join variable z: E1(x, z), E2(z, y). V3 cannot help.
  auto result = fresh.Reformulate("q(x, y) :- M:E1(x, z), M:E2(z, y).");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rewriting.empty()) << result->rewriting.ToString();
}

TEST(Reformulator, McdCoversUncleSubgoals) {
  // A view covering two subgoals at once through a shared existential
  // variable: using it must cover both (the unc label), and no rewriting
  // may use the view for just one of them.
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(R"(
    peer M { relation E1(x, y); relation E2(x, y); }
    peer S { relation V1(x, y); }
    mapping (x, y) : S:V1(x, y) <= M:E1(x, z), M:E2(z, y).
    stored sv1(x, y) <= S:V1(x, y).
  )").ok());
  auto result = pdms.Reformulate("q(x, y) :- M:E1(x, z), M:E2(z, y).");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rewriting.size(), 1u) << result->rewriting.ToString();
  ConjunctiveQuery expected = MustParseRule("q(x, y) :- sv1(x, y).");
  EXPECT_TRUE(EquivalentCQ(result->rewriting.disjuncts()[0], expected));
}

TEST(Reformulator, CyclicEqualityTerminates) {
  // Replication: ECC:Vehicle = NDC:Vehicle is a cycle; the description
  // reuse guard must terminate and answer from the replica's storage.
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(R"(
    peer ECC { relation Vehicle(v, d); }
    peer NDC { relation Vehicle(v, d); }
    mapping (v, d) : ECC:Vehicle(v, d) = NDC:Vehicle(v, d).
    stored ecc_v(v, d) <= ECC:Vehicle(v, d).
    stored ndc_v(v, d) <= NDC:Vehicle(v, d).
  )").ok());
  auto result = pdms.Reformulate("q(v, d) :- ECC:Vehicle(v, d).");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Both the local store and the replicated peer's store must be found.
  std::set<std::string> preds;
  for (const ConjunctiveQuery& cq : result->rewriting.disjuncts()) {
    for (const Atom& a : cq.body()) preds.insert(a.predicate());
  }
  EXPECT_TRUE(preds.count("ecc_v") > 0) << result->rewriting.ToString();
  EXPECT_TRUE(preds.count("ndc_v") > 0) << result->rewriting.ToString();
}

TEST(Reformulator, TransitiveChainThroughTwoMediators) {
  // Data flows bottom-up through two mediation levels (LAV then GAV).
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(R"(
    peer TOP { relation T(x, y); }
    peer MID { relation M(x, y); }
    peer BOT { relation B(x, y); }
    mapping TOP:T(x, y) :- MID:M(x, y).
    mapping (x, y) : BOT:B(x, y) <= MID:M(x, y).
    stored sb(x, y) <= BOT:B(x, y).
    fact sb(1, 2).
  )").ok());
  auto answers = pdms.Answer("q(x, y) :- TOP:T(x, y).");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_TRUE(answers->Contains({Value::Int(1), Value::Int(2)}))
      << answers->ToString();
}

TEST(Reformulator, ConstantsInQueryPropagate) {
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(R"(
    peer A { relation R(x, y); }
    stored sr(x, y) <= A:R(x, y).
    fact sr(1, "a").
    fact sr(2, "b").
  )").ok());
  auto answers = pdms.Answer("q(y) :- A:R(1, y).");
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 1u);
  EXPECT_TRUE(answers->Contains({Value::String("a")}));
}

TEST(Reformulator, ConstantsInMappingHeadSelect) {
  // A GAV mapping with a constant head argument only serves matching goals.
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(R"(
    peer A { relation Person(pid, kind); }
    peer B { relation Doc(pid); relation Nurse(pid); }
    mapping A:Person(p, "doctor") :- B:Doc(p).
    mapping A:Person(p, "nurse") :- B:Nurse(p).
    stored sdoc(p) <= B:Doc(p).
    stored snurse(p) <= B:Nurse(p).
    fact sdoc(1).
    fact snurse(2).
  )").ok());
  auto answers = pdms.Answer("q(p) :- A:Person(p, \"doctor\").");
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 1u) << answers->ToString();
  EXPECT_TRUE(answers->Contains({Value::Int(1)}));
}

TEST(Reformulator, StreamingStopsEarly) {
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(R"(
    peer A { relation P(x); }
    peer B { relation P1(x); relation P2(x); relation P3(x); }
    mapping A:P(x) :- B:P1(x).
    mapping A:P(x) :- B:P2(x).
    mapping A:P(x) :- B:P3(x).
    stored sp1(x) <= B:P1(x).
    stored sp2(x) <= B:P2(x).
    stored sp3(x) <= B:P3(x).
  )").ok());
  Reformulator reformulator(pdms.network());
  auto query = pdms.ParseQuery("q(x) :- A:P(x).");
  ASSERT_TRUE(query.ok());
  size_t seen = 0;
  auto result = reformulator.ReformulateStreaming(
      *query, [&](const ConjunctiveQuery&) { return ++seen < 2; });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(result->rewriting.size(), 1u);  // the sink refused the second
}

TEST(Reformulator, MaxRewritingsBudget) {
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(R"(
    peer A { relation P(x); }
    peer B { relation P1(x); relation P2(x); relation P3(x); }
    mapping A:P(x) :- B:P1(x).
    mapping A:P(x) :- B:P2(x).
    mapping A:P(x) :- B:P3(x).
    stored sp1(x) <= B:P1(x).
    stored sp2(x) <= B:P2(x).
    stored sp3(x) <= B:P3(x).
  )").ok());
  ReformulationOptions opts;
  opts.max_rewritings = 2;
  pdms.set_options(opts);
  auto result = pdms.Reformulate("q(x) :- A:P(x).");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rewriting.size(), 2u);
  EXPECT_TRUE(result->stats.enumeration_truncated);
}

TEST(Reformulator, NoPathToStorageYieldsEmpty) {
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(R"(
    peer A { relation R(x); }
    peer B { relation S(x); }
    mapping A:R(x) :- B:S(x).
  )").ok());
  auto result = pdms.Reformulate("q(x) :- A:R(x).");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rewriting.empty());
}

TEST(Reformulator, SoundnessEveryRewritingContainedInExpansion) {
  // Every emitted rewriting, with stored relations replaced by their
  // storage-description bodies, must be contained in some expansion of the
  // query — here checked on the GAV chain where containment is syntactic.
  Pdms pdms = MakeFigure2Pdms();
  auto result = pdms.Reformulate(
      "Q(f1, f2) :- FS:SameEngine(f1, f2, e), FS:Skill(f1, s), "
      "FS:Skill(f2, s).");
  ASSERT_TRUE(result.ok());
  for (const ConjunctiveQuery& cq : result->rewriting.disjuncts()) {
    EXPECT_TRUE(cq.CheckSafe().ok()) << cq.ToString();
  }
}

TEST(Reformulator, StatsCountNodes) {
  Pdms pdms = MakeFigure2Pdms();
  auto result = pdms.Reformulate(
      "Q(f1, f2) :- FS:SameEngine(f1, f2, e), FS:Skill(f1, s), "
      "FS:Skill(f2, s).");
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.goal_nodes, 3u);
  EXPECT_GT(result->stats.rule_nodes, 1u);
  EXPECT_GE(result->stats.rewritings, 2u);
  EXPECT_EQ(result->stats.time_to_rewriting_ms.size(),
            result->stats.rewritings);
}

// The reachability a Reformulator keeps across queries must give the same
// tree a fresh one builds, under every source restriction, and is
// recomputed exactly when (unavailable_stored, allowed_stored) changes.
TEST(Reformulator, ReachabilityIsKeptPerSourceRestriction) {
  gen::WorkloadConfig config;
  config.num_peers = 24;
  config.num_strata = 3;
  config.definitional_fraction = 0.25;
  config.unprovided_fraction = 0.2;
  config.seed = 9;
  auto w = gen::GenerateWorkload(config);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  auto first = Reformulator(w->network).Reformulate(w->query);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(first->rewriting.empty());
  const std::string down =
      first->rewriting.disjuncts()[0].body()[0].predicate();

  ReformulationOptions plain;
  ReformulationOptions unavailable;
  unavailable.unavailable_stored = {down};
  ReformulationOptions allowed;
  for (const std::string& s : w->network.StoredRelationNames()) {
    if (s != down) allowed.allowed_stored.insert(s);
  }
  struct Step {
    const char* name;
    ReformulationOptions options;
    bool key_changes;
  };
  const std::vector<Step> steps = {
      {"plain", plain, true},
      {"plain again", plain, false},
      {"unavailable", unavailable, true},
      {"allowed", allowed, true},
      {"back to plain", plain, true},
      {"back to unavailable", unavailable, true},
  };

  Reformulator kept(w->network);
  obs::MetricsRegistry metrics;
  uint64_t computed = 0;
  bool pruned_unavailable = false;
  for (const Step& step : steps) {
    SCOPED_TRACE(step.name);
    ReformulationOptions options = step.options;
    options.metrics = &metrics;
    kept.set_options(options);
    auto got = kept.BuildTree(w->query);
    auto want = Reformulator(w->network, step.options).BuildTree(w->query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(got->ToString(), want->ToString());
    EXPECT_EQ(got->stats.pruned_dead, want->stats.pruned_dead);
    EXPECT_EQ(got->stats.pruned_unavailable, want->stats.pruned_unavailable);
    EXPECT_EQ(got->stats.excluded_stored, want->stats.excluded_stored);
    if (step.key_changes) ++computed;
    EXPECT_EQ(metrics.counter("reform.reachability_computed"), computed);
    if (got->stats.pruned_unavailable > 0) pruned_unavailable = true;

    // The full reformulation shares the kept value and says so on its
    // build_tree span.
    obs::TraceContext trace;
    options.trace = &trace;
    ASSERT_TRUE(kept.Reformulate(w->query, options).ok());
    EXPECT_EQ(metrics.counter("reform.reachability_computed"), computed);
    bool tagged = false;
    for (const obs::Span& span : trace.spans()) {
      if (span.name != "build_tree") continue;
      const std::string* reach = span.FindAttribute("reach");
      ASSERT_NE(reach, nullptr);
      EXPECT_EQ(*reach, "memo");
      tagged = true;
    }
    EXPECT_TRUE(tagged);
  }
  EXPECT_TRUE(pruned_unavailable);
}

}  // namespace
}  // namespace pdms
