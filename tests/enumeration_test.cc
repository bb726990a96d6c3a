// Tests for Step 3 (solution enumeration): budget handling, timestamp
// reporting, the unc-cover combination logic on handcrafted networks, and
// the backtracking partial (a stopped enumeration leaves nothing behind;
// counters pinned on a generator workload with comparisons).

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pdms/core/enumerate.h"
#include "pdms/core/pdms.h"
#include "pdms/core/reformulator.h"
#include "pdms/gen/workload.h"

namespace pdms {
namespace {

// A second-stratum generator world whose comparisons make combinations
// fail at assembly and whose overlapping covers emit duplicates.
gen::WorkloadConfig ComparisonWorkload() {
  gen::WorkloadConfig config;
  config.num_peers = 24;
  config.num_strata = 3;
  config.definitional_fraction = 0.25;
  config.comparison_fraction = 0.5;
  config.seed = 27;
  return config;
}

struct Enumerated {
  std::vector<std::string> rewritings;
  ReformulationStats stats;
};

// Enumerates `tree`, stopping once the sink has seen `stop_at` rewritings
// (0 = never).
Enumerated Enumerate(const RuleGoalTree& tree, size_t stop_at) {
  Enumerated out;
  out.stats = tree.stats;
  WallTimer timer;
  Status s = EnumerateRewritings(
      tree, ReformulationOptions{}, timer, &out.stats,
      [&](const ConjunctiveQuery& cq) {
        out.rewritings.push_back(cq.ToString());
        return stop_at == 0 || out.rewritings.size() < stop_at;
      });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST(Enumeration, TimestampsAreMonotone) {
  gen::WorkloadConfig config;
  config.num_peers = 24;
  config.num_strata = 3;
  config.seed = 3;
  auto w = gen::GenerateWorkload(config);
  ASSERT_TRUE(w.ok());
  Reformulator reformulator(w->network);
  auto result = reformulator.Reformulate(w->query);
  ASSERT_TRUE(result.ok());
  const auto& stamps = result->stats.time_to_rewriting_ms;
  ASSERT_EQ(stamps.size(), result->stats.rewritings);
  for (size_t i = 1; i < stamps.size(); ++i) {
    EXPECT_LE(stamps[i - 1], stamps[i]);
  }
  // Timestamps include the build phase (measured from submission).
  if (!stamps.empty()) {
    EXPECT_GE(stamps.front(), 0.0);
  }
}

TEST(Enumeration, TimeBudgetTruncates) {
  gen::WorkloadConfig config;
  config.num_peers = 48;
  config.num_strata = 5;
  config.providers_per_relation = 2;
  config.seed = 5;
  auto w = gen::GenerateWorkload(config);
  ASSERT_TRUE(w.ok());
  ReformulationOptions options;
  options.time_budget_ms = 1;  // essentially immediate
  Reformulator reformulator(w->network, options);
  auto result = reformulator.Reformulate(w->query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->stats.enumeration_truncated ||
              result->stats.rewritings == 0 ||
              result->stats.enumerate_ms < 50.0);
}

TEST(Enumeration, OverlappingUncProducesRedundantButSoundRewriting) {
  // Two subgoals over the same relation pair: the MCD covering both plus
  // each subgoal's individual coverage produce several rewritings; all
  // must be safe and over stored relations.
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(R"(
    peer M { relation E(x, y); }
    peer S { relation V(x, y); relation W(x, y); }
    mapping (x, y) : S:V(x, y) <= M:E(x, z), M:E(z, y).
    mapping (x, y) : S:W(x, y) <= M:E(x, y).
    stored sv(x, y) <= S:V(x, y).
    stored sw(x, y) <= S:W(x, y).
    fact sw(1, 2).
    fact sw(2, 3).
    fact sv(1, 3).
  )").ok());
  auto result = pdms.Reformulate("q(x, y) :- M:E(x, z), M:E(z, y).");
  ASSERT_TRUE(result.ok());
  // Expect at least: sv(x,y) alone, and sw(x,z),sw(z,y).
  EXPECT_GE(result->rewriting.size(), 2u) << result->rewriting.ToString();
  auto answers = pdms.Answer("q(x, y) :- M:E(x, z), M:E(z, y).");
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->Contains({Value::Int(1), Value::Int(3)}));
  EXPECT_EQ(answers->size(), 1u);
}

TEST(Enumeration, MixedCoverChoosesPerChildIndependently) {
  // First subgoal answered two ways, second subgoal answered two ways:
  // the cover recursion must produce all four combinations.
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(R"(
    peer M { relation A(x); relation B(x); }
    peer S { relation A1(x); relation A2(x); relation B1(x); relation B2(x); }
    mapping M:A(x) :- S:A1(x).
    mapping M:A(x) :- S:A2(x).
    mapping M:B(x) :- S:B1(x).
    mapping M:B(x) :- S:B2(x).
    stored sa1(x) <= S:A1(x).
    stored sa2(x) <= S:A2(x).
    stored sb1(x) <= S:B1(x).
    stored sb2(x) <= S:B2(x).
  )").ok());
  auto result = pdms.Reformulate("q(x) :- M:A(x), M:B(x).");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rewriting.size(), 4u) << result->rewriting.ToString();
}

TEST(Enumeration, ConflictingConstantsDropCombination) {
  // The two mappings pin the shared variable to different constants; the
  // combination must be dropped, leaving only the consistent pairings.
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(R"(
    peer M { relation A(x, k); relation B(x, k); }
    peer S { relation SA(x); relation SB(x); }
    mapping M:A(x, 1) :- S:SA(x).
    mapping M:B(x, 2) :- S:SB(x).
    stored sa(x) <= S:SA(x).
    stored sb(x) <= S:SB(x).
  )").ok());
  // Joining on k forces 1 = 2: no rewriting.
  auto none = pdms.Reformulate("q(x) :- M:A(x, k), M:B(x, k).");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->rewriting.empty()) << none->rewriting.ToString();
  // Without the join each side works.
  auto some = pdms.Reformulate("q(x) :- M:A(x, k1), M:B(x, k2).");
  ASSERT_TRUE(some.ok());
  EXPECT_EQ(some->rewriting.size(), 1u);
}

TEST(Enumeration, RequiredComparisonOnFoldedVariableNeedsImplication) {
  // The definitional rule filters z < 5, but z folds into the view; the
  // combination is only emitted when the view guarantees the bound.
  Pdms weak;
  ASSERT_TRUE(weak.LoadProgram(R"(
    peer M { relation Top(x, y); relation E1(x, y); relation E2(x, y); }
    peer S { relation V(x, y); }
    mapping M:Top(x, y) :- M:E1(x, z), M:E2(z, y), z < 5.
    mapping (x, y) : S:V(x, y) <= M:E1(x, z), M:E2(z, y).
    stored sv(x, y) <= S:V(x, y).
  )").ok());
  auto none = weak.Reformulate("q(x, y) :- M:Top(x, y).");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->rewriting.empty()) << none->rewriting.ToString();

  Pdms strong;
  ASSERT_TRUE(strong.LoadProgram(R"(
    peer M { relation Top(x, y); relation E1(x, y); relation E2(x, y); }
    peer S { relation V(x, y); }
    mapping M:Top(x, y) :- M:E1(x, z), M:E2(z, y), z < 5.
    mapping (x, y) : S:V(x, y) <= M:E1(x, z), M:E2(z, y), z < 3.
    stored sv(x, y) <= S:V(x, y).
  )").ok());
  auto some = strong.Reformulate("q(x, y) :- M:Top(x, y).");
  ASSERT_TRUE(some.ok());
  EXPECT_EQ(some->rewriting.size(), 1u) << some->rewriting.ToString();
}

TEST(Enumeration, QueryComparisonsSurviveIntoRewritings) {
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(R"(
    peer A { relation R(x, y); }
    stored sr(x, y) <= A:R(x, y).
    fact sr(1, 10).
    fact sr(2, 20).
  )").ok());
  auto result = pdms.Reformulate("q(x) :- A:R(x, y), y > 15.");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rewriting.size(), 1u);
  EXPECT_EQ(result->rewriting.disjuncts()[0].comparisons().size(), 1u);
  auto answers = pdms.Answer("q(x) :- A:R(x, y), y > 15.");
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->size(), 1u);
  EXPECT_TRUE(answers->Contains({Value::Int(2)}));
}

TEST(Enumeration, CountersOnAGeneratorWorkloadWithComparisons) {
  auto w = gen::GenerateWorkload(ComparisonWorkload());
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  Reformulator reformulator(w->network);
  auto result = reformulator.Reformulate(w->query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Recorded with the copying enumerator this one replaced.
  EXPECT_EQ(result->stats.rewritings, 700u);
  EXPECT_EQ(result->stats.combos_failed, 24u);
  EXPECT_EQ(result->stats.duplicate_disjuncts, 140u);
  EXPECT_EQ(result->rewriting.size(), 700u);
}

TEST(Enumeration, AStoppedSinkLeavesNothingBehind) {
  auto w = gen::GenerateWorkload(ComparisonWorkload());
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  Reformulator reformulator(w->network);
  auto tree = reformulator.BuildTree(w->query);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const std::string dump = tree->ToString();

  const Enumerated whole = Enumerate(*tree, 0);
  ASSERT_GT(whole.rewritings.size(), 100u);
  for (size_t k : {size_t{1}, size_t{17}, size_t{100}}) {
    SCOPED_TRACE("stopped at " + std::to_string(k));
    const Enumerated stopped = Enumerate(*tree, k);
    ASSERT_EQ(stopped.rewritings.size(), k);
    EXPECT_TRUE(std::equal(stopped.rewritings.begin(),
                           stopped.rewritings.end(),
                           whole.rewritings.begin()));
    // The full enumeration after the stopped one, on the same tree, is
    // byte-identical to the uninterrupted run, counters included.
    const Enumerated again = Enumerate(*tree, 0);
    EXPECT_EQ(again.rewritings, whole.rewritings);
    EXPECT_EQ(again.stats.rewritings, whole.stats.rewritings);
    EXPECT_EQ(again.stats.combos_failed, whole.stats.combos_failed);
    EXPECT_EQ(again.stats.duplicate_disjuncts,
              whole.stats.duplicate_disjuncts);
    EXPECT_EQ(tree->ToString(), dump);
  }
}

}  // namespace
}  // namespace pdms
