// White-box tests of rule-goal tree construction (Section 4.2, Step 2):
// node structure, unc labels, constraint labels, the description-reuse
// guard, dead-end marking, node budgets, and expansion ordering.

#include "pdms/core/rule_goal_tree.h"

#include <gtest/gtest.h>

#include "pdms/core/normalize.h"
#include "pdms/core/ppl_parser.h"
#include "pdms/lang/parser.h"

namespace pdms {
namespace {

ExpansionRules RulesFor(const std::string& ppl) {
  auto program = ParsePplProgram(ppl);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return Normalize(program->network);
}

ConjunctiveQuery Q(const std::string& text) {
  auto r = ParseRuleText(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

TEST(RuleGoalTree, RootStructureMirrorsQuery) {
  ExpansionRules rules = RulesFor(R"(
    peer A { relation R(x, y); relation S(x, y); }
    stored sr(x, y) <= A:R(x, y).
    stored ss(x, y) <= A:S(x, y).
  )");
  const Reachability reach = Reachability::Compute(rules, {}, {});
  TreeBuilder builder(rules, reach, {});
  auto tree = builder.Build(Q("q(x, z) :- A:R(x, y), A:S(y, z), x < 3."));
  ASSERT_TRUE(tree.ok());
  ASSERT_NE(tree->root, nullptr);
  EXPECT_EQ(tree->root->children.size(), 2u);
  EXPECT_EQ(tree->root->children[0]->label.predicate(), "A:R");
  EXPECT_EQ(tree->root->children[1]->label.predicate(), "A:S");
  // The query comparison becomes the root's constraint label, projected
  // onto the children that mention x.
  EXPECT_FALSE(tree->root->label.empty());
  EXPECT_FALSE(tree->root->children[0]->constraints.empty());
  EXPECT_TRUE(tree->root->children[1]->constraints.empty());
}

TEST(RuleGoalTree, StorageMcdProducesStoredLeaf) {
  ExpansionRules rules = RulesFor(R"(
    peer A { relation R(x, y); }
    stored sr(x, y) <= A:R(x, y).
  )");
  const Reachability reach = Reachability::Compute(rules, {}, {});
  TreeBuilder builder(rules, reach, {});
  auto tree = builder.Build(Q("q(x) :- A:R(x, y)."));
  ASSERT_TRUE(tree.ok());
  const GoalNode& goal = *tree->root->children[0];
  ASSERT_EQ(goal.expansions.size(), 1u);
  const ExpansionNode& exp = *goal.expansions[0];
  EXPECT_EQ(exp.kind, ExpansionNode::Kind::kInclusion);
  EXPECT_EQ(exp.unc, (std::vector<size_t>{0}));
  ASSERT_EQ(exp.children.size(), 1u);
  EXPECT_TRUE(exp.children[0]->is_stored);
  EXPECT_EQ(exp.children[0]->label.predicate(), "sr");
}

TEST(RuleGoalTree, UncLabelCoversJoinedSiblings) {
  // A view joining two relations through an existential covers both query
  // subgoals; its unc label must say so.
  ExpansionRules rules = RulesFor(R"(
    peer M { relation E1(x, y); relation E2(x, y); }
    peer S { relation V(x, y); }
    mapping (x, y) : S:V(x, y) <= M:E1(x, z), M:E2(z, y).
    stored sv(x, y) <= S:V(x, y).
  )");
  const Reachability reach = Reachability::Compute(rules, {}, {});
  TreeBuilder builder(rules, reach, {});
  auto tree = builder.Build(Q("q(x, y) :- M:E1(x, z), M:E2(z, y)."));
  ASSERT_TRUE(tree.ok());
  const GoalNode& e1 = *tree->root->children[0];
  ASSERT_EQ(e1.expansions.size(), 1u);
  EXPECT_EQ(e1.expansions[0]->unc, (std::vector<size_t>{0, 1}));
  // The symmetric MCD exists on the sibling too (Remark 4.1 redundancy).
  const GoalNode& e2 = *tree->root->children[1];
  ASSERT_EQ(e2.expansions.size(), 1u);
  EXPECT_EQ(e2.expansions[0]->unc, (std::vector<size_t>{0, 1}));
}

TEST(RuleGoalTree, GuardStopsCycles) {
  // A = B equality: termination relies on the per-path description guard;
  // expansions must not recurse through the same equality twice.
  ExpansionRules rules = RulesFor(R"(
    peer A { relation R(x); }
    peer B { relation S(x); }
    mapping (x) : A:R(x) = B:S(x).
    stored sb(x) <= B:S(x).
  )");
  ReformulationOptions options;
  const Reachability reach = Reachability::Compute(rules, {}, {});
  TreeBuilder builder(rules, reach, options);
  auto tree = builder.Build(Q("q(x) :- A:R(x)."));
  ASSERT_TRUE(tree.ok());
  EXPECT_FALSE(tree->stats.tree_truncated);
  EXPECT_GT(tree->stats.pruned_guard, 0u);
  EXPECT_LT(tree->stats.total_nodes(), 32u);
}

TEST(RuleGoalTree, MutualRecursionThroughDefinitionalRulesTerminates) {
  ExpansionRules rules = RulesFor(R"(
    peer A { relation P(x); relation Q(x); }
    peer B { relation Base(x); }
    mapping A:P(x) :- A:Q(x).
    mapping A:Q(x) :- A:P(x).
    mapping A:P(x) :- B:Base(x).
    stored sb(x) <= B:Base(x).
  )");
  const Reachability reach = Reachability::Compute(rules, {}, {});
  TreeBuilder builder(rules, reach, {});
  auto tree = builder.Build(Q("q(x) :- A:P(x)."));
  ASSERT_TRUE(tree.ok());
  EXPECT_FALSE(tree->stats.tree_truncated);
  EXPECT_GT(tree->stats.pruned_guard, 0u);
}

TEST(RuleGoalTree, NodeBudgetTruncates) {
  ExpansionRules rules = RulesFor(R"(
    peer A { relation R(x, y); }
    peer B { relation S(x, y); }
    mapping A:R(x, y) :- B:S(x, y).
    stored sb(x, y) <= B:S(x, y).
  )");
  ReformulationOptions options;
  options.max_tree_nodes = 4;  // query root + subgoal already uses 2
  const Reachability reach = Reachability::Compute(rules, {}, {});
  TreeBuilder builder(rules, reach, options);
  auto tree = builder.Build(Q("q(x) :- A:R(x, y)."));
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->stats.tree_truncated);
}

TEST(RuleGoalTree, DeadEndMarkingPropagates) {
  // A:R can only be answered through B:S which has no storage: everything
  // below the root is dead.
  ExpansionRules rules = RulesFor(R"(
    peer A { relation R(x); }
    peer B { relation S(x); }
    mapping A:R(x) :- B:S(x).
  )");
  ReformulationOptions options;
  options.prune_dead_ends = false;  // build the dead subtree, then mark
  const Reachability reach = Reachability::Compute(rules, {}, {});
  TreeBuilder builder(rules, reach, options);
  auto tree = builder.Build(Q("q(x) :- A:R(x)."));
  ASSERT_TRUE(tree.ok());
  // With the pass disabled everything is viable by definition.
  EXPECT_TRUE(tree->root->viable);

  ReformulationOptions with_pruning;
  TreeBuilder builder2(rules, reach, with_pruning);
  auto tree2 = builder2.Build(Q("q(x) :- A:R(x)."));
  ASSERT_TRUE(tree2.ok());
  EXPECT_FALSE(tree2->root->viable);
  EXPECT_GT(tree2->stats.pruned_dead, 0u);
}

TEST(RuleGoalTree, ReachabilityPruningSkipsOrphanBranches) {
  // The union has one live branch and one dead branch; with pruning the
  // dead branch is never built.
  ExpansionRules rules = RulesFor(R"(
    peer A { relation R(x); }
    peer B { relation Live(x); relation Dead(x); }
    mapping A:R(x) :- B:Live(x).
    mapping A:R(x) :- B:Dead(x).
    stored sl(x) <= B:Live(x).
  )");
  ReformulationOptions pruned;
  const Reachability reach = Reachability::Compute(rules, {}, {});
  TreeBuilder builder(rules, reach, pruned);
  auto tree = builder.Build(Q("q(x) :- A:R(x)."));
  ASSERT_TRUE(tree.ok());
  ReformulationOptions unpruned;
  unpruned.prune_dead_ends = false;
  TreeBuilder builder2(rules, reach, unpruned);
  auto tree2 = builder2.Build(Q("q(x) :- A:R(x)."));
  ASSERT_TRUE(tree2.ok());
  EXPECT_LT(tree->stats.total_nodes(), tree2->stats.total_nodes());
}

TEST(RuleGoalTree, ConstraintPruningCutsContradictoryExpansions) {
  // The mapping guarantees x <= 3 on its output; a query asking x > 7
  // cannot use it.
  ExpansionRules rules = RulesFor(R"(
    peer A { relation R(x); relation Small(x); }
    mapping A:Small(x) :- A:R(x), x <= 3.
    stored sr(x) <= A:R(x).
  )");
  ReformulationOptions options;
  const Reachability reach = Reachability::Compute(rules, {}, {});
  TreeBuilder builder(rules, reach, options);
  auto tree = builder.Build(Q("q(x) :- A:Small(x), x > 7."));
  ASSERT_TRUE(tree.ok());
  EXPECT_GT(tree->stats.pruned_unsat, 0u);
  EXPECT_FALSE(tree->root->children[0]->viable);

  // Without the comparison the expansion survives.
  auto tree2 = builder.Build(Q("q(x) :- A:Small(x)."));
  ASSERT_TRUE(tree2.ok());
  EXPECT_TRUE(tree2->root->children[0]->viable);
}

TEST(RuleGoalTree, PriorityOrderPutsCheapExpansionsFirst) {
  // A:R reachable directly via storage (depth 1) and via a two-hop GAV
  // chain; with ordering on, the storage MCD must come first.
  ExpansionRules rules = RulesFor(R"(
    peer A { relation R(x); }
    peer B { relation S(x); }
    peer C { relation T(x); }
    mapping A:R(x) :- B:S(x).
    mapping B:S(x) :- C:T(x).
    stored sr(x) <= A:R(x).
    stored st(x) <= C:T(x).
  )");
  ReformulationOptions options;
  options.order_expansions = true;
  const Reachability reach = Reachability::Compute(rules, {}, {});
  TreeBuilder builder(rules, reach, options);
  auto tree = builder.Build(Q("q(x) :- A:R(x)."));
  ASSERT_TRUE(tree.ok());
  const GoalNode& goal = *tree->root->children[0];
  ASSERT_GE(goal.expansions.size(), 2u);
  // First expansion leads to the stored leaf directly.
  ASSERT_EQ(goal.expansions[0]->children.size(), 1u);
  EXPECT_TRUE(goal.expansions[0]->children[0]->is_stored)
      << tree->ToString();
}

TEST(RuleGoalTree, ToStringDumpsStructure) {
  ExpansionRules rules = RulesFor(R"(
    peer A { relation R(x, y); }
    stored sr(x, y) <= A:R(x, y).
  )");
  const Reachability reach = Reachability::Compute(rules, {}, {});
  TreeBuilder builder(rules, reach, {});
  auto tree = builder.Build(Q("q(x) :- A:R(x, y), x < 3."));
  ASSERT_TRUE(tree.ok());
  std::string dump = tree->ToString();
  EXPECT_NE(dump.find("A:R"), std::string::npos);
  EXPECT_NE(dump.find("[stored]"), std::string::npos);
  EXPECT_NE(dump.find("mcd[d"), std::string::npos);
  EXPECT_NE(dump.find("query:"), std::string::npos);
  EXPECT_FALSE(tree->stats.ToString().empty());
}

TEST(RuleGoalTree, TooManyQuerySubgoalsRejected) {
  ExpansionRules rules = RulesFor(R"(
    peer A { relation R(x); }
    stored sr(x) <= A:R(x).
  )");
  std::vector<Atom> body(33, Atom("A:R", {Term::Var("x")}));
  ConjunctiveQuery query(Atom("q", {Term::Var("x")}), body);
  const Reachability reach = Reachability::Compute(rules, {}, {});
  TreeBuilder builder(rules, reach, {});
  auto tree = builder.Build(query);
  EXPECT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kUnsupported);
}

TEST(RuleGoalTree, UnsafeQueryRejected) {
  ExpansionRules rules = RulesFor(R"(
    peer A { relation R(x); }
    stored sr(x) <= A:R(x).
  )");
  const Reachability reach = Reachability::Compute(rules, {}, {});
  TreeBuilder builder(rules, reach, {});
  auto tree = builder.Build(Q("q(w) :- A:R(x)."));
  EXPECT_FALSE(tree.ok());
}

}  // namespace
}  // namespace pdms
