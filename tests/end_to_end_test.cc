// End-to-end property tests: on randomly generated PDMSs in the tractable
// fragment, answers obtained through reformulation must equal the chase
// oracle's certain answers (completeness + soundness, Section 4's
// guarantee); with optimizations toggled the rewriting sets must agree.

#include <gtest/gtest.h>

#include <set>

#include "pdms/core/certain_answers.h"
#include "pdms/core/reformulator.h"
#include "pdms/eval/evaluator.h"
#include "pdms/gen/workload.h"
#include "pdms/lang/canonical.h"

namespace pdms {
namespace {

gen::WorkloadConfig SmallConfig(uint64_t seed) {
  gen::WorkloadConfig config;
  config.num_peers = 12;
  config.num_strata = 3;
  config.relations_per_peer = 2;
  config.providers_per_relation = 2;
  config.chain_length = 2;
  config.query_subgoals = 2;
  config.facts_per_stored = 4;
  config.value_domain = 4;  // small domain => joins actually hit
  config.seed = seed;
  return config;
}

class ReformulationVsOracleTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReformulationVsOracleTest, AnswersMatchCertainAnswers) {
  for (double dd : {0.0, 0.3, 1.0}) {
    gen::WorkloadConfig config = SmallConfig(GetParam());
    config.definitional_fraction = dd;
    auto w = gen::GenerateWorkload(config);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ASSERT_TRUE(w->network.Classify().inclusions_acyclic);

    Reformulator reformulator(w->network);
    auto result = reformulator.Reformulate(w->query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    Relation answers("Q", w->query.head().arity());
    if (!result->rewriting.empty()) {
      auto eval = EvaluateUnion(result->rewriting, w->data);
      ASSERT_TRUE(eval.ok()) << eval.status().ToString();
      answers = *eval;
    }

    auto oracle = CertainAnswers(w->network, w->data, w->query);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

    // Soundness: every reformulation answer is certain.
    for (const Tuple& t : answers.tuples()) {
      EXPECT_TRUE(oracle->Contains(t))
          << "unsound answer " << TupleToString(t) << " (seed "
          << GetParam() << ", dd " << dd << ")\nquery "
          << w->query.ToString();
    }
    // Completeness (tractable fragment): every certain answer is found.
    for (const Tuple& t : oracle->tuples()) {
      EXPECT_TRUE(answers.Contains(t))
          << "missed certain answer " << TupleToString(t) << " (seed "
          << GetParam() << ", dd " << dd << ")\nquery "
          << w->query.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReformulationVsOracleTest,
                         ::testing::Range<uint64_t>(1, 13));

// The optimizations must not change the set of rewritings (only the cost
// of finding them).
class OptimizationEquivalenceTest
    : public ::testing::TestWithParam<uint64_t> {};

std::set<std::string> RewritingKeys(const UnionQuery& uq) {
  std::set<std::string> keys;
  for (const ConjunctiveQuery& cq : uq.disjuncts()) {
    keys.insert(CanonicalQueryKey(cq));
  }
  return keys;
}

TEST_P(OptimizationEquivalenceTest, SameRewritingsAllConfigurations) {
  gen::WorkloadConfig config = SmallConfig(GetParam());
  config.definitional_fraction = 0.4;
  auto w = gen::GenerateWorkload(config);
  ASSERT_TRUE(w.ok());

  ReformulationOptions baseline;
  baseline.prune_unsatisfiable = false;
  baseline.prune_dead_ends = false;
  baseline.order_expansions = false;
  Reformulator base_ref(w->network, baseline);
  auto base = base_ref.Reformulate(w->query);
  ASSERT_TRUE(base.ok());
  std::set<std::string> base_keys = RewritingKeys(base->rewriting);

  for (int mask = 1; mask < 8; ++mask) {
    ReformulationOptions opts;
    opts.prune_unsatisfiable = mask & 1;
    opts.prune_dead_ends = mask & 2;
    opts.order_expansions = mask & 4;
    Reformulator reformulator(w->network, opts);
    auto result = reformulator.Reformulate(w->query);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(RewritingKeys(result->rewriting), base_keys)
        << "optimization mask " << mask << " changed the rewriting set "
        << "(seed " << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizationEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 9));

// With comparison predicates in definitional mapping bodies — the Theorem
// 3.3.1 position where query answering stays polynomial — the algorithm
// must remain sound AND complete. The chase oracle handles these specs
// directly (the comparisons sit on TGD premises), so we can compare answer
// sets exactly, which exercises constraint labels, granted-vs-required
// constraint bookkeeping, and the implication fallback at assembly.
class ComparisonFragmentTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ComparisonFragmentTest, AnswersMatchCertainAnswers) {
  gen::WorkloadConfig config = SmallConfig(GetParam());
  config.definitional_fraction = 0.5;
  config.comparison_fraction = 0.6;
  config.value_domain = 6;
  auto w = gen::GenerateWorkload(config);
  ASSERT_TRUE(w.ok());
  Reformulator reformulator(w->network);
  auto result = reformulator.Reformulate(w->query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const ConjunctiveQuery& cq : result->rewriting.disjuncts()) {
    EXPECT_TRUE(cq.CheckSafe().ok()) << cq.ToString();
  }
  Relation answers("Q", w->query.head().arity());
  if (!result->rewriting.empty()) {
    auto eval = EvaluateUnion(result->rewriting, w->data);
    ASSERT_TRUE(eval.ok()) << eval.status().ToString();
    answers = *eval;
  }
  auto oracle = CertainAnswers(w->network, w->data, w->query);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  for (const Tuple& t : answers.tuples()) {
    EXPECT_TRUE(oracle->Contains(t))
        << "unsound answer " << TupleToString(t) << " (seed " << GetParam()
        << ")\nquery " << w->query.ToString();
  }
  for (const Tuple& t : oracle->tuples()) {
    EXPECT_TRUE(answers.Contains(t))
        << "missed certain answer " << TupleToString(t) << " (seed "
        << GetParam() << ")\nquery " << w->query.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComparisonFragmentTest,
                         ::testing::Range<uint64_t>(1, 11));

// Cyclic PDMSs with projection-free peer equalities (the Theorem 3.2.1
// fragment, e.g. replication): the guard must terminate reformulation and
// the answers must still equal the certain answers.
class ReplicationFragmentTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplicationFragmentTest, CyclicEqualitiesStayComplete) {
  gen::WorkloadConfig config = SmallConfig(GetParam());
  config.definitional_fraction = 0.2;
  auto w = gen::GenerateWorkload(config);
  ASSERT_TRUE(w.ok());
  // Add replication: the first query relation is mirrored at a fresh peer
  // with a projection-free equality (like ECC:Vehicle = 9DC:Vehicle), and
  // the replica gets its own storage.
  const std::string original = w->query.body()[0].predicate();
  ASSERT_TRUE(
      w->network.AddPeer("Replica", {{"Copy", config.arity}}).ok());
  std::vector<Term> args;
  for (size_t i = 0; i < config.arity; ++i) {
    args.push_back(Term::Var("r" + std::to_string(i)));
  }
  PeerMapping replication;
  replication.kind = PeerMappingKind::kEquality;
  Atom iface("_iface_repl", args);
  replication.lhs =
      ConjunctiveQuery(iface, {Atom("Replica:Copy", args)});
  replication.rhs = ConjunctiveQuery(iface, {Atom(original, args)});
  ASSERT_TRUE(w->network.AddPeerMapping(std::move(replication)).ok());
  StorageDescription store;
  store.view =
      ConjunctiveQuery(Atom("replica_store", args),
                       {Atom("Replica:Copy", args)});
  ASSERT_TRUE(w->network.AddStorageDescription(std::move(store)).ok());
  w->data.Insert("replica_store",
                 {Value::Int(0), Value::Int(1)});

  Reformulator reformulator(w->network);
  auto result = reformulator.Reformulate(w->query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Relation answers("Q", w->query.head().arity());
  if (!result->rewriting.empty()) {
    auto eval = EvaluateUnion(result->rewriting, w->data);
    ASSERT_TRUE(eval.ok());
    answers = *eval;
  }
  auto oracle = CertainAnswers(w->network, w->data, w->query);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  for (const Tuple& t : answers.tuples()) {
    EXPECT_TRUE(oracle->Contains(t))
        << "unsound " << TupleToString(t) << " (seed " << GetParam() << ")";
  }
  for (const Tuple& t : oracle->tuples()) {
    EXPECT_TRUE(answers.Contains(t))
        << "missed " << TupleToString(t) << " (seed " << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicationFragmentTest,
                         ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace pdms
