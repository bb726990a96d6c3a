// Determinism and concurrent serving (docs/parallel_execution.md). A
// query is answered serially, so two fresh facades over the same workload
// must agree byte for byte on answers, degradation reports, reformulation
// counters, the time-stripped explain tree, and the rewritings themselves
// (variable names included). Concurrency comes from serving several
// requests at once, each on its own facade over shared caches; every
// serving thread must see exactly the baseline answers.

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pdms/cache/plan_cache.h"
#include "pdms/core/pdms.h"
#include "pdms/gen/workload.h"
#include "pdms/lang/canonical.h"
#include "pdms/obs/export.h"
#include "pdms/obs/trace.h"

namespace pdms {
namespace {

gen::Workload MakeWorkload(uint64_t seed) {
  gen::WorkloadConfig config;
  config.num_peers = 24;
  config.num_strata = 3;
  config.definitional_fraction = 0.25;
  config.providers_per_relation = 2;
  config.facts_per_stored = 4;
  config.comparison_fraction = 0.2;
  config.seed = seed;
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

/// Everything observable about one query run, rendered to strings (with
/// timings stripped) so runs can be compared byte for byte.
struct Outcome {
  std::string answers;
  std::string report;
  std::string explain;
  std::string canonical_disjuncts;  // canonical key per rewriting, in order
  std::string rewriting_text;       // verbatim, variable names included
  ReformulationStats stats;
};

Outcome RunOne(const gen::Workload& workload) {
  Pdms pdms = MakePdms(workload);
  obs::TraceContext trace("q");
  pdms.set_trace(&trace);
  Outcome out;
  auto ref = pdms.Reformulate(workload.query);
  EXPECT_TRUE(ref.ok()) << ref.status().ToString();
  if (ref.ok()) {
    out.rewriting_text = ref->rewriting.ToString();
    for (const ConjunctiveQuery& cq : ref->rewriting.disjuncts()) {
      out.canonical_disjuncts += CanonicalQueryKey(cq);
      out.canonical_disjuncts += '\n';
    }
  }
  auto result = pdms.AnswerWithReport(workload.query);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (result.ok()) {
    out.answers = result->answers.ToString();
    out.report = result->degradation.ToString();
    out.stats = result->stats;
  }
  out.explain = obs::RenderSpanTreeStructure(trace);
  return out;
}

void ExpectCountersEqual(const ReformulationStats& a,
                         const ReformulationStats& b) {
  EXPECT_EQ(a.goal_nodes, b.goal_nodes);
  EXPECT_EQ(a.rule_nodes, b.rule_nodes);
  EXPECT_EQ(a.inclusion_nodes, b.inclusion_nodes);
  EXPECT_EQ(a.definitional_nodes, b.definitional_nodes);
  EXPECT_EQ(a.pruned_unsat, b.pruned_unsat);
  EXPECT_EQ(a.pruned_dead, b.pruned_dead);
  EXPECT_EQ(a.pruned_guard, b.pruned_guard);
  EXPECT_EQ(a.pruned_unavailable, b.pruned_unavailable);
  EXPECT_EQ(a.excluded_stored, b.excluded_stored);
  EXPECT_EQ(a.combos_failed, b.combos_failed);
  EXPECT_EQ(a.rewritings, b.rewritings);
  EXPECT_EQ(a.duplicate_disjuncts, b.duplicate_disjuncts);
  EXPECT_EQ(a.tree_truncated, b.tree_truncated);
  EXPECT_EQ(a.enumeration_truncated, b.enumeration_truncated);
}

TEST(ParallelEquivalence, FreshFacadesAgreeVerbatimAcrossSeeds) {
  for (uint64_t seed : {11u, 42u, 97u, 123u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    gen::Workload workload = MakeWorkload(seed);
    Outcome first = RunOne(workload);
    EXPECT_FALSE(first.answers.empty());
    Outcome again = RunOne(workload);
    // Same answers, same report, same rewritings in the same order with
    // the same variable names, same span structure.
    EXPECT_EQ(again.answers, first.answers);
    EXPECT_EQ(again.report, first.report);
    EXPECT_EQ(again.canonical_disjuncts, first.canonical_disjuncts);
    EXPECT_EQ(again.rewriting_text, first.rewriting_text);
    EXPECT_EQ(again.explain, first.explain);
    ExpectCountersEqual(again.stats, first.stats);
  }
}

TEST(ParallelEquivalence, DeepTreeBuildsSerially) {
  // A 95,136-node rule-goal tree (96 peers, diameter 6, 25% definitional
  // mappings): deep enough that a build nesting tasks on one thread's
  // stack overflows the default 8 MiB, so it guards the serial depth-first
  // build. The rewriting cap keeps step 3 short.
  gen::WorkloadConfig config;
  config.num_peers = 96;
  config.num_strata = 6;
  config.definitional_fraction = 0.25;
  config.providers_per_relation = 2;
  config.seed = 1;
  auto workload = gen::GenerateWorkload(config);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();

  ReformulationOptions options;
  options.max_rewritings = 20;
  Pdms pdms(options);
  *pdms.mutable_network() = workload->network;
  auto ref = pdms.Reformulate(workload->query);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(ref->stats.total_nodes(), 95136u);
  EXPECT_EQ(ref->stats.rewritings, 20u);
}

TEST(ParallelEquivalence, ConcurrentServingSharedCaches) {
  // Several serving threads, each with its own facade, sharing one plan
  // cache — the deployment the thread-safe cache exists for. Every thread
  // must see exactly the baseline answers.
  gen::Workload workload = MakeWorkload(31);
  std::string expected = RunOne(workload).answers;
  ASSERT_FALSE(expected.empty());

  cache::PlanCache shared_plans;
  constexpr size_t kServers = 4;
  constexpr size_t kRequests = 8;
  std::vector<std::string> got(kServers);
  std::vector<std::thread> servers;
  servers.reserve(kServers);
  for (size_t s = 0; s < kServers; ++s) {
    servers.emplace_back([&, s] {
      Pdms pdms = MakePdms(workload);
      pdms.set_plan_cache(&shared_plans);
      for (size_t r = 0; r < kRequests; ++r) {
        auto result = pdms.AnswerWithReport(workload.query);
        if (!result.ok()) {
          got[s] = "error: " + result.status().ToString();
          return;
        }
        std::string answers = result->answers.ToString();
        if (r > 0 && answers != got[s]) {
          got[s] = "nondeterministic across requests";
          return;
        }
        got[s] = std::move(answers);
      }
    });
  }
  for (std::thread& t : servers) t.join();
  for (size_t s = 0; s < kServers; ++s) {
    EXPECT_EQ(got[s], expected) << "server " << s;
  }
  // The shared cache did real cross-thread work: at most kServers misses
  // can have filled it, everything else must have hit.
  cache::PlanCacheStats stats = shared_plans.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.hits + stats.misses, kServers * kRequests);
}

}  // namespace
}  // namespace pdms
