// Streaming answers (Pdms::AnswerStreaming) against the union evaluator.
// Streaming evaluates each rewriting through the vectorized engine as the
// reformulator emits it; the legacy tuple-at-a-time union evaluator over
// the facade's reformulation (legacy_oracle.h) is the oracle. Covered on
// seeded Section-5 generator worlds (diameters 1-3) and the Figure-1
// emergency scenario:
//
//  - the streamed answer set equals the oracle's on both streaming
//    branches (plan-cache miss, and hit with a warmed CachingPdms);
//  - stopping after k answers delivers exactly k distinct tuples;
//  - under a downed peer and under a seeded flaky injector, the access.*
//    counters and the answers equal a replay of the legacy streaming
//    evaluation (first-veto gating per rewriting, then EvaluateCQ);
//  - every rewriting's `join` span carries `atoms` and the same `answers`
//    count the legacy evaluator finds for that rewriting;
//  - nothing a stream builds outlives its call: a fact inserted between
//    two streams joins in the second.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pdms/cache/caching_pdms.h"
#include "pdms/core/pdms.h"
#include "pdms/core/reformulator.h"
#include "pdms/eval/evaluator.h"
#include "pdms/fault/access.h"
#include "pdms/gen/emergency.h"
#include "pdms/gen/workload.h"
#include "pdms/obs/metrics.h"
#include "pdms/obs/trace.h"
#include "legacy_oracle.h"

namespace pdms {
namespace {

struct World {
  std::string name;
  PdmsNetwork network;
  Database data;
  std::vector<ConjunctiveQuery> queries;
};

std::vector<World> Worlds() {
  std::vector<World> worlds;
  for (uint64_t seed : {5u, 23u, 71u}) {
    for (size_t diameter : {size_t{1}, size_t{2}, size_t{3}}) {
      gen::WorkloadConfig config;
      config.num_peers = 18;
      config.num_strata = diameter;
      config.definitional_fraction = 0.25;
      config.providers_per_relation = 2;
      config.comparison_fraction = 0.2;
      config.facts_per_stored = 6;
      config.value_domain = 6;
      config.seed = seed;
      // A two-subgoal query at diameter 3 reformulates into about 1,000
      // rewritings; one subgoal keeps it near 40, fast enough under the
      // sanitizers while still unioning over every stratum.
      config.query_subgoals = diameter == 3 ? 1 : 2;
      auto workload = gen::GenerateWorkload(config);
      EXPECT_TRUE(workload.ok()) << workload.status().ToString();
      if (!workload.ok()) continue;
      worlds.push_back({"seed " + std::to_string(seed) + " diameter " +
                            std::to_string(diameter),
                        std::move(workload->network),
                        std::move(workload->data),
                        {std::move(workload->query)}});
    }
  }
  Pdms emergency;
  EXPECT_TRUE(emergency.LoadProgram(gen::EmergencyBasePpl()).ok());
  EXPECT_TRUE(emergency.LoadProgram(gen::EmergencyEarthquakePpl()).ok());
  World world{"emergency", emergency.network(), emergency.database(), {}};
  for (const char* text :
       {"Q(f1, f2) :- FS:SameEngine(f1, f2, e), FS:Skill(f1, s), "
        "FS:Skill(f2, s).",
        "q(p) :- NDC:SkilledPerson(p, \"Doctor\").",
        "q(pid, bed) :- H:Patient(pid, bed, st)."}) {
    auto query = emergency.ParseQuery(text);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    if (query.ok()) world.queries.push_back(std::move(*query));
  }
  worlds.push_back(std::move(world));
  return worlds;
}

void Load(const World& world, Pdms* pdms) {
  *pdms->mutable_network() = world.network;
  *pdms->mutable_database() = world.data;
}

std::string Canonical(Relation rel) {
  rel.SortCanonical();
  return rel.ToString();
}

// The oracle: the legacy union evaluator over the facade's reformulation.
std::string Oracle(const World& world, const ConjunctiveQuery& query) {
  Pdms legacy;
  Load(world, &legacy);
  auto result = LegacyAnswerWithReport(&legacy, query);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? Canonical(result->answers) : "";
}

// Streams every answer, checking the deliveries are distinct and make up
// exactly the returned relation.
std::string StreamAll(Pdms* pdms, const ConjunctiveQuery& query) {
  Relation delivered(query.head().predicate(), query.head().arity());
  size_t deliveries = 0;
  auto result = pdms->AnswerStreaming(query, [&](const Tuple& t) {
    ++deliveries;
    EXPECT_TRUE(delivered.Insert(t)) << "delivered twice: " << TupleToString(t);
    return true;
  });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return "";
  EXPECT_EQ(deliveries, result->size());
  EXPECT_EQ(Canonical(delivered), Canonical(*result));
  return Canonical(*result);
}

TEST(StreamingEquivalence, MatchesUnionEvaluator) {
  size_t nonempty = 0;
  for (const World& world : Worlds()) {
    SCOPED_TRACE(world.name);
    for (const ConjunctiveQuery& query : world.queries) {
      SCOPED_TRACE(query.ToString());
      std::string want = Oracle(world, query);
      if (want != Canonical(Relation(query.head().predicate(),
                                     query.head().arity()))) {
        ++nonempty;
      }
      Pdms pdms;
      Load(world, &pdms);
      EXPECT_EQ(StreamAll(&pdms, query), want);
      // A second stream on the same facade runs over the now-converted
      // columnar catalog and must not change.
      EXPECT_EQ(StreamAll(&pdms, query), want);
    }
  }
  // The worlds are sized so that most queries have answers; an all-empty
  // sweep would make the comparison vacuous.
  EXPECT_GE(nonempty, 6u);
}

TEST(StreamingEquivalence, PlanCacheHitBranchMatches) {
  for (const World& world : Worlds()) {
    SCOPED_TRACE(world.name);
    for (const ConjunctiveQuery& query : world.queries) {
      SCOPED_TRACE(query.ToString());
      std::string want = Oracle(world, query);
      cache::CachingPdms cached;
      Load(world, cached.pdms());
      obs::MetricsRegistry metrics;
      cached.set_metrics(&metrics);
      auto warm = cached.AnswerWithReport(query);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      const uint64_t hits = metrics.counter("cache.hits");
      EXPECT_EQ(StreamAll(cached.pdms(), query), want);
      EXPECT_EQ(metrics.counter("cache.hits"), hits + 1);
    }
  }
}

TEST(StreamingEquivalence, StoppingAfterKDeliversExactlyK) {
  size_t checked = 0;
  for (const World& world : Worlds()) {
    SCOPED_TRACE(world.name);
    for (const ConjunctiveQuery& query : world.queries) {
      SCOPED_TRACE(query.ToString());
      Pdms probe;
      Load(world, &probe);
      auto all = probe.Answer(query);
      ASSERT_TRUE(all.ok()) << all.status().ToString();
      if (all->size() < 2) continue;
      ++checked;
      for (size_t k : {size_t{1}, size_t{2}, all->size()}) {
        SCOPED_TRACE("k " + std::to_string(k));
        for (bool warmed : {false, true}) {
          SCOPED_TRACE(warmed ? "plan-cache hit" : "plan-cache miss");
          cache::CachingPdms cached;
          Load(world, cached.pdms());
          if (warmed) {
            ASSERT_TRUE(cached.AnswerWithReport(query).ok());
          }
          Relation delivered(query.head().predicate(), query.head().arity());
          auto result = cached.pdms()->AnswerStreaming(
              query, [&](const Tuple& t) {
                EXPECT_TRUE(delivered.Insert(t));
                EXPECT_TRUE(all->Contains(t));
                return delivered.size() < k;
              });
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          EXPECT_EQ(delivered.size(), k);
          EXPECT_EQ(result->size(), k);
        }
      }
    }
  }
  EXPECT_GE(checked, 4u);
}

// Fault setups shared by the facade under test and the legacy replay.
enum class Faults { kPeerDown, kFlaky };

void ConfigureFaults(Faults faults, const World& world,
                     const ConjunctiveQuery& query, FaultInjector* injector) {
  if (faults == Faults::kPeerDown) {
    // Down the peer serving the first relation of the first rewriting, so
    // the veto lands on the stream's very first gate.
    Reformulator reformulator(world.network);
    auto ref = reformulator.Reformulate(query);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_FALSE(ref->rewriting.empty());
    const ConjunctiveQuery& first = ref->rewriting.disjuncts()[0];
    ASSERT_FALSE(first.body().empty());
    auto peer = world.network.StoredRelationPeer(first.body()[0].predicate());
    ASSERT_TRUE(peer.ok());
    injector->SetPeerDown(*peer, true);
    return;
  }
  for (const Peer& peer : world.network.peers()) {
    FaultProfile profile;
    profile.failure_probability = 0.45;
    profile.latency_ms = 0.5;
    profile.latency_jitter_ms = 0.5;
    injector->SetPeerProfile(peer.name, profile);
  }
}

// What LegacyReplay observed.
struct Replay {
  std::string answers;
  std::map<std::string, uint64_t> access;
  std::vector<std::pair<std::string, std::string>> joins;  // atoms, answers
};

std::map<std::string, uint64_t> AccessCounters(
    const obs::MetricsRegistry& metrics) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : metrics.counters()) {
    if (name.rfind("access.", 0) == 0) out[name] = value;
  }
  return out;
}

// Streaming as the tuple-at-a-time evaluator ran it, rebuilt from public
// parts: each emitted rewriting clears its distinct body relations in body
// order, stopping at the first veto (a kUnavailable veto skips the
// rewriting), and survivors run through EvaluateCQ.
Replay LegacyReplay(const World& world, const ConjunctiveQuery& query,
                    const Pdms& facade, FaultInjector* injector) {
  Replay out;
  obs::MetricsRegistry metrics;
  AccessController access(
      injector, facade.retry_policy(), facade.deadline(),
      [&](const std::string& relation) {
        auto peer = world.network.StoredRelationPeer(relation);
        return peer.ok() ? *peer : std::string();
      },
      nullptr, &metrics);
  Relation answers(query.head().predicate(), query.head().arity());
  Reformulator reformulator(world.network);
  auto result = reformulator.ReformulateStreaming(
      query, ReformulationOptions{}, [&](const ConjunctiveQuery& rewriting) {
        std::set<std::string> gated;
        for (const Atom& a : rewriting.body()) {
          if (!gated.insert(a.predicate()).second) continue;
          Status s = access.Access(a.predicate());
          if (s.ok()) continue;
          EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
          return true;
        }
        auto part = EvaluateCQ(rewriting, world.data);
        EXPECT_TRUE(part.ok()) << part.status().ToString();
        if (!part.ok()) return false;
        out.joins.emplace_back(std::to_string(rewriting.body().size()),
                               std::to_string(part->size()));
        answers.MergeFrom(std::move(*part));
        return true;
      });
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  out.answers = Canonical(answers);
  out.access = AccessCounters(metrics);
  return out;
}

TEST(StreamingEquivalence, AccessCountersFollowTheLegacyGatingOrder) {
  size_t degraded = 0;
  uint64_t seed = 11;
  for (const World& world : Worlds()) {
    SCOPED_TRACE(world.name);
    for (const ConjunctiveQuery& query : world.queries) {
      SCOPED_TRACE(query.ToString());
      for (Faults faults : {Faults::kPeerDown, Faults::kFlaky}) {
        SCOPED_TRACE(faults == Faults::kPeerDown ? "peer down" : "flaky");
        ++seed;
        Pdms pdms;
        Load(world, &pdms);
        pdms.set_fault_seed(seed);
        ConfigureFaults(faults, world, query, pdms.mutable_fault_injector());
        obs::MetricsRegistry metrics;
        pdms.set_metrics(&metrics);
        std::string got = StreamAll(&pdms, query);

        FaultInjector injector(seed);
        ConfigureFaults(faults, world, query, &injector);
        Replay want = LegacyReplay(world, query, pdms, &injector);
        EXPECT_EQ(AccessCounters(metrics), want.access);
        EXPECT_EQ(got, want.answers);
        if (metrics.counter("access.failures") +
                metrics.counter("access.timeouts") > 0) {
          ++degraded;
        }
      }
    }
  }
  // Enough runs must actually veto scans for the comparison to bite.
  EXPECT_GE(degraded, 10u);
}

TEST(StreamingEquivalence, JoinSpansKeepAtomsAndPerRewritingAnswers) {
  for (const World& world : Worlds()) {
    SCOPED_TRACE(world.name);
    for (const ConjunctiveQuery& query : world.queries) {
      SCOPED_TRACE(query.ToString());
      Pdms pdms;
      Load(world, &pdms);
      obs::TraceContext trace("streaming");
      pdms.set_trace(&trace);
      StreamAll(&pdms, query);
      std::vector<std::pair<std::string, std::string>> got;
      for (const obs::Span& span : trace.spans()) {
        if (span.name != "join") continue;
        const std::string* atoms = span.FindAttribute("atoms");
        const std::string* answers = span.FindAttribute("answers");
        ASSERT_NE(atoms, nullptr);
        ASSERT_NE(answers, nullptr);
        got.emplace_back(*atoms, *answers);
      }
      Replay want = LegacyReplay(world, query, pdms, /*injector=*/nullptr);
      EXPECT_EQ(got, want.joins);
    }
  }
}

TEST(StreamingEquivalence, AFactInsertedBetweenStreamsJoinsInTheNext) {
  // Two replicas of R make two rewritings that join the same S. With
  // equal sizes the planner scans the replica and builds the hash table
  // on s in both.
  Pdms pdms;
  ASSERT_TRUE(pdms.LoadProgram(R"(
    peer A { relation R(x, y); relation S(y, z); }
    stored r1(x, y) <= A:R(x, y).
    stored r2(x, y) <= A:R(x, y).
    stored s(y, z) <= A:S(y, z).
    fact r1(1, 10).
    fact r1(2, 20).
    fact r1(3, 50).
    fact r2(3, 10).
    fact r2(4, 30).
    fact r2(6, 60).
    fact s(10, 100).
    fact s(20, 200).
    fact s(40, 400).
  )").ok());
  auto query = pdms.ParseQuery("q(x, z) :- A:R(x, y), A:S(y, z).");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto oracle = [&] {
    World world{"join", pdms.network(), pdms.database(), {*query}};
    return Oracle(world, *query);
  };

  const std::string before = StreamAll(&pdms, *query);
  EXPECT_EQ(before, oracle());

  // s(60, 600) joins r2(6, 60): a join table on s kept past the first
  // call would miss it. One more row in each replica keeps the sizes
  // tied, so the second call builds its table on s again.
  ASSERT_TRUE(pdms.Insert("s", {Value::Int(60), Value::Int(600)}).ok());
  ASSERT_TRUE(pdms.Insert("r1", {Value::Int(7), Value::Int(70)}).ok());
  ASSERT_TRUE(pdms.Insert("r2", {Value::Int(8), Value::Int(80)}).ok());
  const std::string after = StreamAll(&pdms, *query);
  EXPECT_EQ(after, oracle());
  EXPECT_NE(after, before);
  EXPECT_NE(after.find("600"), std::string::npos) << after;

  // Stopping after the first answer delivers exactly one.
  Relation delivered(query->head().predicate(), query->head().arity());
  auto first = pdms.AnswerStreaming(*query, [&](const Tuple& t) {
    EXPECT_TRUE(delivered.Insert(t));
    return false;
  });
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(delivered.size(), 1u);
  EXPECT_EQ(first->size(), 1u);
}

}  // namespace
}  // namespace pdms
