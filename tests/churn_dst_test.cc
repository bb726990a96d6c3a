// Deterministic simulation testing under live churn.
//
// Each seed expands into one complete schedule over a graph-shaped PDMS
// (power-law or community topology): queries interleaved with churn events
// — peer crash/recover, catalog leave/rejoin/join, mapping add/edit/
// remove, stored-relation availability flips, fact inserts. Two twins
// execute the same schedule against the same shared world:
//
//   cached twin   — shared PlanCache with dependency-tracked
//                   invalidation, plus a PeerHealthTracker;
//   uncached twin — no caches, its own (identically configured) tracker.
//
// Per step the twins' answers must be byte-identical and their
// completeness verdicts and exclusions must agree: caching under churn is
// allowed to save work, never to change a single byte of output.
//
// On top of the per-step oracle, the suite asserts the economics:
//  - sustained plan-cache hit rate on a Zipf query stream under steady
//    mapping-edit churn stays above 50% with tracked invalidation, while
//    wholesale clearing (the negative control) cannot reach the bar;
//  - a crashed peer costs O(1) timeout ladders total (detection), not one
//    ladder per query, measured on the virtual clock.
//
// Seed count and base default to 200 / 0, overridable with
// PDMS_DST_SEEDS / PDMS_DST_SEED0, so a failing seed N reproduces with:
//   PDMS_DST_SEEDS=1 PDMS_DST_SEED0=N ./churn_dst_test

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "pdms/cache/plan_cache.h"
#include "pdms/fault/peer_health.h"
#include "pdms/gen/topology.h"
#include "pdms/sim/churn.h"
#include "pdms/sim/sim_pdms.h"
#include "pdms/util/rng.h"
#include "pdms/util/strings.h"

namespace pdms {
namespace sim {
namespace {

size_t EnvSize(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<size_t>(std::strtoull(value, nullptr, 10));
}

gen::TopologyConfig TopologyFor(uint64_t seed, size_t num_peers) {
  Rng rng(seed ^ 0x6a09e667f3bcc909ull);
  gen::TopologyConfig config;
  config.kind = (seed % 2 == 0) ? gen::TopologyConfig::Kind::kPowerLaw
                                : gen::TopologyConfig::Kind::kCommunity;
  config.num_peers = num_peers;
  config.levels = 1 + rng.Uniform(2);  // 1..2
  config.attach_edges = 1 + rng.Uniform(2);
  config.num_communities = std::max<size_t>(2, num_peers / 8);
  config.definitional_fraction = rng.Chance(0.5) ? 0.3 : 0.7;
  config.facts_per_stored = 2 + rng.Uniform(2);
  config.value_domain = 4;  // small domain so joins produce answers
  config.seed = seed + 1;
  return config;
}

SimOptions SimFor(uint64_t seed, uint64_t step) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + step);
  SimOptions options;
  options.seed = seed * 1000 + step;
  options.faults.drop_probability = rng.UniformDouble() * 0.15;
  options.faults.duplicate_probability = rng.UniformDouble() * 0.1;
  options.faults.delay_jitter_ms = rng.UniformDouble() * 3.0;
  options.request_timeout_ms = 8.0;
  options.retry.max_attempts = 2 + rng.Uniform(2);  // 2..3
  return options;
}

PeerHealthConfig HealthFor() {
  PeerHealthConfig config;
  config.enabled = true;
  config.suspicion_threshold = 2;
  config.probe_backoff_ms = 8.0;
  config.probe_backoff_multiplier = 2.0;
  config.max_probe_backoff_ms = 256.0;
  return config;
}

// Zipf-flavored peer pick: squaring the uniform draw concentrates mass on
// the low indices (the topology's oldest peers — the hubs).
size_t ZipfPeer(Rng* rng, size_t num_peers) {
  double u = rng->UniformDouble();
  return static_cast<size_t>(u * u * static_cast<double>(num_peers));
}

struct StepOutcome {
  Status status = Status::Ok();
  std::string answers;
  std::string completeness;
  std::vector<std::string> excluded_peers;
  std::vector<std::string> excluded_stored;
  DegradationReport report;
};

StepOutcome RunOne(SimPdms* sim, const ConjunctiveQuery& query) {
  StepOutcome out;
  auto result = sim->Answer(query);
  if (!result.ok()) {
    out.status = result.status();
    return out;
  }
  out.answers = result->answers.ToString();
  out.completeness = CompletenessName(result->degradation.completeness);
  out.excluded_peers = result->degradation.excluded_peers;
  out.excluded_stored = result->degradation.excluded_stored;
  out.report = result->degradation;
  return out;
}

// One full schedule for one seed: returns the shared plan-cache stats so
// callers can aggregate hit rates.
void RunSeed(uint64_t seed, size_t num_peers, size_t steps,
             cache::PlanCacheStats* plan_stats_out) {
  auto world = gen::GenerateTopology(TopologyFor(seed, num_peers));
  ASSERT_TRUE(world.ok()) << world.status().ToString();

  ChurnConfig churn_config;
  churn_config.seed = seed;
  churn_config.value_domain = 4;
  ChurnDriver driver(churn_config, &world->network, &world->data);

  cache::PlanCache plans;
  PeerHealthTracker cached_health(HealthFor());
  PeerHealthTracker plain_health(HealthFor());

  Rng query_rng(seed ^ 0x243f6a8885a308d3ull);
  size_t total_levels = TopologyFor(seed, num_peers).levels;

  for (size_t step = 0; step < steps; ++step) {
    // Interleave: roughly every other step mutates the world first.
    if (query_rng.Chance(0.5)) {
      ChurnEvent event = driver.Step();
      SCOPED_TRACE("churn step " + std::to_string(step) + ": " +
                   event.ToString());
    }
    size_t peer = ZipfPeer(&query_rng, world->network.peers().size());
    // Joined peers only declare R0; generated peers have R0..R<levels>.
    size_t level = peer < num_peers ? 1 + query_rng.Uniform(total_levels) : 0;
    ConjunctiveQuery query = gen::TopologyQuery(peer, level);
    if (peer >= num_peers) {
      // A joined peer: query its stored relation via the generated name.
      query = ConjunctiveQuery(
          query.head(),
          {Atom(QualifiedName(StrFormat("J%zu", peer - num_peers), "R0"),
                query.head().args())});
    }
    SimOptions options = SimFor(seed, step);

    SimPdms cached(world->network, world->data, options);
    cached.set_plan_cache(&plans);
    cached.set_health(&cached_health);
    SimPdms plain(world->network, world->data, options);
    plain.set_health(&plain_health);
    for (const std::string& peer_name : driver.crashed()) {
      cached.SetPeerCrashed(peer_name, true);
      plain.SetPeerCrashed(peer_name, true);
    }

    StepOutcome got = RunOne(&cached, query);
    StepOutcome want = RunOne(&plain, query);
    SCOPED_TRACE("query step " + std::to_string(step) + " peer " +
                 std::to_string(peer) + " level " + std::to_string(level));
    ASSERT_EQ(got.status.ok(), want.status.ok())
        << got.status.ToString() << " vs " << want.status.ToString();
    if (!got.status.ok()) continue;  // both hit the loop bounds: no oracle
    // The oracle: byte-identical answers, identical verdicts/exclusions.
    EXPECT_EQ(got.answers, want.answers);
    EXPECT_EQ(got.completeness, want.completeness);
    EXPECT_EQ(got.excluded_peers, want.excluded_peers);
    EXPECT_EQ(got.excluded_stored, want.excluded_stored);
  }
  if (plan_stats_out != nullptr) *plan_stats_out = plans.stats();
}

TEST(ChurnDst, CachedAndUncachedTwinsStayByteIdentical) {
  const size_t num_seeds = EnvSize("PDMS_DST_SEEDS", 200);
  const size_t seed0 = EnvSize("PDMS_DST_SEED0", 0);
  size_t hits = 0;
  size_t misses = 0;
  for (size_t i = 0; i < num_seeds; ++i) {
    const uint64_t seed = seed0 + i;
    SCOPED_TRACE("reproduce with: PDMS_DST_SEEDS=1 PDMS_DST_SEED0=" +
                 std::to_string(seed) + " ./churn_dst_test");
    cache::PlanCacheStats stats;
    size_t num_peers = 12 + (seed % 5) * 6;  // 12..36
    RunSeed(seed, num_peers, /*steps=*/14, &stats);
    if (HasFatalFailure()) return;
    hits += stats.hits;
    misses += stats.misses;
  }
  // Sanity: the schedules actually exercised the cache from both sides.
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
}

// The economics assertion: a Zipf stream over a slowly-churning catalog
// must keep hitting. Every other step edits a mapping or inserts a fact;
// dependency-tracked invalidation only drops the plans whose footprints
// the edit touches, so the hot plans survive. Wholesale clearing — the
// pre-tracking behavior, kept as a negative control — drops everything on
// every catalog movement and cannot reach the bar. Both answer every
// request byte-identically.
TEST(ChurnDst, SustainedHitRateUnderSteadyChurnBeatsWholesale) {
  const uint64_t seed = 7;
  gen::TopologyConfig tconfig = TopologyFor(seed, 32);
  tconfig.levels = 1;
  auto world = gen::GenerateTopology(tconfig);
  ASSERT_TRUE(world.ok()) << world.status().ToString();

  ChurnConfig churn_config;
  churn_config.seed = seed;
  churn_config.value_domain = 4;
  // Steady read/write churn only: catalog edits and data inserts.
  churn_config.w_crash = 0;
  churn_config.w_recover = 0;
  churn_config.w_peer_leave = 0;
  churn_config.w_peer_rejoin = 0;
  churn_config.w_peer_join = 0;
  churn_config.w_mapping_add = 0;
  churn_config.w_mapping_remove = 0;
  churn_config.w_relation_flip = 0;
  churn_config.w_mapping_edit = 1;
  churn_config.w_fact_insert = 2;
  ChurnDriver driver(churn_config, &world->network, &world->data);

  cache::PlanCache tracked;
  cache::PlanCache wholesale;
  wholesale.set_wholesale_invalidation(true);

  Rng query_rng(seed ^ 0x243f6a8885a308d3ull);
  const size_t kSteps = 200;
  for (size_t step = 0; step < kSteps; ++step) {
    if (step % 2 == 1) driver.Step();
    size_t peer = ZipfPeer(&query_rng, 32);
    ConjunctiveQuery query = gen::TopologyQuery(peer, 1);
    SimOptions options;  // reliable links: this test measures hit rates
    options.seed = seed * 1000 + step;

    SimPdms a(world->network, world->data, options);
    a.set_plan_cache(&tracked);
    auto tracked_answer = a.Answer(query);
    ASSERT_TRUE(tracked_answer.ok()) << tracked_answer.status().ToString();
    SimPdms b(world->network, world->data, options);
    b.set_plan_cache(&wholesale);
    auto wholesale_answer = b.Answer(query);
    ASSERT_TRUE(wholesale_answer.ok())
        << wholesale_answer.status().ToString();
    // Keeping more plans must never change an answer.
    EXPECT_EQ(tracked_answer->answers.ToString(),
              wholesale_answer->answers.ToString())
        << "step " << step;
  }

  auto rate = [](const cache::PlanCacheStats& s) {
    return static_cast<double>(s.hits) /
           static_cast<double>(s.hits + s.misses);
  };
  double tracked_rate = rate(tracked.stats());
  double wholesale_rate = rate(wholesale.stats());
  EXPECT_GT(tracked_rate, 0.5)
      << "tracked invalidation must sustain hits under steady churn";
  EXPECT_LE(wholesale_rate, 0.5)
      << "wholesale clearing passing the bar means the control is broken";
  EXPECT_GT(tracked_rate, wholesale_rate);
}

// A crashed peer must cost one detection, not one timeout ladder per
// query: after `suspicion_threshold` failed fetches, every further query
// fails fast with zero messages until a probe window opens. Measured on
// the virtual clock, N queries against a dead peer cost O(1) ladders with
// health tracking and exactly N ladders without.
TEST(ChurnDst, DeadPeerCostsConstantDetectionsOnTheVirtualClock) {
  gen::TopologyConfig tconfig;
  tconfig.kind = gen::TopologyConfig::Kind::kPowerLaw;
  tconfig.num_peers = 4;
  tconfig.levels = 0;  // query storage directly
  tconfig.facts_per_stored = 2;
  tconfig.seed = 3;
  auto world = gen::GenerateTopology(tconfig);
  ASSERT_TRUE(world.ok()) << world.status().ToString();
  ConjunctiveQuery query = gen::TopologyQuery(0, 0);

  SimOptions options;
  options.seed = 11;
  options.request_timeout_ms = 10.0;
  options.retry.max_attempts = 3;

  PeerHealthConfig hconfig = HealthFor();
  hconfig.probe_backoff_ms = 1000.0;  // no probe inside this schedule
  hconfig.max_probe_backoff_ms = 8000.0;
  PeerHealthTracker tracker(hconfig);

  const size_t kQueries = 20;
  size_t timeouts_with = 0;
  size_t skips_with = 0;
  double elapsed_with = 0;
  size_t timeouts_without = 0;
  double elapsed_without = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    SimPdms with_health(world->network, world->data, options);
    with_health.set_health(&tracker);
    with_health.SetPeerCrashed("P0", true);
    auto r = with_health.Answer(query);
    ASSERT_TRUE(r.ok());
    timeouts_with += r->degradation.messages.request_timeouts;
    skips_with += r->degradation.messages.skipped_suspected;
    elapsed_with += r->degradation.access.elapsed_ms;

    SimPdms without_health(world->network, world->data, options);
    without_health.SetPeerCrashed("P0", true);
    auto r2 = without_health.Answer(query);
    ASSERT_TRUE(r2.ok());
    timeouts_without += r2->degradation.messages.request_timeouts;
    elapsed_without += r2->degradation.access.elapsed_ms;
  }
  // Without tracking: every query pays the full ladder.
  EXPECT_EQ(timeouts_without, kQueries * options.retry.max_attempts);
  // With tracking: only the detection queries pay it; the backoff covers
  // the rest of the schedule, so the total is constant in kQueries.
  EXPECT_EQ(timeouts_with,
            tracker.config().suspicion_threshold * options.retry.max_attempts);
  EXPECT_EQ(skips_with,
            kQueries - tracker.config().suspicion_threshold);
  EXPECT_TRUE(tracker.IsSuspected("P0"));
  // And the saved ladders are real virtual time.
  EXPECT_LT(elapsed_with, elapsed_without / 2);
}

// Shared caches must stay coherent (and TSan-clean) when four threads
// query through them concurrently while the catalog churns between
// rounds. Every thread's answers are byte-compared against an uncached
// single-threaded reference for the same world state.
TEST(ChurnDst, SharedCachesSurviveFourThreadsAcrossChurnRounds) {
  const uint64_t seed = 17;
  auto world = gen::GenerateTopology(TopologyFor(seed, 16));
  ASSERT_TRUE(world.ok()) << world.status().ToString();

  ChurnConfig churn_config;
  churn_config.seed = seed;
  // Catalog-only churn: crashes are per-SimPdms state and would make the
  // reference diverge.
  churn_config.w_crash = 0;
  churn_config.w_recover = 0;
  ChurnDriver driver(churn_config, &world->network, &world->data);

  cache::PlanCache plans;
  const size_t kThreads = 4;
  const size_t kRounds = 6;
  const size_t kQueriesPerThread = 5;

  for (size_t round = 0; round < kRounds; ++round) {
    driver.Step();
    // Reference answers for this round's queries, uncached.
    std::vector<ConjunctiveQuery> queries;
    std::vector<std::string> expected;
    Rng round_rng(seed + round);
    for (size_t q = 0; q < kQueriesPerThread; ++q) {
      size_t peer = ZipfPeer(&round_rng, 16);
      queries.push_back(gen::TopologyQuery(peer, 1));
      SimOptions options;
      options.seed = seed * 100 + round * 10 + q;
      SimPdms reference(world->network, world->data, options);
      auto r = reference.Answer(queries.back());
      ASSERT_TRUE(r.ok());
      expected.push_back(r->answers.ToString());
    }
    std::vector<std::vector<std::string>> got(kThreads);
    std::vector<std::thread> workers;
    for (size_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (size_t q = 0; q < kQueriesPerThread; ++q) {
          SimOptions options;
          options.seed = seed * 100 + round * 10 + q;
          SimPdms sim(world->network, world->data, options);
          sim.set_plan_cache(&plans);
          auto r = sim.Answer(queries[q]);
          got[t].push_back(r.ok() ? r->answers.ToString()
                                  : r.status().ToString());
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (size_t t = 0; t < kThreads; ++t) {
      for (size_t q = 0; q < kQueriesPerThread; ++q) {
        EXPECT_EQ(got[t][q], expected[q])
            << "round " << round << " thread " << t << " query " << q;
      }
    }
  }
  EXPECT_GT(plans.stats().hits, 0u);
}

// The generators must hold up at the scale the churn benchmarks run at.
TEST(ChurnDst, ThousandPeerTopologiesGenerateAndAnswer) {
  for (auto kind : {gen::TopologyConfig::Kind::kPowerLaw,
                    gen::TopologyConfig::Kind::kCommunity}) {
    gen::TopologyConfig config;
    config.kind = kind;
    config.num_peers = 1000;
    config.levels = 1;
    config.facts_per_stored = 1;
    config.seed = 5;
    auto world = gen::GenerateTopology(config);
    ASSERT_TRUE(world.ok()) << world.status().ToString();
    EXPECT_EQ(world->network.peers().size(), 1000u);
    // Hubs exist under preferential attachment: some peer is drawn on by
    // far more joiners than the attachment count.
    if (kind == gen::TopologyConfig::Kind::kPowerLaw) {
      std::vector<size_t> indegree(1000, 0);
      for (const auto& ns : world->neighbors) {
        for (size_t v : ns) ++indegree[v];
      }
      EXPECT_GT(*std::max_element(indegree.begin(), indegree.end()), 20u);
    }
    cache::PlanCache plans;
    for (size_t q = 0; q < 3; ++q) {
      SimOptions options;
      options.seed = 100 + q;
      SimPdms sim(world->network, world->data, options);
      sim.set_plan_cache(&plans);
      auto r = sim.Answer(gen::TopologyQuery(q * 7, 1));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  }
}

// A fast subset for CI smoke runs (tools/ci.sh step 7 filters on *Smoke*).
TEST(ChurnDstSmoke, ThirtyTwoSeedSubsetStaysByteIdentical) {
  const size_t num_seeds = EnvSize("PDMS_DST_SEEDS", 32);
  const size_t seed0 = EnvSize("PDMS_DST_SEED0", 0);
  for (size_t i = 0; i < num_seeds; ++i) {
    const uint64_t seed = seed0 + i;
    SCOPED_TRACE("reproduce with: PDMS_DST_SEEDS=1 PDMS_DST_SEED0=" +
                 std::to_string(seed) + " ./churn_dst_test");
    RunSeed(seed, /*num_peers=*/12, /*steps=*/8, nullptr);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace sim
}  // namespace pdms
