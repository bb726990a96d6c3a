// The cost-aware routing equivalence suite (docs/network_cost_model.md):
// cost estimates only ever reorder work, so a cost-aware run must return
// BYTE-IDENTICAL answers — and an identical degradation verdict — to the
// cost-blind run over the same topology, link map, and seed. The sweep
// varies topology kind, link-map shape, replica count, and relay fan-out
// across many seeds (`PDMS_EQ_SEEDS` overrides the count; CI runs a
// reduced sweep under sanitizers).
//
// What is compared: the answer relation's ToString (the vectorized engine
// sorts answers canonically) and the degradation report minus the
// per-hop message counters and the clocked access fields (backoff_ms,
// elapsed_ms) — routing is allowed to change how many messages were spent
// and when, never what came back or what was lost.
//
// Fault cases are different: with a crashed provider the two modes may
// legitimately pick different replicas, so there the contract weakens to
// soundness — every answer is a subset of the fault-free answer set.

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "pdms/core/cost_estimator.h"
#include "pdms/gen/topology.h"
#include "pdms/sim/sim_pdms.h"
#include "pdms/util/strings.h"

namespace pdms {
namespace {

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<size_t>(std::strtoull(v, nullptr, 10));
}

// The comparable slice of a degradation report: everything except the
// message counters and the clocked access fields.
std::string NormalizeReport(const DegradationReport& r) {
  std::string out = CompletenessName(r.completeness);
  for (const std::string& p : r.excluded_peers) out += "|peer:" + p;
  for (const std::string& s : r.excluded_stored) out += "|stored:" + s;
  out += StrFormat(
      "|rw:%zu|br:%zu|probes:%zu|attempts:%zu|ok:%zu|fail:%zu|to:%zu",
      r.rewritings_skipped, r.branches_pruned, r.access.probes,
      r.access.attempts, r.access.successes, r.access.failures,
      r.access.timeouts);
  return out;
}

struct EqRun {
  std::string answers;
  std::string report;
};

struct EqConfig {
  uint64_t seed = 1;
  bool cost_aware = false;
  bool relay_fanout = true;
  std::string crashed_peer;  // empty = fault-free
};

// One full distributed run over `topology` + `links`; the SimPdms is
// rebuilt per run so the two modes share nothing but the inputs.
Result<EqRun> RunOnce(const gen::Topology& topology, const LinkMap& links,
                      const ConjunctiveQuery& query, const EqConfig& config) {
  sim::SimOptions options;
  options.seed = config.seed;
  options.network_model = "contention";
  options.links = &links;
  // The default 10ms per-hop timeout sits below one WAN round trip; give
  // every request comfortable headroom so fault-free runs stay fault-free.
  options.request_timeout_ms = 200.0;
  options.reform.cost_aware = config.cost_aware;
  options.relay_fanout = config.relay_fanout;
  sim::SimPdms sim(topology.network, topology.data, options);
  if (!config.crashed_peer.empty()) {
    sim.SetPeerCrashed(config.crashed_peer, true);
  }
  auto result = sim.Answer(query);
  PDMS_RETURN_IF_ERROR(result.status());
  EqRun out;
  out.answers = result->answers.ToString();
  out.report = NormalizeReport(result->degradation);
  return out;
}

std::set<std::string> AnswerLines(const std::string& answers) {
  std::set<std::string> lines;
  std::istringstream in(answers);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.insert(line);
  }
  return lines;
}

TEST(CostEquivalence, CostAwareMatchesCostBlindAcrossSeeds) {
  const size_t seeds = EnvSize("PDMS_EQ_SEEDS", 200);
  for (size_t s = 0; s < seeds; ++s) {
    SCOPED_TRACE(StrFormat(
        "seed %zu — reproduce with: PDMS_EQ_SEEDS=%zu (sweep runs seeds "
        "0..%zu; this failure is at index %zu)",
        s, s + 1, seeds - 1, s));

    gen::TopologyConfig topo_config;
    topo_config.kind = s % 2 == 0 ? gen::TopologyConfig::Kind::kCommunity
                                  : gen::TopologyConfig::Kind::kPowerLaw;
    topo_config.num_peers = 12 + s % 9;
    topo_config.num_communities = 3 + s % 3;
    topo_config.replicas = s % 3 == 0 ? 1 : 0;
    topo_config.seed = 1000 + s;
    auto topology = gen::GenerateTopology(topo_config);
    ASSERT_TRUE(topology.ok()) << topology.status().ToString();

    gen::LinkMapConfig link_config;
    link_config.shape = s % 4 < 2 ? gen::LinkMapConfig::Shape::kClusteredWan
                                  : gen::LinkMapConfig::Shape::kHubSpoke;
    link_config.num_zones = 4;
    link_config.wan_per_message_ms = 1.0;  // make the trunks actually queue
    LinkMap links = GenerateLinkMap(*topology, link_config);

    const ConjunctiveQuery query =
        gen::TopologyQuery(s % topo_config.num_peers, 1);

    EqConfig blind;
    blind.seed = s + 1;
    blind.cost_aware = false;
    auto blind_run = RunOnce(*topology, links, query, blind);
    ASSERT_TRUE(blind_run.ok()) << blind_run.status().ToString();

    EqConfig aware = blind;
    aware.cost_aware = true;
    aware.relay_fanout = s % 5 != 0;  // also cover batching disabled
    auto aware_run = RunOnce(*topology, links, query, aware);
    ASSERT_TRUE(aware_run.ok()) << aware_run.status().ToString();

    EXPECT_EQ(blind_run->answers, aware_run->answers);
    EXPECT_EQ(blind_run->report, aware_run->report);
  }
}

TEST(CostEquivalence, CrashedProviderKeepsBothModesSound) {
  gen::TopologyConfig topo_config;
  topo_config.kind = gen::TopologyConfig::Kind::kCommunity;
  topo_config.num_peers = 16;
  topo_config.num_communities = 4;
  topo_config.replicas = 1;
  topo_config.seed = 41;
  auto topology = gen::GenerateTopology(topo_config);
  ASSERT_TRUE(topology.ok());

  gen::LinkMapConfig link_config;
  link_config.shape = gen::LinkMapConfig::Shape::kClusteredWan;
  LinkMap links = GenerateLinkMap(*topology, link_config);

  const ConjunctiveQuery query = gen::TopologyQuery(3, 1);
  EqConfig healthy;
  healthy.seed = 5;
  healthy.cost_aware = false;
  auto baseline = RunOnce(*topology, links, query, healthy);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::set<std::string> full = AnswerLines(baseline->answers);

  // Crash one provider the query's neighborhood depends on. With replicas
  // the two modes may resolve the loss through different hosts, so the
  // contract here is soundness, not byte equality: every answer either
  // mode returns must appear in the fault-free answer set.
  for (bool cost_aware : {false, true}) {
    SCOPED_TRACE(cost_aware ? "cost-aware" : "cost-blind");
    EqConfig crashed = healthy;
    crashed.cost_aware = cost_aware;
    crashed.crashed_peer = gen::TopologyPeerName(3);
    auto run = RunOnce(*topology, links, query, crashed);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    for (const std::string& line : AnswerLines(run->answers)) {
      EXPECT_TRUE(full.count(line) != 0)
          << "unsound answer under crash: " << line;
    }
  }
}

}  // namespace
}  // namespace pdms
