// Serving under live churn: a Zipf-skewed query stream over a power-law
// topology (1k peers by default) interleaved with catalog churn — mapping
// edits/adds/removes, peers leaving and rejoining, stored relations
// flipping, fact inserts — served twice over identically-evolving worlds:
// once with dependency-tracked invalidation and once with wholesale
// clearing (every catalog movement empties the cache). Reports the
// sustained hit rate of both modes plus p50/p99 serving latency, and
// asserts the two modes answer every request byte-identically.
//
// The point of the comparison: under steady churn, wholesale clearing
// goes cold after every event, while dependency tracking only drops the
// plans the event actually touched (docs/churn_invalidation.md).
//
// Knobs: PDMS_BENCH_PEERS (default 1000), PDMS_BENCH_LEVELS (2),
// PDMS_BENCH_REQUESTS (400), PDMS_BENCH_CHURN_EVERY (4),
// PDMS_BENCH_SEED (1).

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "pdms/cache/plan_cache.h"
#include "pdms/core/pdms.h"
#include "pdms/gen/topology.h"
#include "pdms/sim/churn.h"
#include "pdms/util/rng.h"
#include "pdms/util/timer.h"

namespace {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

}  // namespace

int main(int argc, char** argv) {
  using pdms::bench::EnvSize;
  pdms::bench::JsonReport report("churn_serving", &argc, argv);
  size_t peers = EnvSize("PDMS_BENCH_PEERS", 1000);
  size_t levels = EnvSize("PDMS_BENCH_LEVELS", 2);
  size_t requests = EnvSize("PDMS_BENCH_REQUESTS", 400);
  size_t churn_every = std::max<size_t>(1, EnvSize("PDMS_BENCH_CHURN_EVERY", 4));
  uint64_t seed = EnvSize("PDMS_BENCH_SEED", 1);
  report.set_seed(seed);
  report.params()->Set("peers", peers);
  report.params()->Set("levels", levels);
  report.params()->Set("requests", requests);
  report.params()->Set("churn_every", churn_every);

  pdms::gen::TopologyConfig config;
  config.kind = pdms::gen::TopologyConfig::Kind::kPowerLaw;
  config.num_peers = peers;
  config.levels = levels;
  config.attach_edges = 2;
  config.facts_per_stored = 2;
  config.seed = seed;
  auto topology = pdms::gen::GenerateTopology(config);
  if (!topology.ok()) {
    std::fprintf(stderr, "topology generation failed: %s\n",
                 topology.status().ToString().c_str());
    return 1;
  }

  // Two serving stacks over identically-evolving worlds: each facade owns
  // its copy of the catalog, and a seeded churn driver per copy replays
  // the same event sequence against both (the driver is deterministic in
  // its seed and the starting network).
  pdms::Pdms tracked;
  *tracked.mutable_network() = topology->network;
  *tracked.mutable_database() = topology->data;
  pdms::cache::PlanCache tracked_plans;
  tracked.set_plan_cache(&tracked_plans);

  pdms::Pdms wholesale;
  *wholesale.mutable_network() = topology->network;
  *wholesale.mutable_database() = topology->data;
  pdms::cache::PlanCache wholesale_plans;
  wholesale_plans.set_wholesale_invalidation(true);
  wholesale.set_plan_cache(&wholesale_plans);

  // Catalog + data churn only: transport crashes are meaningless for the
  // in-process facade (the simulated runtime pays for those; see
  // tests/churn_dst_test.cc).
  pdms::sim::ChurnConfig churn;
  churn.seed = seed + 1;
  churn.w_crash = 0;
  churn.w_recover = 0;
  churn.w_peer_join = 0;  // joins would skew the two Zipf streams apart
  pdms::sim::ChurnDriver tracked_churn(churn, tracked.mutable_network(),
                                       tracked.mutable_database());
  pdms::sim::ChurnDriver wholesale_churn(churn, wholesale.mutable_network(),
                                         wholesale.mutable_database());

  pdms::Rng stream(seed * 7919 + 17);
  std::vector<double> tracked_ms, wholesale_ms;
  std::map<std::string, size_t> events;
  size_t writes = 0;
  for (size_t r = 0; r < requests; ++r) {
    if (r > 0 && r % churn_every == 0) {
      pdms::sim::ChurnEvent a = tracked_churn.Step();
      pdms::sim::ChurnEvent b = wholesale_churn.Step();
      if (a.ToString() != b.ToString()) {
        std::fprintf(stderr, "churn divergence at request %zu: %s vs %s\n", r,
                     a.ToString().c_str(), b.ToString().c_str());
        return 1;
      }
      ++events[pdms::sim::ChurnEventKindName(a.kind)];
      ++writes;
    }
    // Zipf-flavored peer pick: u^2 concentrates on the low (hub) indices.
    double u = stream.UniformDouble();
    size_t peer = static_cast<size_t>(u * u * static_cast<double>(peers));
    if (peer >= peers) peer = peers - 1;
    pdms::ConjunctiveQuery query = pdms::gen::TopologyQuery(peer, levels);

    pdms::WallTimer t1;
    auto expect = tracked.Answer(query);
    tracked_ms.push_back(t1.ElapsedMillis());
    pdms::WallTimer t2;
    auto actual = wholesale.Answer(query);
    wholesale_ms.push_back(t2.ElapsedMillis());
    if (!expect.ok() || !actual.ok()) {
      std::fprintf(stderr, "request %zu failed: %s\n", r,
                   (!expect.ok() ? expect.status() : actual.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    if (expect->ToString() != actual->ToString()) {
      std::fprintf(stderr,
                   "ANSWER MISMATCH at request %zu (%s):\ntracked:\n%s\n"
                   "wholesale:\n%s\n",
                   r, query.ToString().c_str(), expect->ToString().c_str(),
                   actual->ToString().c_str());
      return 1;
    }
  }

  auto hit_rate = [](const pdms::cache::PlanCacheStats& s) {
    size_t lookups = s.hits + s.misses;
    return lookups > 0 ? static_cast<double>(s.hits) /
                             static_cast<double>(lookups)
                       : 0.0;
  };
  pdms::cache::PlanCacheStats ts = tracked_plans.stats();
  pdms::cache::PlanCacheStats ws = wholesale_plans.stats();
  double tracked_total = 0, wholesale_total = 0;
  for (double ms : tracked_ms) tracked_total += ms;
  for (double ms : wholesale_ms) wholesale_total += ms;

  std::printf("# Churn serving: %zu requests, churn every %zu "
              "(%zu write events), %zu peers, %zu levels\n",
              requests, churn_every, writes, peers, levels);
  std::printf("%-26s %12s %12s\n", "", "tracked", "wholesale");
  std::printf("%-26s %11.1f%% %11.1f%%\n", "sustained hit rate",
              100.0 * hit_rate(ts), 100.0 * hit_rate(ws));
  std::printf("%-26s %12zu %12zu\n", "invalidations", ts.invalidations,
              ws.invalidations);
  std::printf("%-26s %12.3f %12.3f\n", "p50 latency (ms)",
              Percentile(tracked_ms, 0.5), Percentile(wholesale_ms, 0.5));
  std::printf("%-26s %12.3f %12.3f\n", "p99 latency (ms)",
              Percentile(tracked_ms, 0.99), Percentile(wholesale_ms, 0.99));
  std::printf("%-26s %12.1f %12.1f\n", "queries/sec",
              tracked_total > 0 ? 1000.0 * requests / tracked_total : 0,
              wholesale_total > 0 ? 1000.0 * requests / wholesale_total : 0);
  std::printf("churn mix:");
  for (const auto& [kind, count] : events) {
    std::printf(" %s=%zu", kind.c_str(), count);
  }
  std::printf("\nall %zu requests answered identically by both modes\n",
              requests);

  pdms::bench::JsonObject* row = report.AddMetricRow();
  row->Set("writes", writes);
  row->Set("hit_rate_tracked", hit_rate(ts));
  row->Set("hit_rate_wholesale", hit_rate(ws));
  row->Set("invalidations_tracked", ts.invalidations);
  row->Set("invalidations_wholesale", ws.invalidations);
  row->Set("p50_ms_tracked", Percentile(tracked_ms, 0.5));
  row->Set("p99_ms_tracked", Percentile(tracked_ms, 0.99));
  row->Set("p50_ms_wholesale", Percentile(wholesale_ms, 0.5));
  row->Set("p99_ms_wholesale", Percentile(wholesale_ms, 0.99));
  row->Set("qps_tracked",
           tracked_total > 0 ? 1000.0 * requests / tracked_total : 0);
  row->Set("qps_wholesale",
           wholesale_total > 0 ? 1000.0 * requests / wholesale_total : 0);
  for (const auto& [kind, count] : events) {
    row->Set("churn_" + kind, count);
  }
  return report.Write() ? 0 : 1;
}
