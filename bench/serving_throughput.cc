// Serving throughput with the cross-query plan cache: replays a seeded,
// Zipf-skewed stream of queries over a Figure-3 workload twice — once
// through a plain Pdms (reformulate every request) and once through a
// CachingPdms — asserting byte-identical answers per request, and reports
// queries/sec, the hit rate, and the hit-path speedup. A separate all-miss
// pass prices the cold-path overhead (the cache bookkeeping a miss pays on
// top of reformulation), which must stay in the noise.
//
// The skew models a serving workload: a few hot queries repeat (plan-cache
// hits reuse their reformulation), the long tail keeps missing.
//
// A final sweep serves the same stream from 1, 2, and 4 concurrent server
// threads — each with its own facade, all sharing one thread-safe plan
// cache (docs/parallel_execution.md) — asserting every answer
// against the single-threaded baseline and reporting aggregate
// queries/sec per server count.
//
// Knobs: PDMS_BENCH_PEERS (default 48), PDMS_BENCH_DIAMETER (4),
// PDMS_BENCH_REQUESTS (300), PDMS_BENCH_POOL (16), PDMS_BENCH_ZIPF (1.1),
// PDMS_BENCH_FACTS (2), PDMS_BENCH_SEED (1), PDMS_BENCH_MAX_SERVERS (4).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pdms/cache/plan_cache.h"

#include "bench_util.h"
#include "pdms/cache/caching_pdms.h"
#include "pdms/core/pdms.h"
#include "pdms/gen/workload.h"
#include "pdms/util/rng.h"
#include "pdms/util/timer.h"

namespace pdms {
namespace {

// Peer relations the generated mappings can actually answer: definitional
// heads and relations mentioned on the right-hand side of inclusions.
// Sorted for determinism.
std::vector<std::string> ProvidedRelations(const PdmsNetwork& network) {
  std::set<std::string> provided;
  for (const PeerMapping& m : network.peer_mappings()) {
    if (m.kind == PeerMappingKind::kDefinitional) {
      provided.insert(m.rule.head().predicate());
    } else {
      for (const Atom& a : m.rhs.body()) {
        if (network.IsPeerRelation(a.predicate())) {
          provided.insert(a.predicate());
        }
      }
    }
  }
  return {provided.begin(), provided.end()};
}

// Pool entry i: a single-atom query over relation i while they last, then
// two-atom chains over adjacent relations. All binary (the generator's
// default arity).
std::vector<ConjunctiveQuery> BuildQueryPool(
    const std::vector<std::string>& relations, size_t pool_size) {
  std::vector<ConjunctiveQuery> pool;
  if (relations.empty()) return pool;
  Term x = Term::Var("x"), y = Term::Var("y"), z = Term::Var("z");
  for (size_t i = 0; i < pool_size; ++i) {
    if (i < relations.size()) {
      pool.emplace_back(Atom("Q", {x, y}),
                        std::vector<Atom>{Atom(relations[i], {x, y})});
    } else {
      size_t j = i - relations.size();
      const std::string& a = relations[j % relations.size()];
      const std::string& b = relations[(j + 1) % relations.size()];
      pool.emplace_back(
          Atom("Q", {x, z}),
          std::vector<Atom>{Atom(a, {x, y}), Atom(b, {y, z})});
    }
  }
  return pool;
}

// Inverse-CDF Zipf sampler over [0, n): weight(i) = 1 / (i+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(Rng* rng) const {
    double u = rng->UniformDouble();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace
}  // namespace pdms

int main(int argc, char** argv) {
  using pdms::bench::EnvDouble;
  using pdms::bench::EnvSize;
  pdms::bench::JsonReport report("serving_throughput", &argc, argv);
  size_t peers = EnvSize("PDMS_BENCH_PEERS", 48);
  size_t diameter = EnvSize("PDMS_BENCH_DIAMETER", 4);
  size_t requests = EnvSize("PDMS_BENCH_REQUESTS", 300);
  size_t pool_size = EnvSize("PDMS_BENCH_POOL", 16);
  double zipf_s = EnvDouble("PDMS_BENCH_ZIPF", 1.1);
  size_t facts = EnvSize("PDMS_BENCH_FACTS", 2);
  uint64_t seed = EnvSize("PDMS_BENCH_SEED", 1);
  report.params()->Set("peers", peers);
  report.params()->Set("diameter", diameter);
  report.params()->Set("requests", requests);
  report.params()->Set("pool", pool_size);
  report.params()->Set("zipf_s", zipf_s);
  report.params()->Set("facts_per_stored", facts);
  report.params()->Set("seed", static_cast<size_t>(seed));

  pdms::gen::WorkloadConfig config;
  config.num_peers = peers;
  config.num_strata = diameter;
  config.definitional_fraction = 0.25;
  config.providers_per_relation = 2;
  config.facts_per_stored = facts;
  config.seed = seed;
  auto workload = pdms::gen::GenerateWorkload(config);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }

  std::vector<pdms::ConjunctiveQuery> pool = pdms::BuildQueryPool(
      pdms::ProvidedRelations(workload->network), pool_size);
  if (pool.empty()) {
    std::fprintf(stderr, "no answerable relations in the workload\n");
    return 1;
  }

  pdms::Pdms plain;
  *plain.mutable_network() = workload->network;
  *plain.mutable_database() = workload->data;
  pdms::cache::CachingPdms cached;
  *cached.mutable_network() = workload->network;
  *cached.mutable_database() = workload->data;

  pdms::ZipfSampler sampler(pool.size(), zipf_s);
  pdms::Rng stream(seed * 7919 + 17);

  std::vector<double> plain_ms, hit_ms, miss_ms;
  double plain_total_ms = 0, cached_total_ms = 0;
  for (size_t r = 0; r < requests; ++r) {
    const pdms::ConjunctiveQuery& query = pool[sampler.Sample(&stream)];

    pdms::WallTimer plain_timer;
    auto expected = plain.Answer(query);
    double p_ms = plain_timer.ElapsedMillis();
    size_t hits_before = cached.plan_cache()->stats().hits;
    pdms::WallTimer cached_timer;
    auto actual = cached.Answer(query);
    double c_ms = cached_timer.ElapsedMillis();
    if (!expected.ok() || !actual.ok()) {
      std::fprintf(stderr, "request %zu failed: %s\n", r,
                   (!expected.ok() ? expected.status() : actual.status())
                       .ToString()
                       .c_str());
      return 1;
    }
    if (expected->ToString() != actual->ToString()) {
      std::fprintf(stderr,
                   "ANSWER MISMATCH at request %zu (%s):\ncache-off:\n%s\n"
                   "cache-on:\n%s\n",
                   r, query.ToString().c_str(), expected->ToString().c_str(),
                   actual->ToString().c_str());
      return 1;
    }
    plain_total_ms += p_ms;
    cached_total_ms += c_ms;
    plain_ms.push_back(p_ms);
    bool was_hit = cached.plan_cache()->stats().hits > hits_before;
    (was_hit ? hit_ms : miss_ms).push_back(c_ms);
  }

  // Cold path: every request a miss (fresh caches, distinct queries), so
  // the delta vs the plain facade is pure cache bookkeeping.
  pdms::Pdms cold_plain;
  *cold_plain.mutable_network() = workload->network;
  *cold_plain.mutable_database() = workload->data;
  pdms::cache::CachingPdms cold_cached;
  *cold_cached.mutable_network() = workload->network;
  *cold_cached.mutable_database() = workload->data;
  std::vector<double> cold_plain_ms, cold_cached_ms;
  for (const pdms::ConjunctiveQuery& query : pool) {
    pdms::WallTimer t1;
    auto a = cold_plain.Answer(query);
    cold_plain_ms.push_back(t1.ElapsedMillis());
    cold_cached.ClearCaches();  // force a miss even for repeated structure
    pdms::WallTimer t2;
    auto b = cold_cached.Answer(query);
    cold_cached_ms.push_back(t2.ElapsedMillis());
    if (!a.ok() || !b.ok()) continue;
  }

  size_t hits = hit_ms.size();
  double hit_rate = static_cast<double>(hits) / static_cast<double>(requests);
  double median_plain = pdms::Median(plain_ms);
  double median_hit = pdms::Median(hit_ms);
  double median_miss = pdms::Median(miss_ms);
  double hit_speedup = median_hit > 0 ? median_plain / median_hit : 0;
  double qps_plain =
      plain_total_ms > 0 ? 1000.0 * requests / plain_total_ms : 0;
  double qps_cached =
      cached_total_ms > 0 ? 1000.0 * requests / cached_total_ms : 0;
  double cold_plain_med = pdms::Median(cold_plain_ms);
  double cold_cached_med = pdms::Median(cold_cached_ms);
  double cold_overhead_pct =
      cold_plain_med > 0
          ? 100.0 * (cold_cached_med - cold_plain_med) / cold_plain_med
          : 0;

  std::printf("# Serving throughput: %zu requests, pool %zu, zipf %.2f "
              "(%zu peers, diameter %zu)\n",
              requests, pool.size(), zipf_s, peers, diameter);
  std::printf("%-22s %12s %12s\n", "", "cache-off", "cache-on");
  std::printf("%-22s %12.1f %12.1f\n", "queries/sec", qps_plain, qps_cached);
  std::printf("%-22s %12s %11.1f%%\n", "hit rate", "-", 100.0 * hit_rate);
  std::printf("%-22s %12.3f %12.3f\n", "median latency (ms)", median_plain,
              pdms::Median(hit_ms.empty() ? miss_ms : hit_ms));
  std::printf("hit-path: median %.3f ms vs %.3f ms cache-off -> %.1fx\n",
              median_hit, median_plain, hit_speedup);
  std::printf("miss-path median: %.3f ms; cold-path overhead: %+.2f%%\n",
              median_miss, cold_overhead_pct);
  std::printf("all %zu requests answered identically with and without the "
              "cache\n", requests);

  pdms::bench::JsonObject* row = report.AddMetricRow();
  row->Set("qps_cache_off", qps_plain);
  row->Set("qps_cache_on", qps_cached);
  row->Set("hit_rate", hit_rate);
  row->Set("hits", hits);
  row->Set("misses", requests - hits);
  row->Set("median_ms_cache_off", median_plain);
  row->Set("median_ms_hit", median_hit);
  row->Set("median_ms_miss", median_miss);
  row->Set("hit_path_speedup", hit_speedup);
  row->Set("cold_overhead_pct", cold_overhead_pct);
  row->Set("plan_cache_inserts", cached.plan_cache()->stats().inserts);
  row->Set("plan_cache_evictions", cached.plan_cache()->stats().evictions);

  // --- Concurrent serving sweep: N server threads, one shared plan cache.
  size_t max_servers = EnvSize("PDMS_BENCH_MAX_SERVERS", 4);

  // Ground truth per pool entry, from a fresh uncached facade.
  std::vector<std::string> expected(pool.size());
  {
    pdms::Pdms oracle;
    *oracle.mutable_network() = workload->network;
    *oracle.mutable_database() = workload->data;
    for (size_t i = 0; i < pool.size(); ++i) {
      auto a = oracle.Answer(pool[i]);
      if (!a.ok()) {
        std::fprintf(stderr, "oracle failed on pool entry %zu: %s\n", i,
                     a.status().ToString().c_str());
        return 1;
      }
      expected[i] = a->ToString();
    }
  }

  std::printf("\n# Concurrent serving (shared plan cache, "
              "%zu hardware threads)\n",
              (size_t)std::thread::hardware_concurrency());
  std::printf("%-10s %12s %12s %12s\n", "servers", "queries/sec", "hit rate",
              "mismatches");
  for (size_t servers = 1; servers <= max_servers; servers *= 2) {
    pdms::cache::PlanCache shared_plans;
    size_t per_server = requests / servers;
    std::atomic<size_t> mismatches{0};
    pdms::WallTimer wall;
    std::vector<std::thread> threads;
    threads.reserve(servers);
    for (size_t s = 0; s < servers; ++s) {
      threads.emplace_back([&, s] {
        pdms::Pdms server;
        *server.mutable_network() = workload->network;
        *server.mutable_database() = workload->data;
        server.set_plan_cache(&shared_plans);
        pdms::Rng rng(seed * 104729 + servers * 131 + s);
        for (size_t r = 0; r < per_server; ++r) {
          size_t pick = sampler.Sample(&rng);
          auto answer = server.Answer(pool[pick]);
          if (!answer.ok() || answer->ToString() != expected[pick]) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    double ms = wall.ElapsedMillis();
    double qps = ms > 0 ? 1000.0 * (per_server * servers) / ms : 0;
    pdms::cache::PlanCacheStats shared_stats = shared_plans.stats();
    double shared_hit_rate =
        shared_stats.hits + shared_stats.misses > 0
            ? static_cast<double>(shared_stats.hits) /
                  static_cast<double>(shared_stats.hits + shared_stats.misses)
            : 0;
    std::printf("%-10zu %12.1f %11.1f%% %12zu\n", servers, qps,
                100.0 * shared_hit_rate, mismatches.load());
    pdms::bench::JsonObject* srow = report.AddMetricRow();
    srow->Set("servers", servers);
    srow->Set("qps_concurrent", qps);
    srow->Set("shared_hit_rate", shared_hit_rate);
    srow->Set("mismatches", mismatches.load());
    if (mismatches.load() != 0) {
      std::fprintf(stderr,
                   "concurrent serving produced %zu mismatched answers\n",
                   mismatches.load());
      return 1;
    }
  }
  return report.Write() ? 0 : 1;
}
