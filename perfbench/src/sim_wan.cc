// sim_wan: one reused sim::SimPdms running the contention network model
// over a clustered-WAN link map, with replicas and cost-aware routing
// (cheapest replica, relay-batched zone fan-out). A plan cache is attached
// and warmed during set-up, so the simulated message layer, scan
// acquisition and evaluation do the work. Without this workload the sim
// layer (messages, scan volume, routing) would go unmeasured.

#include <cstdlib>
#include <memory>
#include <sstream>

#include "bench.h"
#include "pdms/cache/goal_memo.h"
#include "pdms/cache/plan_cache.h"
#include "pdms/sim/sim_pdms.h"
#include "worlds.h"

namespace perfbench {

namespace {

// Level-2 queries at peers spread over all four zones; the replica ring
// gives the cost-aware coordinator an intra-zone provider for much of
// each neighborhood. kPoolSize queries, visited in seeded passes as in
// cold_stream.
constexpr size_t kLevels = 2;

size_t PoolPeer(size_t q) { return 2 + q * 3; }  // peers 2, 5, ..., 38

std::string PoolQuery(size_t q) {
  return pdms::gen::TopologyQuery(PoolPeer(q), kLevels).ToString();
}

// Tuples carried by the scan responses the coordinator received, read off
// the simulated network's message trace.
uint64_t ResponseTuples(const std::string& message_trace) {
  uint64_t tuples = 0;
  std::istringstream lines(message_trace);
  std::string line;
  while (std::getline(lines, line)) {
    // "[  time] recv  P0 -> @client  resp#1 scan(st_0) ok 256 tuple(s) ..."
    if (line.find("] recv") == std::string::npos ||
        line.find("-> @client") == std::string::npos) {
      continue;
    }
    size_t at = line.find(" tuple(s)");
    if (at == std::string::npos) continue;
    size_t begin = line.rfind(' ', at - 1);
    if (begin == std::string::npos) continue;
    tuples += std::strtoull(line.c_str() + begin + 1, nullptr, 10);
  }
  return tuples;
}

struct Stack {
  pdms::gen::Topology topology;
  pdms::LinkMap links;
  pdms::cache::PlanCache plans;
  pdms::cache::GoalMemo memo;
  pdms::obs::MetricsRegistry metrics;
  std::unique_ptr<pdms::sim::SimPdms> sim;
};

struct Sample {
  size_t query = 0;
  double latency_ms = 0;
  double net_ms = 0;
  double start_ms = 0;
};

// Per-query values that must repeat on every visit.
struct QueryCounts {
  bool seen = false;
  double net_ms = 0;
  uint64_t messages = 0;
  uint64_t retransmits = 0;
  uint64_t relay_batches = 0;
  uint64_t tuples = 0;
  uint64_t digest = 0;
};

}  // namespace

RunResult RunSimWan(const Args& args, SpanLog* spans) {
  RunResult result;
  RecordTraffic(
      "closed loop, 1 caller, reused SimPdms (contention model, clustered "
      "WAN, 1 replica, cost-aware relay fan-out, warmed plan cache), seeded "
      "passes over 13 level-2 queries",
      1, 0, &result);

  // Set-up: generate the world and link map, copy them into the SimPdms,
  // and warm the plan cache (and the engine) with one pass over the pool.
  double load_ms = 0;
  std::function<std::unique_ptr<Stack>()> setup = [&] {
    double start = NowMs();
    auto stack = std::make_unique<Stack>();
    stack->topology = CommunityTopology();
    stack->topology.data = Facts(stack->topology.network);
    pdms::gen::LinkMapConfig link_config;
    link_config.shape = pdms::gen::LinkMapConfig::Shape::kClusteredWan;
    // The trunks queue under fan-out, on a fixed per-message occupancy
    // plus serialization of each response.
    link_config.wan_per_message_ms = 0.5;
    link_config.wan_bytes_per_ms = 2000;
    stack->links = pdms::gen::GenerateLinkMap(stack->topology, link_config);
    pdms::sim::SimOptions options;
    options.seed = SubSeed(args.seed, 0x51u);
    options.faults.delay_jitter_ms = 2.0;  // seeded, never drops
    options.network_model = "contention";
    options.links = &stack->links;
    options.request_timeout_ms = 400.0;  // above any queued WAN round trip
    options.reform.cost_aware = true;
    options.reform.threads = 1;
    double load_start = NowMs();
    stack->sim = std::make_unique<pdms::sim::SimPdms>(
        stack->topology.network, stack->topology.data, options);
    load_ms = NowMs() - load_start;
    stack->sim->set_plan_cache(&stack->plans);
    stack->sim->set_goal_memo(&stack->memo);
    stack->sim->set_metrics(&stack->metrics);
    double warm_start = NowMs();
    for (size_t q = 0; q < kPoolSize; ++q) {
      if (!stack->sim->Answer(PoolQuery(q)).ok()) {
        std::fprintf(stderr, "sim_wan warm-up failed\n");
        std::exit(1);
      }
    }
    if (args.trace) {
      spans->Add({"setup.load", start, warm_start, -1, {}});
      spans->Add({"setup.warm", warm_start, NowMs(), -1, {}});
    }
    return stack;
  };
  SetupTimes setups;
  std::unique_ptr<Stack> stack = setups.TimeRepeated(setup, kSetups);

  pdms::obs::TraceContext trace("sim_wan");
  std::vector<QueryCounts> counts(kPoolSize);
  LayerAccount account;
  uint64_t hits = 0, misses = 0;

  auto run_phase = [&](bool traced, double seconds, double* wall_ms) {
    pdms::sim::SimPdms* sim = stack->sim.get();
    sim->set_trace(traced ? &trace : nullptr);
    std::vector<Sample> samples;
    double start = NowMs();
    double deadline = start + seconds * 1000.0;
    double paused_ms = 0;
    for (size_t r = 0; NowMs() < deadline; ++r) {
      double spent = Gauge().Tick();
      paused_ms += spent;
      deadline += spent;
      size_t q = PassIndex(args.seed, r);
      std::string text = PoolQuery(q);
      // A registry of its own per request, so the simulated time reads
      // back exactly (a delta of a running sum would round).
      stack->metrics.Clear();
      // SimPdms leaves AnswerResult::plan_cache_hit unset, so a hit is
      // read off the cache's own counters.
      size_t hits_before = stack->plans.stats().hits;
      ++result.attempted;
      double t0 = NowMs();
      auto answer = sim->Answer(text);
      double t1 = NowMs();
      if (!answer.ok()) {
        result.Fail(text + ": " + answer.status().ToString());
        continue;
      }
      auto resolve = stack->metrics.FindHistogram("sim.resolve_ms");
      double net_ms = resolve.has_value() ? resolve->sum : 0;
      const bool hit = stack->plans.stats().hits > hits_before;
      (hit ? hits : misses) += 1;
      QueryCounts now;
      now.seen = true;
      now.net_ms = net_ms;
      now.messages = answer->degradation.messages.sent;
      now.retransmits = answer->degradation.messages.retransmits;
      now.relay_batches = answer->degradation.messages.relay_batches;
      now.tuples = ResponseTuples(sim->last_trace());
      now.digest =
          AnswerDigest(answer->answers, answer->degradation.completeness);
      QueryCounts& first = counts[q];
      if (!first.seen) {
        first = now;
      } else if (first.net_ms != now.net_ms || first.messages != now.messages ||
                 first.retransmits != now.retransmits ||
                 first.relay_batches != now.relay_batches ||
                 first.tuples != now.tuples) {
        result.correct = false;
        result.Fail(text + ": simulated run did not repeat exactly", 0);
      }
      if (first.digest != now.digest) {
        ++result.mismatches;
        result.Fail(text + ": answer changed between passes");
        continue;
      }
      samples.push_back({q, t1 - t0, net_ms, t0});
      if (!traced) continue;
      // The SimPdms stamps its spans on the virtual clock, so the wall
      // split comes from the bench timer and the reformulation stats
      // (a plan cache hit reformulates nothing). The two parts add up to
      // the latency by construction, so the reconciliation here checks
      // only the median window, not an attribution.
      double reform_ms =
          hit ? 0 : answer->stats.build_ms + answer->stats.enumerate_ms;
      LayerAccount::Request req;
      req.latency_ms = t1 - t0;
      req.layers["core.reformulate_ms"] = reform_ms;
      req.layers["sim.answer_wall_ms"] = t1 - t0 - reform_ms;
      spans->Add({"sim_wan.answer", t0, t1, static_cast<int64_t>(r),
                  req.layers});
      account.requests.push_back(std::move(req));
    }
    *wall_ms = NowMs() - start - paused_ms;
    sim->set_trace(nullptr);
    return samples;
  };

  double wall_ms = 0;
  std::vector<Sample> untraced = run_phase(
      false, args.trace ? args.seconds / 2 : args.seconds, &wall_ms);
  std::vector<double> lat, wall_lat;
  for (const Sample& s : WholePasses(untraced, kPoolSize)) {
    lat.push_back(RefMs(s.start_ms, s.latency_ms));
    wall_lat.push_back(s.latency_ms);
  }
  double untraced_p50 = Median(lat);
  std::vector<Sample> traced;
  if (args.trace) {
    double traced_wall = 0;
    traced = WholePasses(run_phase(true, args.seconds / 2, &traced_wall),
                         kPoolSize);
    account.requests.resize(std::min(account.requests.size(), traced.size()));
  }

  // The simulated latency of each pool query is a function of the seed;
  // its median over the pool is the run's network latency.
  std::vector<double> net;
  uint64_t messages = 0, retransmits = 0, relay_batches = 0, tuples = 0;
  bool all_seen = true;
  for (const QueryCounts& c : counts) {
    if (!c.seen) {
      all_seen = false;
      continue;
    }
    net.push_back(c.net_ms);
    messages += c.messages;
    retransmits += c.retransmits;
    relay_batches += c.relay_batches;
    tuples += c.tuples;
  }
  double net_p50 = Median(net);
  if (all_seen) {
    result.exact["net_latency_p50_ms"] = net_p50;
    result.exact["sim.messages_per_pass"] = static_cast<double>(messages);
    result.exact["sim.relay_batches_per_pass"] =
        static_cast<double>(relay_batches);
    result.exact["sim.tuples_per_pass"] = static_cast<double>(tuples);
  }
  result.exact["cache.misses"] = static_cast<double>(misses);
  result.Record("traffic.hit_share",
                hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                                  : 0);

  // Answer checks against an uncached in-process facade over the same
  // world, outside every timed phase.
  std::vector<std::string> queries;
  for (size_t q = 0; q < kPoolSize; ++q) queries.push_back(PoolQuery(q));
  pdms::gen::Topology topology = CommunityTopology();
  std::vector<uint64_t> want = ReferenceDigests(
      topology.network, Facts(topology.network), queries, &result);
  for (size_t q = 0; q < kPoolSize; ++q) {
    if (!counts[q].seen || want[q] == counts[q].digest) continue;
    uint64_t visits = 0;
    for (const auto* phase : {&untraced, &traced}) {
      for (const Sample& s : *phase) visits += s.query == q ? 1 : 0;
    }
    result.mismatches += visits;
    result.Fail(queries[q] + ": answers differ from reference", visits);
  }

  result.Record("setup_s", setups.MedianSeconds());
  result.Record("wall.setup_s", setups.WallMedianSeconds());
  result.Record("setup.timed", static_cast<double>(setups.count()));
  if (!args.trace) {
    result.Set("setup_s", setups.MedianSeconds(), "s");
    ReportLatency(lat, wall_lat, untraced.size(), wall_ms, &result);
    result.Set("peak_rss_mb", PeakRssMb(), "MiB");
    result.workload_metrics["net_latency_p50_ms"] = {net_p50, "ms"};
  } else {
    ZeroPerLayer(&result);
    std::vector<double> tlat, tref;
    for (const Sample& s : traced) {
      tlat.push_back(s.latency_ms);
      tref.push_back(RefMs(s.start_ms, s.latency_ms));
    }
    double traced_p50 = Median(tlat);
    std::map<std::string, double> avg = account.Reconcile(traced_p50, &result);
    result.Set("trace.overhead_ms", Median(tref) - untraced_p50, "ms");
    result.Set("net_latency_p50_ms", net_p50, "ms");
    double pool = static_cast<double>(kPoolSize);
    result.Set("sim.messages_per_query", messages / pool, "count");
    result.Set("sim.tuples_per_query", tuples / pool, "count");
    result.Set("sim.retransmits", static_cast<double>(retransmits), "count");
    result.Set("sim.relay_batches", static_cast<double>(relay_batches),
               "count");
    double net_sum = 0;
    for (double ms : net) net_sum += ms;
    result.Set("sim.resolve_ms", net.empty() ? 0 : net_sum / net.size(), "ms");
    result.Set("sim.answer_wall_ms", avg["sim.answer_wall_ms"], "ms");
    result.Set("cache.hit_rate",
               hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                                 : 0,
               "ratio");
    result.Set("data.load_ms", load_ms, "ms");
    result.Record("traced.latency_p50_ms", traced_p50);
    result.Record("untraced.latency_p50_ms", untraced_p50);
  }
  if (result.mismatches > 0) result.correct = false;
  return result;
}

}  // namespace perfbench
