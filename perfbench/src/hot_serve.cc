// hot_serve: an in-process PplServer set up as ppl_serverd sets itself up
// (2 workers, single-flight coalescing, registry and rolling stats), fed
// by two closed-loop serve::Client connections with a Zipf-skewed stream
// over a query pool warmed during set-up. Nearly every request is a plan
// cache hit, so the wire, admission, the hit path and qp execution do the
// work and reformulation does none: the mirror image of cold_stream.

#include <cstdlib>
#include <fstream>
#include <memory>
#include <thread>

#include "bench.h"
#include "pdms/obs/rolling.h"
#include "pdms/serve/access_log.h"
#include "pdms/serve/client.h"
#include "pdms/serve/server.h"
#include "worlds.h"

namespace perfbench {

namespace {

// Top-stratum queries, ranked for the Zipf stream in a fixed order so
// every seed has the same hot set.
constexpr const char* const* kPool = kTopStratumPool;
constexpr double kZipfS = 1.1;
// Each connection sends blocks of this many requests with the exact Zipf
// mix, reshuffled per block.
constexpr size_t kBlock = 128;
constexpr size_t kConnections = 2;
constexpr size_t kWorkers = 2;
constexpr double kIoTimeoutMs = 30000;

// A running server with everything it borrows.
struct Stack {
  pdms::obs::MetricsRegistry metrics;
  pdms::obs::RollingStats rolling;
  pdms::obs::TraceContext server_trace{"hot_serve.server"};
  std::unique_ptr<pdms::serve::AccessLog> access_log;
  std::unique_ptr<pdms::serve::PplServer> server;
};

// One answered request as a client thread saw it.
struct Reply {
  size_t query = 0;
  double start_ms = 0;
  double latency_ms = 0;
  uint64_t digest = 0;
  LayerAccount::Request layers;
  // From the traced span tree: the plan's disjunct count, and how many
  // executed disjuncts produced rows.
  uint64_t disjuncts = 0;
  uint64_t executed = 0;
  uint64_t productive = 0;
};

struct ThreadOutcome {
  std::vector<Reply> replies;
  uint64_t attempted = 0;
  uint64_t sheds = 0;
  std::vector<std::string> failures;
  uint64_t reconnects = 0;
};

// Folds a client-side span tree (rpc_query with the server's spans
// grafted beneath it) into the request's layers.
void FoldServed(const pdms::obs::TraceContext& trace, double latency_ms,
                Reply* reply) {
  const auto& spans = trace.spans();
  bool hit = false;
  double queue_ms = 0;
  for (const pdms::obs::Span& s : spans) {
    const std::string* v = nullptr;
    if (s.name == "cache_lookup" && (v = s.FindAttribute("result")) &&
        *v == "hit") {
      hit = true;
    } else if (s.name == "serve" && (v = s.FindAttribute("queue_ms"))) {
      queue_ms = std::strtod(v->c_str(), nullptr);
    } else if (s.name == "qp.plan" && (v = s.FindAttribute("disjuncts"))) {
      reply->disjuncts = std::strtoull(v->c_str(), nullptr, 10);
    } else if (s.name == "eval_cq" && !s.FindAttribute("skipped")) {
      ++reply->executed;
      v = s.FindAttribute("answers");
      if (v != nullptr && std::strtoull(v->c_str(), nullptr, 10) > 0) {
        ++reply->productive;
      }
    }
  }
  reply->layers.latency_ms = latency_ms;
  reply->layers.layers = FoldLayers(spans, hit);
  auto& l = reply->layers.layers;
  // The engine opens the per-disjunct spans while it gates each disjunct,
  // before execution.
  l["qp.gate_ms"] = l["eval.eval_ms"];
  l.erase("eval.eval_ms");
  // The client's rpc span minus the server's own span is queueing plus the
  // wire (framing, loopback, decode).
  double rpc_self = l["serve.rpc_self_ms"];
  l.erase("serve.rpc_self_ms");
  l["serve.queue_ms"] = queue_ms;
  l["serve.wire_ms"] = rpc_self > queue_ms ? rpc_self - queue_ms : 0;
  double outside = latency_ms - RootSpanMs(spans);
  l["bench.unattributed_ms"] = outside > 0 ? outside : 0;
}

// One connection's closed loop until `deadline_ms`.
ThreadOutcome ClientLoop(uint16_t port, uint64_t stream_seed,
                         double deadline_ms, bool traced) {
  ThreadOutcome out;
  pdms::serve::Client client;
  auto connect = [&] {
    client.Close();
    pdms::Status s = client.Connect("127.0.0.1", port, kIoTimeoutMs);
    if (!s.ok() && out.failures.size() < 4) {
      out.failures.push_back("connect: " + s.ToString());
    }
    return s.ok();
  };
  connect();
  std::vector<size_t> block;
  pdms::obs::TraceContext trace("hot_serve.client");
  for (size_t i = 0; NowMs() < deadline_ms; ++i) {
    if (i % kBlock == 0) {
      block = ZipfBlock(kPoolSize, kZipfS, kBlock,
                        SubSeed(stream_seed, i / kBlock));
    }
    size_t q = block[i % kBlock];
    std::string text = SingleAtomQuery(kPool[q]);
    Gauge().Tick();
    ++out.attempted;
    if (!client.connected() && !connect()) continue;
    if (traced) trace.Clear();
    double t0 = NowMs();
    auto reply = client.Query(text, 0, traced ? &trace : nullptr);
    double latency = NowMs() - t0;
    if (!reply.ok()) {
      // A transport failure (the reply was refused, the socket died)
      // poisons the connection: count it and reconnect.
      if (out.failures.size() < 4) {
        out.failures.push_back(std::string(kPool[q]) + ": " +
                               reply.status().ToString());
      }
      ++out.reconnects;
      connect();
      continue;
    }
    if (reply->shed) {
      ++out.sheds;
      continue;
    }
    if (!reply->answer.status().ok()) {
      if (out.failures.size() < 4) {
        out.failures.push_back(std::string(kPool[q]) + ": " +
                               reply->answer.status().ToString());
      }
      continue;
    }
    Reply r;
    r.query = q;
    r.start_ms = t0;
    r.latency_ms = latency;
    r.digest = AnswerDigest(
        reply->answer.ToRelation(),
        static_cast<pdms::Completeness>(reply->answer.completeness));
    if (traced) FoldServed(trace, latency, &r);
    out.replies.push_back(std::move(r));
  }
  client.Close();
  return out;
}

// Runs both connections until `seconds` have passed.
std::vector<ThreadOutcome> RunConnections(uint16_t port, uint64_t seed,
                                          double seconds, bool traced,
                                          double* wall_ms) {
  std::vector<ThreadOutcome> outcomes(kConnections);
  double start = NowMs();
  double deadline = start + seconds * 1000.0;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      outcomes[c] = ClientLoop(port, SubSeed(seed, 0xc11e47 + c), deadline,
                               traced);
    });
  }
  for (std::thread& t : threads) t.join();
  *wall_ms = NowMs() - start;
  return outcomes;
}

}  // namespace

RunResult RunHotServe(const Args& args, SpanLog* spans) {
  RunResult result;
  RecordTraffic(
      "closed loop, 2 serve::Client connections, Zipf s=1.1 over 13 warmed "
      "top-stratum queries, loopback PplServer",
      kConnections, kWorkers, &result);
  const std::string log_path = args.out_dir + "/hot_serve-seed" +
                               std::to_string(args.seed) + "-access.log";

  // Set-up: generate the world, start the server (each worker copies the
  // world into its facade), then warm the pool: one pass on one connection
  // fills the plan cache, one concurrent pass on both builds each worker's
  // columnar tables and physical plans.
  double load_ms = 0;
  std::function<std::unique_ptr<Stack>()> setup = [&] {
    double start = NowMs();
    pdms::PdmsNetwork catalog = Figure3Catalog();
    pdms::Database data = Facts(catalog);
    auto stack = std::make_unique<Stack>();
    pdms::serve::ServerOptions options;
    options.executor.workers = kWorkers;
    options.executor.coalesce_identical = true;
    options.executor.rolling = &stack->rolling;
    if (args.trace) {
      std::remove(log_path.c_str());
      auto log = pdms::serve::AccessLog::Open({log_path});
      if (log.ok()) stack->access_log = std::move(*log);
      options.executor.access_log = stack->access_log.get();
    }
    stack->server = std::make_unique<pdms::serve::PplServer>(
        options, &stack->metrics,
        args.trace ? &stack->server_trace : nullptr);
    double load_start = NowMs();
    pdms::Status started = stack->server->Start(catalog, data);
    load_ms = NowMs() - load_start;
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.ToString().c_str());
      std::exit(1);
    }
    double warm_start = NowMs();
    // A reply the client refuses still leaves the plan cached on the
    // server; the failure is recorded and the connection reopened.
    const uint16_t port = stack->server->port();
    auto warm = [&](bool forward) {
      pdms::serve::Client client;
      size_t failures = 0;
      for (size_t i = 0; i < kPoolSize; ++i) {
        size_t q = forward ? i : kPoolSize - 1 - i;
        if (!client.connected() &&
            !client.Connect("127.0.0.1", port, kIoTimeoutMs).ok()) {
          std::fprintf(stderr, "hot_serve warm-up cannot connect\n");
          std::exit(1);
        }
        if (!client.Query(SingleAtomQuery(kPool[q])).ok()) {
          ++failures;
          client.Close();
        }
      }
      return failures;
    };
    size_t warm_failures = warm(true);
    size_t other_failures = 0;
    std::thread other([&] { other_failures = warm(false); });
    warm_failures += warm(true) + (other.join(), other_failures);
    result.Record("setup.warm_failures", static_cast<double>(warm_failures));
    if (args.trace) {
      spans->Add({"setup.load", start, warm_start, -1, {}});
      spans->Add({"setup.warm", warm_start, NowMs(), -1, {}});
    }
    return stack;
  };
  // A set-up takes 1.5 s, so three back to back already span several
  // seconds of the host's speed.
  SetupTimes setups;
  std::unique_ptr<Stack> stack = setups.TimeRepeated(setup, 3);
  const double setup_s = setups.MedianSeconds();
  result.Record("setup_s", setup_s);
  result.Record("wall.setup_s", setups.WallMedianSeconds());
  result.Record("setup.timed", static_cast<double>(setups.count()));
  uint16_t port = stack->server->port();
  pdms::cache::PlanCache* plans = stack->server->executor()->plan_cache();

  // Measured phase (the traced invocation's untraced baseline runs for half
  // the time, then the traced half follows).
  pdms::cache::PlanCacheStats cache_before = plans->stats();
  auto counters_before = stack->metrics.counters();
  double wall_ms = 0;
  std::vector<ThreadOutcome> untraced = RunConnections(
      port, args.seed, args.trace ? args.seconds / 2 : args.seconds, false,
      &wall_ms);
  pdms::cache::PlanCacheStats cache_after = plans->stats();
  auto serve_delta = CounterDelta(counters_before, stack->metrics.counters());
  std::vector<ThreadOutcome> traced;
  double traced_wall = 0;
  auto service_before = stack->metrics.FindHistogram("serve.service_ms");
  if (args.trace) {
    traced = RunConnections(port, args.seed, args.seconds / 2, true,
                            &traced_wall);
  }
  auto traced_delta = CounterDelta(counters_before, stack->metrics.counters());
  auto service = stack->metrics.FindHistogram("serve.service_ms");
  stack->server->Stop();
  double service_ms = 0;
  if (service.has_value() && service_before.has_value() &&
      service->count > service_before->count) {
    service_ms = (service->sum - service_before->sum) /
                 (service->count - service_before->count);
  }

  uint64_t hits = cache_after.hits - cache_before.hits;
  uint64_t misses = cache_after.misses - cache_before.misses;
  result.exact["cache.misses"] = static_cast<double>(misses);
  result.Record("traffic.hit_share",
                hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                                  : 0);

  // Answer checks against an uncached reference facade, outside every
  // timed phase.
  pdms::PdmsNetwork catalog = Figure3Catalog();
  std::vector<uint64_t> want = ReferenceDigests(
      catalog, Facts(catalog), SingleAtomQueries(kPool), &result);
  uint64_t sheds = 0, reconnects = 0;
  auto check = [&](const std::vector<ThreadOutcome>& outcomes) {
    for (const ThreadOutcome& o : outcomes) {
      result.attempted += o.attempted;
      sheds += o.sheds;
      reconnects += o.reconnects;
      uint64_t answered = o.replies.size() + o.sheds;
      if (o.sheds > 0) result.Fail("requests shed by admission", o.sheds);
      if (o.attempted > answered) {
        result.Fail(o.failures.empty() ? "transport failure" : o.failures[0],
                    o.attempted - answered);
      }
      for (const Reply& r : o.replies) {
        if (r.digest != want[r.query]) {
          ++result.mismatches;
          result.Fail(std::string(kPool[r.query]) +
                      ": answers differ from reference");
        }
      }
    }
  };
  check(untraced);
  check(traced);
  result.Record("traffic.sheds", static_cast<double>(sheds));
  result.Record("traffic.reconnects", static_cast<double>(reconnects));

  std::vector<double> lat, wall_lat;
  size_t completed = 0;
  for (const ThreadOutcome& o : untraced) {
    completed += o.replies.size();
    for (const Reply& r : o.replies) {
      lat.push_back(RefMs(r.start_ms, r.latency_ms));
      wall_lat.push_back(r.latency_ms);
    }
  }
  double untraced_p50 = Median(lat);
  if (!args.trace) {
    result.Set("setup_s", setup_s, "s");
    ReportLatency(lat, wall_lat, completed, wall_ms, &result);
    result.Set("peak_rss_mb", PeakRssMb(), "MiB");
  } else {
    ZeroPerLayer(&result);
    LayerAccount account;
    std::vector<double> tlat, tref;
    uint64_t executed = 0, productive = 0;
    std::vector<uint64_t> disjuncts(kPoolSize, 0);
    for (const ThreadOutcome& o : traced) {
      for (const Reply& r : o.replies) {
        tlat.push_back(r.latency_ms);
        tref.push_back(RefMs(r.start_ms, r.latency_ms));
        account.requests.push_back(r.layers);
        executed += r.executed;
        productive += r.productive;
        if (disjuncts[r.query] == 0) {
          disjuncts[r.query] = r.disjuncts;
        } else if (disjuncts[r.query] != r.disjuncts) {
          result.correct = false;
          result.Fail(std::string(kPool[r.query]) +
                      ": plan disjunct count changed", 0);
        }
        spans->Add({"hot_serve.request", r.start_ms,
                    r.start_ms + r.latency_ms, -1, r.layers.layers});
      }
    }
    double traced_p50 = Median(tlat);
    std::map<std::string, double> avg = account.Reconcile(traced_p50, &result);
    result.Set("trace.overhead_ms", Median(tref) - untraced_p50, "ms");
    for (const char* name : {"cache.lookup_ms", "cache.hit_gap_ms",
                             "qp.plan_ms", "qp.exec_ms", "qp.gate_ms",
                             "serve.wire_ms"}) {
      result.Set(name, avg[name], "ms");
    }
    double seen = 0, total = 0;
    for (uint64_t d : disjuncts) {
      if (d == 0) continue;
      seen += 1;
      total += static_cast<double>(d);
    }
    if (seen == kPoolSize) {
      result.Set("qp.disjuncts_per_query", total / seen, "count");
      result.exact["qp.disjuncts_per_query"] = total / seen;
    }
    result.Set("qp.productive_disjunct_frac",
               executed > 0 ? static_cast<double>(productive) / executed : 0,
               "ratio");
    double plans_built = traced_delta["qp.plans"];
    double plans_reused = traced_delta["qp.plan_reused"];
    result.Set("qp.plan_reuse_rate",
               plans_built + plans_reused > 0
                   ? plans_reused / (plans_built + plans_reused)
                   : 0,
               "ratio");
    result.Set("cache.hit_rate",
               hits + misses > 0 ? static_cast<double>(hits) / (hits + misses)
                                 : 0,
               "ratio");
    result.Set("serve.service_ms", service_ms, "ms");
    // Queueing as the access log records it, for the traced requests.
    std::ifstream log(log_path);
    std::string line;
    double queue_sum = 0;
    size_t queue_n = 0;
    while (std::getline(log, line)) {
      if (line.find("\"trace_id\": \"\"") != std::string::npos) continue;
      size_t at = line.find("\"queue_ms\": ");
      if (at == std::string::npos) continue;
      queue_sum += std::strtod(line.c_str() + at + 12, nullptr);
      ++queue_n;
    }
    result.Set("serve.queue_ms", queue_n > 0 ? queue_sum / queue_n : 0, "ms");
    result.Record("serve.access_log_lines", static_cast<double>(queue_n));
    // Coalescing, shedding and bytes from the untraced half: traced
    // requests never coalesce.
    double served = serve_delta["serve.completed"] + serve_delta["serve.coalesced"];
    if (served > 0) {
      result.Set("serve.bytes_out_per_query",
                 serve_delta["serve.bytes_out"] / served, "bytes");
      result.Set("serve.coalesced_frac", serve_delta["serve.coalesced"] / served,
                 "ratio");
    }
    double requests = serve_delta["serve.requests"];
    if (requests > 0) {
      result.Set("serve.shed_frac",
                 (serve_delta["serve.shed_queue_full"] +
                  serve_delta["serve.shed_deadline"] +
                  serve_delta["serve.shed_after_queue"]) /
                     requests,
                 "ratio");
    }
    result.Set("data.load_ms", load_ms, "ms");
    result.Record("traced.latency_p50_ms", traced_p50);
    result.Record("untraced.latency_p50_ms", untraced_p50);
  }
  if (result.mismatches > 0) result.correct = false;
  return result;
}

}  // namespace perfbench
