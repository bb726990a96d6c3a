// churn_rw: a CachingPdms serving a Zipf read stream interleaved at a
// fixed ratio with ChurnDriver writes (mapping edits, peers leaving and
// rejoining, stored relations flipping, fact inserts). Reads use the same
// plan cache and qp code as hot_serve, but writes invalidate plans, force
// re-reformulation through the goal memo, and append facts that rebuild
// columnar statistics: a read-path gain that costs the write path shows
// up here.
//
// The churn mix only ever erodes the Figure-3 world (edits rewire mappings
// to unprovided relations, flips take half the storage down over time),
// so a read gets cheaper the longer a run lasts. To keep every run
// comparable the stream is cut into epochs: each epoch starts from a fresh
// copy of the world with a warmed cache (set up outside the measured
// time) and replays the fixed churn schedule, with its reads in one of
// kOrders seeded orders, taken in turn.

#include <memory>

#include "bench.h"
#include "pdms/cache/caching_pdms.h"
#include "pdms/core/pdms.h"
#include "pdms/sim/churn.h"
#include "worlds.h"

namespace perfbench {

namespace {

// Second-stratum queries (as in cold_stream), ranked for the Zipf stream
// in a fixed order: a miss re-reformulates in a few milliseconds, so an
// epoch is short and a run replays many of them.
constexpr const char* const* kPool = kSecondStratumPool;
constexpr double kZipfS = 1.1;
// One write after every kReadsPerWrite reads, the ratio of the repository's
// churn serving benchmark (bench/churn_serving.cc); an epoch is 512 reads
// and 128 writes.
constexpr size_t kReadsPerWrite = 4;
constexpr size_t kEpochRequests = 640;
static_assert(kEpochRequests % (kReadsPerWrite + 1) == 0);
// Where a read falls between the writes decides whether it hits, so one
// read order per run moved the median read by 17% from seed to seed
// (0.152 to 0.180 ms over five seeds; 3% over five runs of one seed).
// Each run cycles through this many orders drawn from its seed, so its
// median is one over all of them.
constexpr size_t kOrders = 8;

// The churn schedule is fixed like the world: which relations a few flips
// take down decides how much of the world survives an epoch, and across
// churn seeds the median read moved by a factor of 3.5 (1.6 to 5.6 ms over
// five seeds). `--seed` varies the read stream.
constexpr uint64_t kChurnSeed = 1;

pdms::sim::ChurnConfig Churn() {
  pdms::sim::ChurnConfig churn;
  churn.seed = kChurnSeed;
  // Mapping edits, peers leaving and rejoining, relation flips and fact
  // inserts, at the driver's default weights. Transport crashes mean
  // nothing to the in-process facade; joins, mapping additions and
  // removals are left out.
  churn.w_crash = 0;
  churn.w_recover = 0;
  churn.w_peer_join = 0;
  churn.w_mapping_add = 0;
  churn.w_mapping_remove = 0;
  churn.value_domain = kValueDomain;
  return churn;
}

std::string PoolQuery(size_t q) { return SingleAtomQuery(kPool[q]); }

bool IsWrite(size_t r) { return (r + 1) % (kReadsPerWrite + 1) == 0; }

// The read targets of an epoch in read order `order`, by request index
// (unused at writes).
std::vector<size_t> EpochReads(uint64_t seed, size_t order) {
  constexpr size_t kReads = kEpochRequests / (kReadsPerWrite + 1) *
                            kReadsPerWrite;
  std::vector<size_t> block =
      ZipfBlock(kPoolSize, kZipfS, kReads, SubSeed(seed, 0x57e4 + order));
  std::vector<size_t> reads(kEpochRequests, 0);
  size_t next = 0;
  for (size_t r = 0; r < kEpochRequests; ++r) {
    if (!IsWrite(r)) reads[r] = block[next++];
  }
  return reads;
}

// A world plus the churn driver evolving it in place.
struct Stack {
  std::unique_ptr<pdms::cache::CachingPdms> facade;
  std::unique_ptr<pdms::sim::ChurnDriver> churn;
};

struct ReadSample {
  size_t epoch = 0;
  size_t request = 0;  // index within the epoch
  size_t query = 0;
  double start_ms = 0;
  double latency_ms = 0;
  uint64_t digest = 0;
  bool hit = false;
};

struct Phase {
  std::vector<ReadSample> reads;
  size_t whole_epochs = 0;
  double measured_ms = 0;

  // The epochs a summary keeps: whole cycles through the read orders, or
  // the whole epochs when no cycle completed (all when none did).
  size_t kept_epochs() const {
    if (whole_epochs >= kOrders) return whole_epochs / kOrders * kOrders;
    return whole_epochs > 0 ? whole_epochs : SIZE_MAX;
  }
};

// Latencies of the reads of the kept epochs, in wall time or, with `ref`,
// in reference host time.
std::vector<double> WholeEpochLatencies(const Phase& phase, bool ref) {
  std::vector<double> lat;
  for (const ReadSample& s : phase.reads) {
    if (s.epoch < phase.kept_epochs()) {
      lat.push_back(ref ? RefMs(s.start_ms, s.latency_ms) : s.latency_ms);
    }
  }
  return lat;
}

}  // namespace

RunResult RunChurnRw(const Args& args, SpanLog* spans) {
  RunResult result;
  RecordTraffic(
      "closed loop, 1 caller, CachingPdms::AnswerWithReport on a Zipf s=1.1 "
      "stream over 13 second-stratum queries, one ChurnDriver write per 4 "
      "reads, epochs of 512 reads in 8 seeded orders taken in turn",
      1, 0, &result);
  result.Record("traffic.reads_per_write", static_cast<double>(kReadsPerWrite));
  result.Record("traffic.epoch_requests", static_cast<double>(kEpochRequests));
  result.Record("traffic.read_orders", static_cast<double>(kOrders));
  std::vector<std::vector<size_t>> orders;
  for (size_t k = 0; k < kOrders; ++k) {
    orders.push_back(EpochReads(args.seed, k));
  }

  // Set-up: generate the world, copy it into the caching facade, and warm
  // the plan cache with one pass over the pool.
  double load_ms = 0;
  std::function<std::unique_ptr<Stack>()> setup = [&] {
    double start = NowMs();
    pdms::PdmsNetwork catalog = Figure3Catalog();
    pdms::Database data = Facts(catalog);
    double load_start = NowMs();
    auto stack = std::make_unique<Stack>();
    pdms::ReformulationOptions options;
    options.threads = 1;
    stack->facade = std::make_unique<pdms::cache::CachingPdms>(
        pdms::cache::CacheConfig{}, options);
    *stack->facade->mutable_network() = catalog;
    *stack->facade->mutable_database() = data;
    load_ms = NowMs() - load_start;
    double warm_start = NowMs();
    for (size_t q = 0; q < kPoolSize; ++q) {
      if (!stack->facade->AnswerWithReport(PoolQuery(q)).ok()) {
        std::fprintf(stderr, "churn_rw warm-up failed\n");
        std::exit(1);
      }
    }
    stack->churn = std::make_unique<pdms::sim::ChurnDriver>(
        Churn(), stack->facade->mutable_network(),
        stack->facade->mutable_database());
    if (args.trace) {
      spans->Add({"setup.load", start, warm_start, -1, {}});
      spans->Add({"setup.warm", warm_start, NowMs(), -1, {}});
    }
    return stack;
  };
  // Every epoch sets up afresh, so the untraced run times a set-up before
  // each of its epochs, spread over the whole run.
  SetupTimes setups;
  std::unique_ptr<Stack> stack = setups.Time(setup);

  pdms::obs::TraceContext trace("churn_rw");
  pdms::obs::MetricsRegistry metrics;
  LayerAccount account;
  // Reformulation happens only on misses, which the median window (hits)
  // never sees; these feed core.* as the mean over traced misses.
  size_t traced_misses = 0;
  double miss_build_ms = 0, miss_enumerate_ms = 0;
  std::vector<double> step_ms;
  uint64_t writes = 0, fact_inserts = 0;

  // Whole and partial epochs until `seconds` of request time are spent.
  auto run_phase = [&](bool traced, double seconds) {
    Phase phase;
    const double budget_ms = seconds * 1000.0;
    for (size_t epoch = 0; phase.measured_ms < budget_ms; ++epoch) {
      if (stack == nullptr) stack = args.trace ? setup() : setups.Time(setup);
      pdms::cache::CachingPdms* facade = stack->facade.get();
      facade->set_trace(traced ? &trace : nullptr);
      facade->set_metrics(traced ? &metrics : nullptr);
      const double epoch_start = NowMs();
      double gauge_ms = 0;
      bool whole = true;
      for (size_t r = 0; r < kEpochRequests; ++r) {
        gauge_ms += Gauge().Tick();
        if (phase.measured_ms + (NowMs() - epoch_start - gauge_ms) >=
            budget_ms) {
          whole = false;
          break;
        }
        ++result.attempted;
        if (IsWrite(r)) {
          double t0 = NowMs();
          pdms::sim::ChurnEvent event = stack->churn->Step();
          double t1 = NowMs();
          if (traced) {
            step_ms.push_back(t1 - t0);
            ++writes;
            if (event.kind == pdms::sim::ChurnEvent::Kind::kFactInsert) {
              ++fact_inserts;
            }
            spans->Add({std::string("churn.step.") +
                            pdms::sim::ChurnEventKindName(event.kind),
                        t0, t1, static_cast<int64_t>(r), {}});
          }
          continue;
        }
        size_t q = orders[epoch % kOrders][r];
        double t0 = NowMs();
        auto parsed = facade->ParseQuery(PoolQuery(q));
        double parse_ms = NowMs() - t0;
        pdms::Result<pdms::AnswerResult> answer =
            parsed.ok() ? facade->AnswerWithReport(*parsed)
                        : pdms::Result<pdms::AnswerResult>(parsed.status());
        double t1 = NowMs();
        if (!answer.ok()) {
          result.Fail(PoolQuery(q) + ": " + answer.status().ToString());
          continue;
        }
        ReadSample sample;
        sample.epoch = epoch;
        sample.request = r;
        sample.query = q;
        sample.start_ms = t0;
        sample.latency_ms = t1 - t0;
        sample.digest =
            AnswerDigest(answer->answers, answer->degradation.completeness);
        sample.hit = answer->plan_cache_hit;
        phase.reads.push_back(sample);
        if (!traced) continue;
        LayerAccount::Request req;
        req.latency_ms = sample.latency_ms;
        req.layers = FoldLayers(trace.spans(), sample.hit);
        // The engine opens the per-disjunct spans while it gates each
        // disjunct, before execution.
        req.layers["qp.gate_ms"] = req.layers["eval.eval_ms"];
        req.layers.erase("eval.eval_ms");
        req.layers["lang.parse_ms"] = parse_ms;
        double outside =
            sample.latency_ms - parse_ms - RootSpanMs(trace.spans());
        req.layers["bench.unattributed_ms"] = outside > 0 ? outside : 0;
        spans->Add({"churn_rw.read", t0, t1, static_cast<int64_t>(r),
                    req.layers});
        if (!sample.hit) {
          ++traced_misses;
          miss_build_ms += req.layers["core.build_ms"];
          miss_enumerate_ms += req.layers["core.enumerate_self_ms"];
        }
        account.requests.push_back(std::move(req));
      }
      phase.measured_ms += NowMs() - epoch_start - gauge_ms;
      facade->set_trace(nullptr);
      facade->set_metrics(nullptr);
      stack.reset();
      if (whole) phase.whole_epochs = epoch + 1;
    }
    return phase;
  };

  Phase untraced = run_phase(false, args.trace ? args.seconds / 2 : args.seconds);
  Phase traced;
  if (args.trace) traced = run_phase(true, args.seconds / 2);

  // Every whole epoch in one read order replays one sequence, so each must
  // see the same hit/miss split: a function of the seed alone.
  std::vector<size_t> order_hits(kOrders, SIZE_MAX);
  bool all_orders = true;
  for (const Phase* phase : {&untraced, &traced}) {
    std::vector<size_t> hits(phase->whole_epochs, 0);
    for (const ReadSample& s : phase->reads) {
      if (s.epoch < phase->whole_epochs && s.hit) ++hits[s.epoch];
    }
    for (size_t e = 0; e < hits.size(); ++e) {
      size_t& known = order_hits[e % kOrders];
      if (known == SIZE_MAX) {
        known = hits[e];
      } else if (known != hits[e]) {
        result.correct = false;
        result.Fail("hit/miss split differs between replays of one epoch", 0);
      }
    }
  }
  size_t cycle_hits = 0;
  for (size_t h : order_hits) {
    if (h == SIZE_MAX) all_orders = false;
    cycle_hits += h == SIZE_MAX ? 0 : h;
  }
  if (all_orders) {
    result.exact["cache.cycle_hits"] = static_cast<double>(cycle_hits);
    result.Record("traffic.hit_share",
                  static_cast<double>(cycle_hits) /
                      (kOrders * (kEpochRequests -
                                  kEpochRequests / (kReadsPerWrite + 1))));
  }
  result.Record("traffic.whole_epochs",
                static_cast<double>(untraced.whole_epochs));

  // Reference digests, outside every timed phase: an uncached facade
  // driven through the epoch's churn sequence (the same for every read
  // order) answers every read of every order, once per (world version,
  // query).
  {
    pdms::Pdms reference;
    *reference.mutable_network() = Figure3Catalog();
    *reference.mutable_database() =
        Facts(reference.network());
    pdms::sim::ChurnDriver churn(Churn(), reference.mutable_network(),
                                 reference.mutable_database());
    std::map<size_t, uint64_t> known;  // query -> digest at this version
    std::vector<std::vector<uint64_t>> want(
        kOrders, std::vector<uint64_t>(kEpochRequests, 0));
    for (size_t r = 0; r < kEpochRequests; ++r) {
      if (IsWrite(r)) {
        churn.Step();
        known.clear();
        continue;
      }
      for (size_t k = 0; k < kOrders; ++k) {
        size_t q = orders[k][r];
        auto it = known.find(q);
        if (it == known.end()) {
          auto expected = reference.AnswerWithReport(PoolQuery(q));
          if (!expected.ok()) {
            result.correct = false;
            result.Fail("reference failed: " + expected.status().ToString(),
                        0);
          }
          uint64_t digest =
              expected.ok() ? AnswerDigest(expected->answers,
                                           expected->degradation.completeness)
                            : 0;
          it = known.emplace(q, digest).first;
        }
        want[k][r] = it->second;
      }
    }
    for (const Phase* phase : {&untraced, &traced}) {
      for (const ReadSample& s : phase->reads) {
        if (s.digest != want[s.epoch % kOrders][s.request]) {
          ++result.mismatches;
          result.Fail(PoolQuery(s.query) + " at epoch request " +
                      std::to_string(s.request) +
                      ": answers differ from reference");
        }
      }
    }
  }

  result.Record("setup_s", setups.MedianSeconds());
  result.Record("wall.setup_s", setups.WallMedianSeconds());
  result.Record("setup.timed", static_cast<double>(setups.count()));
  std::vector<double> lat = WholeEpochLatencies(untraced, true);
  double untraced_p50 = Median(lat);
  if (!args.trace) {
    result.Set("setup_s", setups.MedianSeconds(), "s");
    ReportLatency(lat, WholeEpochLatencies(untraced, false),
                  untraced.reads.size(), untraced.measured_ms, &result);
    result.Set("peak_rss_mb", PeakRssMb(), "MiB");
  } else {
    ZeroPerLayer(&result);
    std::vector<double> tlat = WholeEpochLatencies(traced, false);
    account.requests.resize(std::min(account.requests.size(), tlat.size()));
    double traced_p50 = Median(tlat);
    std::map<std::string, double> avg = account.Reconcile(traced_p50, &result);
    result.Set("trace.overhead_ms",
               Median(WholeEpochLatencies(traced, true)) - untraced_p50, "ms");
    for (const char* name : {"lang.parse_ms", "cache.lookup_ms",
                             "cache.hit_gap_ms", "qp.plan_ms", "qp.exec_ms",
                             "qp.gate_ms"}) {
      result.Set(name, avg[name], "ms");
    }
    auto c = metrics.counters();
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
    result.Set("core.build_ms", ratio(miss_build_ms, traced_misses), "ms");
    result.Set("core.enumerate_self_ms",
               ratio(miss_enumerate_ms, traced_misses), "ms");
    result.Record("traced.misses", static_cast<double>(traced_misses));
    result.Record("traced.qp_stats_rows_appended", c["qp.stats_rows_appended"]);
    double lookups = c["cache.hits"] + c["cache.misses"];
    result.Set("cache.hit_rate", ratio(c["cache.hits"], lookups), "ratio");
    result.Set("cache.invalidations_per_write",
               ratio(c["cache.invalidations"], writes), "1/write");
    result.Set("cache.stale_drops",
               ratio(c["cache.inserts_dropped_stale"], writes), "1/write");
    result.Set("cache.memo_hit_rate",
               ratio(c["cache.goal_memo_hits"], c["reform.goal_nodes"]),
               "ratio");
    result.Set("qp.plan_reuse_rate",
               ratio(c["qp.plan_reused"], c["qp.plans"] + c["qp.plan_reused"]),
               "ratio");
    result.Set("qp.stats_rebuilds_per_write",
               ratio(c["qp.stats_rebuilds"], fact_inserts), "1/write");
    result.Set("churn.step_ms", Median(step_ms), "ms");
    result.Set("data.load_ms", load_ms, "ms");
    result.Record("traced.latency_p50_ms", traced_p50);
    result.Record("untraced.latency_p50_ms", untraced_p50);
    result.Record("traced.writes", static_cast<double>(writes));
    result.Record("traced.fact_inserts", static_cast<double>(fact_inserts));
  }
  if (result.mismatches > 0) result.correct = false;
  return result;
}

}  // namespace perfbench
