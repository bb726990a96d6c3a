// cold_stream: the paper's own usage mode. One caller streams distinct
// queries through Pdms::AnswerStreaming with no caches attached, so every
// request builds its rule-goal tree, enumerates its rewritings (step 3)
// and evaluates each rewriting as it is emitted.

#include <memory>

#include "bench.h"
#include "pdms/core/pdms.h"
#include "worlds.h"

namespace perfbench {

namespace {

// Second-stratum queries rather than the top stratum: a top-stratum query
// streams for 80 ms to 3 s, so a run holds a few dozen samples and its
// median follows the host's speed at a handful of moments (the median
// moved by 28% across five runs). See worlds.h.
constexpr const char* const* kPool = kSecondStratumPool;

std::unique_ptr<pdms::Pdms> MakeFacade(const pdms::PdmsNetwork& catalog,
                                       const pdms::Database& data) {
  pdms::ReformulationOptions options;
  options.threads = 1;
  auto facade = std::make_unique<pdms::Pdms>(options);
  *facade->mutable_network() = catalog;
  *facade->mutable_database() = data;
  return facade;
}

struct Sample {
  size_t query = 0;
  double latency_ms = 0;
  double first_ms = 0;
  double start_ms = 0;
};

}  // namespace

RunResult RunColdStream(const Args& args, SpanLog* spans) {
  RunResult result;
  RecordTraffic(
      "closed loop, 1 caller, Pdms::AnswerStreaming, no caches, seeded "
      "passes over 13 second-stratum queries",
      1, 0, &result);

  // Set-up: generate the world, copy it into the facade, and answer each
  // pool query once (normalization, allocator and code warm-up; there is
  // no cache for it to fill).
  double load_ms = 0;
  std::function<std::unique_ptr<pdms::Pdms>()> setup = [&] {
    double start = NowMs();
    pdms::PdmsNetwork catalog = Figure3Catalog();
    pdms::Database data = Facts(catalog);
    double load_start = NowMs();
    std::unique_ptr<pdms::Pdms> facade = MakeFacade(catalog, data);
    load_ms = NowMs() - load_start;
    double warm_start = NowMs();
    for (size_t q = 0; q < kPoolSize; ++q) {
      auto warm = facade->ParseQuery(SingleAtomQuery(kPool[q]));
      if (!warm.ok() ||
          !facade->AnswerStreaming(*warm, [](const pdms::Tuple&) {
            return true;
          }).ok()) {
        std::fprintf(stderr, "cold_stream warm-up failed\n");
        std::exit(1);
      }
    }
    if (args.trace) {
      spans->Add({"setup.load", start, warm_start, -1, {}});
      spans->Add({"setup.warm", warm_start, NowMs(), -1, {}});
    }
    return facade;
  };
  SetupTimes setups;
  std::unique_ptr<pdms::Pdms> facade = setups.TimeRepeated(setup, kSetups);
  result.Record("data.stored_relations",
                static_cast<double>(facade->database().RelationNames().size()));
  result.Record("data.total_facts",
                static_cast<double>(facade->database().TotalTuples()));

  // One closed-loop phase over the request stream. With `traced` the
  // program's trace and registry are attached and each request's spans are
  // folded into layers.
  pdms::obs::TraceContext trace("cold_stream");
  pdms::obs::MetricsRegistry metrics;
  LayerAccount account;
  std::vector<uint64_t> digests(kPoolSize, 0);
  std::vector<bool> have_digest(kPoolSize, false);
  std::vector<uint64_t> answered(kPoolSize, 0);
  // Per-query counts that must repeat on every visit: tree nodes,
  // rewritings, duplicates.
  std::vector<std::vector<uint64_t>> counts(kPoolSize);
  double enumerate_total_ms = 0;
  uint64_t rewritings_total = 0, duplicates_total = 0;
  uint64_t join_spans = 0, join_answers = 0;

  auto run_phase = [&](bool traced, double seconds, double* wall_ms) {
    facade->set_trace(traced ? &trace : nullptr);
    facade->set_metrics(traced ? &metrics : nullptr);
    std::vector<Sample> samples;
    double start = NowMs();
    double deadline = start + seconds * 1000.0;
    double paused_ms = 0;
    for (size_t r = 0; NowMs() < deadline; ++r) {
      double spent = Gauge().Tick();
      paused_ms += spent;
      deadline += spent;
      size_t q = PassIndex(args.seed, r);
      std::string text = SingleAtomQuery(kPool[q]);
      auto before = traced ? metrics.counters()
                           : std::map<std::string, uint64_t>{};
      double first_rewriting_sum = 0;
      if (traced) {
        auto h = metrics.FindHistogram("reform.first_rewriting_ms");
        if (h.has_value()) first_rewriting_sum = h->sum;
      }
      ++result.attempted;
      double t0 = NowMs();
      auto parsed = facade->ParseQuery(text);
      double parse_ms = NowMs() - t0;
      double first_ms = -1;
      pdms::Result<pdms::Relation> answers =
          parsed.ok()
              ? facade->AnswerStreaming(*parsed,
                                        [&](const pdms::Tuple&) {
                                          if (first_ms < 0) {
                                            first_ms = NowMs() - t0;
                                          }
                                          return true;
                                        })
              : pdms::Result<pdms::Relation>(parsed.status());
      double t1 = NowMs();
      double latency = t1 - t0;
      if (!answers.ok()) {
        result.Fail(std::string(kPool[q]) + ": " +
                    answers.status().ToString());
        continue;
      }
      uint64_t digest = AnswerDigest(*answers, pdms::Completeness::kComplete);
      if (!have_digest[q]) {
        digests[q] = digest;
        have_digest[q] = true;
      } else if (digests[q] != digest) {
        ++result.mismatches;
        result.Fail(std::string(kPool[q]) + ": answer changed between passes");
        continue;
      }
      ++answered[q];
      samples.push_back({q, latency, first_ms < 0 ? latency : first_ms, t0});
      if (!traced) continue;

      auto delta = CounterDelta(before, metrics.counters());
      std::vector<uint64_t> c = {
          delta["reform.goal_nodes"] + delta["reform.rule_nodes"],
          delta["reform.rewritings"], delta["reform.duplicate_disjuncts"]};
      if (counts[q].empty()) {
        counts[q] = c;
      } else if (counts[q] != c) {
        result.correct = false;
        result.Fail(std::string(kPool[q]) + ": reformulation counts changed");
      }
      LayerAccount::Request req;
      req.latency_ms = latency;
      req.layers = FoldLayers(trace.spans(), /*cache_hit=*/false);
      // Streaming evaluates each rewriting inside enumeration.
      req.layers["eval.stream_ms"] = req.layers["eval.eval_ms"];
      req.layers.erase("eval.eval_ms");
      req.layers["lang.parse_ms"] = parse_ms;
      double unattributed =
          latency - parse_ms - RootSpanMs(trace.spans());
      req.layers["bench.unattributed_ms"] = unattributed > 0 ? unattributed : 0;
      auto h = metrics.FindHistogram("reform.first_rewriting_ms");
      req.extras["core.first_rewriting_ms"] =
          h.has_value() ? h->sum - first_rewriting_sum : 0;
      enumerate_total_ms += req.layers["core.enumerate_self_ms"];
      rewritings_total += c[1];
      duplicates_total += c[2];
      for (const pdms::obs::Span& s : trace.spans()) {
        if (s.name != "join") continue;
        ++join_spans;
        const std::string* a = s.FindAttribute("answers");
        if (a != nullptr) join_answers += std::strtoull(a->c_str(), nullptr, 10);
      }
      spans->Add({"cold_stream.request", t0, t1,
                  static_cast<int64_t>(samples.size() - 1), req.layers});
      account.requests.push_back(std::move(req));
    }
    *wall_ms = NowMs() - start - paused_ms;
    facade->set_trace(nullptr);
    facade->set_metrics(nullptr);
    return samples;
  };

  // The traced invocation first repeats the untraced loop for half the
  // time (its baseline for the tracing overhead), then traces the same
  // request sequence for the other half.
  double wall_ms = 0;
  std::vector<Sample> samples =
      run_phase(false, args.trace ? args.seconds / 2 : args.seconds, &wall_ms);
  std::vector<Sample> untraced = WholePasses(samples, kPoolSize);
  std::vector<double> lat, wall_lat, first;
  for (const Sample& s : untraced) {
    lat.push_back(RefMs(s.start_ms, s.latency_ms));
    wall_lat.push_back(s.latency_ms);
    first.push_back(RefMs(s.start_ms, s.first_ms));
  }
  double untraced_p50 = Median(lat);

  result.Record("setup_s", setups.MedianSeconds());
  result.Record("wall.setup_s", setups.WallMedianSeconds());
  result.Record("setup.timed", static_cast<double>(setups.count()));
  if (!args.trace) {
    result.Set("setup_s", setups.MedianSeconds(), "s");
    ReportLatency(lat, wall_lat, samples.size(), wall_ms, &result);
    result.Set("peak_rss_mb", PeakRssMb(), "MiB");
    result.workload_metrics["first_answer_p50_ms"] = {Median(first), "ms"};
    result.Record("traffic.passes",
                  static_cast<double>(samples.size() / kPoolSize));
  } else {
    double traced_wall = 0;
    std::vector<Sample> traced = run_phase(true, args.seconds / 2, &traced_wall);
    std::vector<double> tlat, tref, tfirst;
    for (const Sample& s : WholePasses(traced, kPoolSize)) {
      tlat.push_back(s.latency_ms);
      tref.push_back(RefMs(s.start_ms, s.latency_ms));
      tfirst.push_back(s.first_ms);
    }
    ZeroPerLayer(&result);
    account.requests.resize(std::min(account.requests.size(), tlat.size()));
    double traced_p50 = Median(tlat);
    std::map<std::string, double> avg = account.Reconcile(traced_p50, &result);
    result.Set("trace.overhead_ms", Median(tref) - untraced_p50, "ms");
    result.Set("first_answer_p50_ms", Median(tfirst), "ms");
    result.Set("lang.parse_ms", avg["lang.parse_ms"], "ms");
    result.Set("core.build_ms", avg["core.build_ms"], "ms");
    result.Set("core.first_rewriting_ms", avg["core.first_rewriting_ms"], "ms");
    result.Set("core.enumerate_self_ms", avg["core.enumerate_self_ms"], "ms");
    result.Set("eval.stream_ms", avg["eval.stream_ms"], "ms");
    result.Set("core.us_per_rewriting",
               rewritings_total > 0
                   ? 1000.0 * enumerate_total_ms / rewritings_total
                   : 0,
               "us");
    result.Set("core.duplicate_frac",
               rewritings_total + duplicates_total > 0
                   ? static_cast<double>(duplicates_total) /
                         (rewritings_total + duplicates_total)
                   : 0,
               "ratio");
    result.Set("eval.answers_per_disjunct",
               join_spans > 0 ? static_cast<double>(join_answers) / join_spans
                              : 0,
               "ratio");
    uint64_t nodes = 0, rewritings = 0;
    bool all_seen = true;
    for (const auto& c : counts) {
      if (c.empty()) {
        all_seen = false;
        continue;
      }
      nodes += c[0];
      rewritings += c[1];
    }
    if (all_seen) {
      result.Set("core.tree_nodes", static_cast<double>(nodes), "count");
      result.Set("core.rewritings", static_cast<double>(rewritings), "count");
      result.exact["core.tree_nodes"] = static_cast<double>(nodes);
      result.exact["core.rewritings"] = static_cast<double>(rewritings);
    }
    result.Set("data.load_ms", load_ms, "ms");
    result.Record("traced.latency_p50_ms", traced_p50);
    result.Record("untraced.latency_p50_ms", untraced_p50);
  }
  result.exact["cache.hits"] = 0;  // no cache is attached

  // Every answered visit of a query returned the digest of its first, so
  // a wrong digest counts each visit.
  std::vector<std::string> queries = SingleAtomQueries(kPool);
  pdms::PdmsNetwork catalog = Figure3Catalog();
  std::vector<uint64_t> want =
      ReferenceDigests(catalog, Facts(catalog), queries, &result);
  for (size_t q = 0; q < kPoolSize; ++q) {
    if (have_digest[q] && want[q] != digests[q]) {
      result.mismatches += answered[q];
      result.Fail(queries[q] + ": answers differ from reference", answered[q]);
    }
  }
  if (result.mismatches > 0) result.correct = false;
  return result;
}

}  // namespace perfbench
