// Reproduces Figure 4: the running time (milliseconds, measured from query
// submission) until the 1st rewriting, the 10th rewriting, and all
// rewritings have been produced, as a function of the PDMS diameter
// (96 peers, 10% definitional mappings).
//
// The paper's observations: the first rewritings arrive quickly (under ~3
// seconds at diameter 8 on 2003 hardware) even though enumerating all
// rewritings takes orders of magnitude longer — step 3 (solution
// construction) is the bottleneck, so producing first rewritings fast
// matters. We use the streaming enumerator; "all" is capped by
// PDMS_BENCH_MAX_REWRITINGS (default 20,000) and a per-point time budget
// (PDMS_BENCH_TIME_BUDGET_MS, default 5,000) — points that hit a cap are
// marked '>'.
//
// Knobs: PDMS_BENCH_RUNS (default 3), PDMS_BENCH_MAX_DIAMETER (default 8),
// PDMS_BENCH_PEERS (default 96).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "pdms/core/reformulator.h"
#include "pdms/gen/workload.h"
#include "pdms/obs/metrics.h"

namespace pdms {
namespace {

struct Point {
  double first_ms = 0;
  double tenth_ms = 0;
  double all_ms = 0;
  double rewritings = 0;
  size_t truncated = 0;
};

// `metrics` (nullable) attaches the obs registry; the timed sweep passes
// null so the published numbers stay null-sink.
Point MeasurePoint(size_t peers, size_t diameter, double dd, size_t runs,
                   size_t max_rewritings, double budget_ms,
                   obs::MetricsRegistry* metrics = nullptr) {
  Point point;
  size_t counted_tenth = 0;
  for (size_t run = 0; run < runs; ++run) {
    gen::WorkloadConfig config;
    config.num_peers = peers;
    config.num_strata = diameter;
    config.definitional_fraction = dd;
    config.providers_per_relation = 1;
    config.seed = 2000 * diameter + run;
    auto workload = gen::GenerateWorkload(config);
    if (!workload.ok()) continue;
    ReformulationOptions options;
    options.max_rewritings = max_rewritings;
    options.time_budget_ms = budget_ms;
    options.metrics = metrics;
    Reformulator reformulator(workload->network, options);
    auto result = reformulator.Reformulate(workload->query);
    if (!result.ok()) continue;
    const ReformulationStats& stats = result->stats;
    const std::vector<double>& stamps = stats.time_to_rewriting_ms;
    if (!stamps.empty()) point.first_ms += stamps.front();
    if (stamps.size() >= 10) {
      point.tenth_ms += stamps[9];
      ++counted_tenth;
    }
    point.all_ms += stats.build_ms + stats.enumerate_ms;
    point.rewritings += static_cast<double>(stats.rewritings);
    if (stats.enumeration_truncated) ++point.truncated;
  }
  point.first_ms /= static_cast<double>(runs);
  point.tenth_ms /= counted_tenth == 0 ? 1.0 : static_cast<double>(counted_tenth);
  point.all_ms /= static_cast<double>(runs);
  point.rewritings /= static_cast<double>(runs);
  return point;
}

}  // namespace
}  // namespace pdms

int main(int argc, char** argv) {
  using pdms::bench::EnvDouble;
  using pdms::bench::EnvSize;
  pdms::bench::JsonReport report("fig4_time_to_rewritings", &argc, argv);
  size_t runs = EnvSize("PDMS_BENCH_RUNS", 3);
  size_t max_diameter = EnvSize("PDMS_BENCH_MAX_DIAMETER", 8);
  size_t peers = EnvSize("PDMS_BENCH_PEERS", 96);
  size_t max_rewritings = EnvSize("PDMS_BENCH_MAX_REWRITINGS", 20000);
  double budget_ms = EnvDouble("PDMS_BENCH_TIME_BUDGET_MS", 5000);
  report.params()->Set("runs", runs);
  report.params()->Set("max_diameter", max_diameter);
  report.params()->Set("peers", peers);
  report.params()->Set("max_rewritings", max_rewritings);
  report.params()->Set("time_budget_ms", budget_ms);

  std::printf(
      "# Figure 4: time to 1st / 10th / all rewritings vs. diameter "
      "(%zu peers, 10%% dd, avg of %zu runs)\n",
      peers, runs);
  std::printf("# paper: first rewritings in a few seconds even at diameter "
              "8-10; 'all' dominates (step 3 is the bottleneck)\n");
  std::printf("# 'all*' marks points where the rewriting/time cap was hit "
              "in at least one run\n");
  std::printf("%-9s %14s %14s %14s %14s\n", "diameter", "1st (ms)",
              "10th (ms)", "all (ms)", "rewritings");
  for (size_t diameter = 1; diameter <= max_diameter; ++diameter) {
    pdms::Point p = pdms::MeasurePoint(peers, diameter, 0.10, runs,
                                       max_rewritings, budget_ms);
    std::printf("%-9zu %14.2f %14.2f %13.1f%s %14.0f\n", diameter,
                p.first_ms, p.tenth_ms, p.all_ms,
                p.truncated > 0 ? "*" : " ", p.rewritings);
    std::fflush(stdout);
    pdms::bench::JsonObject* row = report.AddMetricRow();
    row->Set("diameter", diameter);
    row->Set("first_ms", p.first_ms);
    row->Set("tenth_ms", p.tenth_ms);
    row->Set("all_ms", p.all_ms);
    row->Set("rewritings", p.rewritings);
    row->Set("truncated_runs", p.truncated);
  }
  // One instrumented run (outside the timed sweep) so the report carries a
  // reform.* registry snapshot alongside the figure data.
  if (report.enabled()) {
    pdms::obs::MetricsRegistry registry;
    (void)pdms::MeasurePoint(peers, std::min<size_t>(4, max_diameter), 0.10,
                             1, max_rewritings, budget_ms, &registry);
    report.SetExtra("registry", registry.ToJson());
  }
  return report.Write() ? 0 : 1;
}
