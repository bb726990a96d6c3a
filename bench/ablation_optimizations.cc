// Ablation of the Section 4.3 optimizations on the Figure-3 workload
// (plus a comparison-predicate variant):
//
//  - dead-end detection (predicate-reachability pruning + the structural
//    viability pass),
//  - constraint-label satisfiability pruning (matters only when the
//    workload carries comparison predicates),
//  - priority-ordered expansion (affects time to the first rewritings).
//
// For each configuration we report tree size, time to first rewriting,
// and total reformulation time with a capped enumeration.
//
// Knobs: PDMS_BENCH_RUNS (default 5), PDMS_BENCH_DIAMETER (default 6).

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "pdms/core/reformulator.h"
#include "pdms/gen/workload.h"

namespace pdms {
namespace {

struct Config {
  const char* name;
  bool dead_ends;
  bool unsat;
  bool order;
};

void RunSweep(const char* title, double comparison_fraction, size_t runs,
              size_t diameter, bench::JsonReport* report) {
  static constexpr Config kConfigs[] = {
      {"all optimizations", true, true, true},
      {"no dead-end pruning", false, true, true},
      {"no constraint pruning", true, false, true},
      {"no priority order", true, true, false},
      {"none", false, false, false},
  };
  std::printf("%s\n", title);
  std::printf("  %-24s %10s %12s %12s %12s %10s\n", "configuration",
              "nodes", "1st (ms)", "total (ms)", "rewritings", "pruned");
  for (const Config& cfg : kConfigs) {
    double nodes = 0;
    double first_ms = 0;
    double total_ms = 0;
    double rewritings = 0;
    double pruned = 0;
    for (size_t run = 0; run < runs; ++run) {
      gen::WorkloadConfig wconfig;
      wconfig.num_peers = 96;
      wconfig.num_strata = diameter;
      wconfig.definitional_fraction = 0.25;
      wconfig.providers_per_relation = 1;
      wconfig.comparison_fraction = comparison_fraction;
      wconfig.unprovided_fraction = 0.1;
      wconfig.seed = 4100 + run;
      auto workload = gen::GenerateWorkload(wconfig);
      if (!workload.ok()) continue;
      ReformulationOptions options;
      options.prune_dead_ends = cfg.dead_ends;
      options.prune_unsatisfiable = cfg.unsat;
      options.order_expansions = cfg.order;
      options.max_rewritings = 2000;
      options.time_budget_ms = 20000;
      Reformulator reformulator(workload->network, options);
      auto result = reformulator.Reformulate(workload->query);
      if (!result.ok()) continue;
      nodes += static_cast<double>(result->stats.total_nodes());
      if (!result->stats.time_to_rewriting_ms.empty()) {
        first_ms += result->stats.time_to_rewriting_ms.front();
      }
      total_ms += result->stats.build_ms + result->stats.enumerate_ms;
      rewritings += static_cast<double>(result->stats.rewritings);
      pruned += static_cast<double>(result->stats.pruned_unsat +
                                    result->stats.pruned_dead);
    }
    double n = static_cast<double>(runs);
    std::printf("  %-24s %10.0f %12.2f %12.1f %12.0f %10.0f\n", cfg.name,
                nodes / n, first_ms / n, total_ms / n, rewritings / n,
                pruned / n);
    std::fflush(stdout);
    bench::JsonObject* row = report->AddMetricRow();
    row->Set("configuration", cfg.name);
    row->Set("comparison_fraction", comparison_fraction);
    row->Set("avg_nodes", nodes / n);
    row->Set("first_ms", first_ms / n);
    row->Set("total_ms", total_ms / n);
    row->Set("rewritings", rewritings / n);
    row->Set("pruned", pruned / n);
  }
}

}  // namespace
}  // namespace pdms

int main(int argc, char** argv) {
  using pdms::bench::EnvSize;
  pdms::bench::JsonReport report("ablation_optimizations", &argc, argv);
  size_t runs = EnvSize("PDMS_BENCH_RUNS", 4);
  size_t diameter = EnvSize("PDMS_BENCH_DIAMETER", 6);
  report.params()->Set("runs", runs);
  report.params()->Set("diameter", diameter);
  std::printf("# Section 4.3 optimization ablation (96 peers, diameter "
              "%zu, 25%% dd, avg of %zu runs, enumeration capped at 2000 "
              "rewritings)\n",
              diameter, runs);
  pdms::RunSweep("== comparison-free workload ==", 0.0, runs, diameter,
                 &report);
  pdms::RunSweep("== with comparison predicates (60% of definitional "
                 "bodies) ==",
                 0.6, runs, diameter, &report);
  return report.Write() ? 0 : 1;
}
