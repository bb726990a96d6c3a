// Compares end-to-end UCQ evaluation engines on the Figure-3 synthetic
// workload with data: the legacy tuple-at-a-time backtracking evaluator
// (src/pdms/eval/) against the columnar vectorized engine (src/pdms/qp/),
// cold (fresh engine per evaluation: columnar conversion + planning paid
// every time) and plan-cached warm (one engine, the physical plan reused
// through a PhysicalPlanSlot and scan-side join tables cached in the
// catalog — the serving steady state; docs/query_planning.md).
//
// Reformulation happens once per run outside all timed regions, so the
// numbers isolate evaluation. Every measured evaluation is checked for
// byte-identical answers against the legacy engine (after canonical
// sorting); any mismatch fails the bench.
//
// The workload sweeps diameter on an evaluation-heavy shape: single
// definitional providers, so the rewriting is one chain join whose length
// doubles per stratum instead of a fan of redundant disjuncts whose union
// dedup would dominate both engines identically. The value domain sits
// slightly above the per-relation cardinality (join fan-out ~0.8), so
// deep chains stay selective but still produce answers.
//
// Expected shape: warm vectorized evaluation is an order of magnitude
// faster than tuple-at-a-time at the deeper strata — the legacy engine
// re-walks the whole backtracking search (and rebuilds its per-call hash
// indexes) every evaluation, while the warm engine probes cached join
// tables and moves only live columns; the cold column shows how much of
// the gap is amortized conversion + planning + builds. tools/bench_all.sh
// wraps the report into BENCH_eval.json.
//
// Knobs: PDMS_BENCH_RUNS (default 3), PDMS_BENCH_ITERS (default 5),
// PDMS_BENCH_PEERS (default 48), PDMS_BENCH_MAX_DIAMETER (default 4),
// PDMS_BENCH_FACTS (default 8192), PDMS_BENCH_DOMAIN (default
// facts + facts/4), PDMS_BENCH_PROVIDERS (default 1).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "pdms/core/pdms.h"
#include "pdms/eval/evaluator.h"
#include "pdms/gen/workload.h"
#include "pdms/obs/metrics.h"
#include "pdms/qp/engine.h"
#include "pdms/qp/physical_plan.h"
#include "pdms/util/timer.h"

namespace pdms {
namespace {

struct Point {
  double legacy_ms = 0;  // per-evaluation averages over runs (min-of-iters)
  double cold_ms = 0;
  double warm_ms = 0;
  double avg_disjuncts = 0;
  double avg_answers = 0;
  size_t mismatches = 0;
  size_t measured = 0;

  double SpeedupCold() const { return cold_ms > 0 ? legacy_ms / cold_ms : 0; }
  double SpeedupWarm() const { return warm_ms > 0 ? legacy_ms / warm_ms : 0; }
};

std::string SortedAnswerKey(const Relation& answers) {
  Relation copy = answers;
  copy.SortCanonical();
  return copy.ToString();
}

Point MeasurePoint(size_t peers, size_t strata, size_t facts, size_t domain,
                   size_t providers, size_t runs, size_t iters) {
  Point point;
  for (size_t run = 0; run < runs; ++run) {
    gen::WorkloadConfig config;
    config.num_peers = peers;
    config.num_strata = strata;
    // Evaluation-heavy shape: single definitional providers mean the
    // rewriting count stays small while each rewriting is a chain join
    // whose length doubles per stratum — diameter buys join depth, not
    // redundant disjuncts whose union dedup would dominate both engines
    // equally.
    config.providers_per_relation = providers;
    config.definitional_fraction = 1.0;
    config.definitional_union_width = 1;
    config.facts_per_stored = facts;
    config.value_domain = static_cast<int64_t>(domain);
    config.seed = 4200 + 31 * run;
    auto workload = gen::GenerateWorkload(config);
    if (!workload.ok()) {
      std::fprintf(stderr, "generator: %s\n",
                   workload.status().ToString().c_str());
      continue;
    }

    // Reformulate once, outside every timed region: the bench isolates
    // evaluation of the resulting UCQ over the stored data.
    Pdms pdms;
    *pdms.mutable_network() = workload->network;
    *pdms.mutable_database() = workload->data;
    auto reform = pdms.Reformulate(workload->query);
    if (!reform.ok() || reform->rewriting.size() == 0) continue;
    const UnionQuery& uq = reform->rewriting;
    const Database& db = pdms.database();

    // Legacy tuple-at-a-time. One untimed evaluation establishes the
    // reference answers; the timed loop keeps the minimum, the usual
    // low-noise estimator for a deterministic computation.
    auto legacy = EvaluateUnionDegraded(uq, db, StoredGate());
    if (!legacy.ok()) continue;
    const std::string reference = SortedAnswerKey(legacy->answers);
    double legacy_ms = 0;
    for (size_t it = 0; it < iters; ++it) {
      WallTimer timer;
      auto r = EvaluateUnionDegraded(uq, db, StoredGate());
      double ms = timer.ElapsedMillis();
      if (!r.ok() || SortedAnswerKey(r->answers) != reference) {
        ++point.mismatches;
        continue;
      }
      legacy_ms = it == 0 ? ms : std::min(legacy_ms, ms);
    }

    // Vectorized cold: a fresh engine every time, so each evaluation pays
    // columnar conversion, statistics, planning, and join-table builds.
    double cold_ms = 0;
    for (size_t it = 0; it < iters; ++it) {
      qp::Engine engine;
      WallTimer timer;
      auto r = engine.EvaluateUnionDegraded(uq, db, StoredGate());
      double ms = timer.ElapsedMillis();
      if (!r.ok() || r->answers.ToString() != reference) {
        ++point.mismatches;
        continue;
      }
      cold_ms = it == 0 ? ms : std::min(cold_ms, ms);
    }

    // Vectorized warm: one engine and one PhysicalPlanSlot across
    // evaluations — the plan revalidates by statistics fingerprint and the
    // scan-side join tables stay cached, as in a serving facade behind the
    // plan cache. One untimed evaluation warms both.
    qp::Engine engine;
    qp::PhysicalPlanSlot slot;
    (void)engine.EvaluateUnionDegraded(uq, db, StoredGate(), nullptr, nullptr,
                                       &slot);
    double warm_ms = 0;
    for (size_t it = 0; it < iters; ++it) {
      WallTimer timer;
      auto r = engine.EvaluateUnionDegraded(uq, db, StoredGate(), nullptr,
                                            nullptr, &slot);
      double ms = timer.ElapsedMillis();
      if (!r.ok() || r->answers.ToString() != reference) {
        ++point.mismatches;
        continue;
      }
      warm_ms = it == 0 ? ms : std::min(warm_ms, ms);
    }

    ++point.measured;
    point.legacy_ms += legacy_ms;
    point.cold_ms += cold_ms;
    point.warm_ms += warm_ms;
    point.avg_disjuncts += static_cast<double>(uq.size());
    point.avg_answers += static_cast<double>(legacy->answers.size());
  }
  if (point.measured > 0) {
    double n = static_cast<double>(point.measured);
    point.legacy_ms /= n;
    point.cold_ms /= n;
    point.warm_ms /= n;
    point.avg_disjuncts /= n;
    point.avg_answers /= n;
  }
  return point;
}

}  // namespace
}  // namespace pdms

int main(int argc, char** argv) {
  using pdms::bench::EnvSize;
  pdms::bench::JsonReport report("eval_vectorized", &argc, argv);
  size_t runs = EnvSize("PDMS_BENCH_RUNS", 3);
  size_t iters = EnvSize("PDMS_BENCH_ITERS", 5);
  size_t peers = EnvSize("PDMS_BENCH_PEERS", 48);
  size_t max_diameter = EnvSize("PDMS_BENCH_MAX_DIAMETER", 4);
  size_t facts = EnvSize("PDMS_BENCH_FACTS", 8192);
  size_t domain = EnvSize("PDMS_BENCH_DOMAIN", facts + facts / 4);
  size_t providers = EnvSize("PDMS_BENCH_PROVIDERS", 1);
  report.params()->Set("runs", runs);
  report.params()->Set("iters", iters);
  report.params()->Set("peers", peers);
  report.params()->Set("max_diameter", max_diameter);
  report.params()->Set("facts_per_stored", facts);
  report.params()->Set("value_domain", domain);
  report.params()->Set("providers_per_relation", providers);

  std::printf(
      "# Evaluation engines: legacy tuple-at-a-time vs vectorized "
      "(%zu peers, %zu facts/stored, min of %zu iters, avg of %zu runs)\n",
      peers, facts, iters, runs);
  std::printf("%-9s %10s %10s %10s %9s %9s %10s %9s %6s\n", "diameter",
              "legacy_ms", "cold_ms", "warm_ms", "cold_x", "warm_x",
              "disjuncts", "answers", "match");
  size_t mismatches = 0;
  for (size_t strata = 2; strata <= max_diameter; ++strata) {
    pdms::Point p =
        pdms::MeasurePoint(peers, strata, facts, domain, providers, runs, iters);
    std::printf("%-9zu %10.3f %10.3f %10.3f %8.1fx %8.1fx %10.1f %9.1f %6s\n",
                strata, p.legacy_ms, p.cold_ms, p.warm_ms, p.SpeedupCold(),
                p.SpeedupWarm(), p.avg_disjuncts, p.avg_answers,
                p.mismatches == 0 ? "yes" : "NO");
    mismatches += p.mismatches;
    std::fflush(stdout);
    pdms::bench::JsonObject* row = report.AddMetricRow();
    row->Set("diameter", strata);
    row->Set("legacy_ms", p.legacy_ms);
    row->Set("vectorized_cold_ms", p.cold_ms);
    row->Set("vectorized_warm_ms", p.warm_ms);
    row->Set("speedup_cold", p.SpeedupCold());
    row->Set("speedup_warm", p.SpeedupWarm());
    row->Set("avg_disjuncts", p.avg_disjuncts);
    row->Set("avg_answers", p.avg_answers);
    row->Set("mismatches", p.mismatches);
    row->Set("runs_measured", p.measured);
  }
  if (mismatches > 0) {
    std::printf("# ERROR: %zu evaluation(s) diverged from the legacy "
                "answers\n",
                mismatches);
    return 1;
  }
  std::printf("# all vectorized answer sets matched the legacy engine\n");
  return report.Write() ? 0 : 1;
}
