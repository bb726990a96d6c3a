#!/usr/bin/env bash
# Runs every bench binary with CI-sized knobs, collecting the per-binary
# machine-readable reports (--json, shared schema: name/seed/params/
# metrics, plus an optional "registry" block carrying an
# obs::MetricsRegistry snapshot) and merging them into one JSON array at
# BENCH_sim.json.
# The merge is plain shell — each report is a single JSON object on its
# own line(s), so concatenation with commas is valid JSON.
#
# The serving-throughput bench (plan-cache hit rate and speedup,
# docs/plan_cache.md) reports into its own BENCH_cache.json so cache
# regressions are tracked separately from the reformulation numbers. Its
# concurrent-serving sweep (1/2/4 server threads over shared caches,
# docs/parallel_execution.md) is part of the same report.
#
# The churn_serving bench (sustained hit rate and tail latency under
# live catalog churn, dependency-tracked vs wholesale invalidation,
# docs/churn_invalidation.md) reports into BENCH_churn.json.
#
# The serving_loadgen bench (open-loop overload sweep against the
# networked server: qps, answer p50/p99, shed rate, and the full
# latency histogram per load point, docs/serving.md) reports into
# BENCH_serving.json. During the same sweep the loadgen scrapes the
# server's rolling SLO window over the wire (the kStatsRequest frame,
# docs/serving_telemetry.md); that snapshot is wrapped into
# BENCH_slo.json.
#
# The eval_vectorized bench (legacy tuple-at-a-time vs the cost-based
# vectorized engine, cold and plan-cached, per Figure-3 diameter,
# docs/query_planning.md) reports into BENCH_eval.json.
#
# The topology_latency bench (cost-aware routing vs cost-blind execution
# per link-map shape under the contention network model, with byte-
# identical answers asserted per run, docs/network_cost_model.md)
# reports into BENCH_topology.json.
#
# Usage: tools/bench_all.sh [out.json] [cache-out.json] [churn-out.json]
#                           [serving-out.json] [slo-out.json]
#                           [eval-out.json] [topology-out.json]
# Knobs: BUILD_DIR (default build), PDMS_BENCH_* forwarded to the benches.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_sim.json}"
CACHE_OUT="${2:-BENCH_cache.json}"
CHURN_OUT="${3:-BENCH_churn.json}"
SERVING_OUT="${4:-BENCH_serving.json}"
SLO_OUT="${5:-BENCH_slo.json}"
EVAL_OUT="${6:-BENCH_eval.json}"
TOPOLOGY_OUT="${7:-BENCH_topology.json}"
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
JSON_DIR="${BUILD_DIR}/bench-json"

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "${BUILD_DIR}" -j "${JOBS}"
mkdir -p "${JSON_DIR}"

# Small knobs so the whole sweep stays in CI budget; callers can override
# any PDMS_BENCH_* variable in the environment.
export PDMS_BENCH_RUNS="${PDMS_BENCH_RUNS:-2}"
export PDMS_BENCH_MAX_DIAMETER="${PDMS_BENCH_MAX_DIAMETER:-5}"
export PDMS_BENCH_TIME_BUDGET_MS="${PDMS_BENCH_TIME_BUDGET_MS:-2000}"

BENCHES=(
  fig3_tree_size
  fig4_time_to_rewritings
  peers_sweep
  ablation_optimizations
  degraded_answering
  sim_partition_sweep
  obs_overhead
  minicon_scaling
  eval_join
)

for bench in "${BENCHES[@]}"; do
  echo "== ${bench} =="
  "${BUILD_DIR}/bench/${bench}" --json "${JSON_DIR}/${bench}.json"
done

# Merge: [report, report, ...]
{
  printf '['
  first=1
  for bench in "${BENCHES[@]}"; do
    file="${JSON_DIR}/${bench}.json"
    [ -s "${file}" ] || continue
    if [ "${first}" -eq 0 ]; then printf ','; fi
    first=0
    # Each report file is one JSON object (trailing newline stripped).
    tr -d '\n' < "${file}"
  done
  printf ']\n'
} > "${OUT}"

echo "merged $(grep -c '"name"' "${OUT}" || true) reports into ${OUT}"

echo "== serving_throughput =="
"${BUILD_DIR}/bench/serving_throughput" --json "${JSON_DIR}/serving_throughput.json"
{
  printf '['
  tr -d '\n' < "${JSON_DIR}/serving_throughput.json"
  printf ']\n'
} > "${CACHE_OUT}"
echo "merged cache report into ${CACHE_OUT}"

echo "== churn_serving =="
# CI-sized churn: a smaller topology and request stream than the bench
# defaults (1000 peers / 400 requests); override via the environment.
PDMS_BENCH_PEERS="${PDMS_BENCH_PEERS:-300}" \
PDMS_BENCH_REQUESTS="${PDMS_BENCH_REQUESTS:-200}" \
  "${BUILD_DIR}/bench/churn_serving" --json "${JSON_DIR}/churn_serving.json"
{
  printf '['
  tr -d '\n' < "${JSON_DIR}/churn_serving.json"
  printf ']\n'
} > "${CHURN_OUT}"
echo "merged churn report into ${CHURN_OUT}"

echo "== serving_loadgen =="
# CI-sized open-loop sweep: fewer requests per load point than the bench
# default (200); override via the environment.
PDMS_BENCH_REQUESTS="${PDMS_BENCH_SERVE_REQUESTS:-120}" \
PDMS_BENCH_SLO_JSON="${JSON_DIR}/slo_scrape.json" \
  "${BUILD_DIR}/bench/serving_loadgen" --json "${JSON_DIR}/serving_loadgen.json"
{
  printf '['
  tr -d '\n' < "${JSON_DIR}/serving_loadgen.json"
  printf ']\n'
} > "${SERVING_OUT}"
echo "merged serving report into ${SERVING_OUT}"

echo "== eval_vectorized =="
# The engine comparison exits non-zero if any vectorized answer set
# diverges from the legacy engine, so the sweep doubles as a soundness
# gate.
"${BUILD_DIR}/bench/eval_vectorized" --json "${JSON_DIR}/eval_vectorized.json"
{
  printf '['
  tr -d '\n' < "${JSON_DIR}/eval_vectorized.json"
  printf ']\n'
} > "${EVAL_OUT}"
echo "merged eval report into ${EVAL_OUT}"

echo "== topology_latency =="
# Cost-aware vs cost-blind answer latency per topology shape
# (docs/network_cost_model.md). The bench exits non-zero if any
# cost-aware answer set diverges from the cost-blind twin, so the sweep
# doubles as a routing-equivalence gate.
"${BUILD_DIR}/bench/topology_latency" \
  --json "${JSON_DIR}/topology_latency.json"
{
  printf '['
  tr -d '\n' < "${JSON_DIR}/topology_latency.json"
  printf ']\n'
} > "${TOPOLOGY_OUT}"
echo "merged topology report into ${TOPOLOGY_OUT}"

# The SLO scrape: the server's own rolling-window snapshot, taken over
# the wire during the loadgen sweep, wrapped in the shared array shape.
if [ -s "${JSON_DIR}/slo_scrape.json" ]; then
  {
    printf '[{"name": "slo_scrape", "stats": '
    tr -d '\n' < "${JSON_DIR}/slo_scrape.json"
    printf '}]\n'
  } > "${SLO_OUT}"
  echo "merged SLO scrape into ${SLO_OUT}"
else
  echo "no SLO scrape produced; skipping ${SLO_OUT}"
fi
