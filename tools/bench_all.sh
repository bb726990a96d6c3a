#!/usr/bin/env bash
# Runs every bench/ program with CI-sized knobs: the paper's Figure 3
# and Figure 4 reproductions and the sweeps and micro-benchmarks around
# them. Each writes a machine-readable report (--json, shared schema:
# name/seed/host/params/metrics, plus an optional extra block such as an
# obs::MetricsRegistry snapshot); the reports are merged into one JSON
# array at BENCH_sim.json. The merge is plain shell — each report is a
# single JSON object, so concatenation with commas is valid JSON.
#
# The topology_latency bench (cost-aware routing vs cost-blind execution
# per link-map shape under the contention network model, with byte-
# identical answers asserted per run, docs/network_cost_model.md)
# reports into BENCH_topology.json.
#
# Serving, caching, churn and tracing cost are measured by the perfbench
# workloads (perfbench/README.md), not here.
#
# Usage: tools/bench_all.sh [out.json] [topology-out.json]
# Knobs: BUILD_DIR (default build), PDMS_BENCH_* forwarded to the benches.
set -euo pipefail

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_sim.json}"
TOPOLOGY_OUT="${2:-BENCH_topology.json}"
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
  minicon_scaling
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
