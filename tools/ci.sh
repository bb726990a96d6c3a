#!/usr/bin/env bash
# The full CI gate, in dependency order:
#
#   1. default build + complete ctest suite (tier-1; must stay green),
#      after a check that the goal-memo stub (`struct GoalMemo {};` and
#      the no-op `SimPdms::set_goal_memo`, kept only for the benchmark's
#      sim_wan workload) has no caller in src/, tests/, bench/ or
#      examples/
#   2. AddressSanitizer + UBSan build + full suite (tools/ci_sanitize.sh)
#   3. deterministic-simulation smoke: 32 seeded schedules through the
#      message-passing runtime (partitions, loss, duplication, crashes).
#      The nightly-sized run is tools/dst.sh, which defaults to 256 seeds.
#   4. trace-export smoke: one instrumented Figure-3 reformulation dumped
#      as Chrome-trace JSON; the file must parse and contain reformulation
#      spans (docs/observability.md). Beside it, a one-run Figure-4 smoke
#      (diameters 1-5) drives the step-3 enumerator end to end.
#   5. cache-coherence smoke: warm the plan cache, mutate the network
#      (availability flip + mapping edit), re-query; the invalidation
#      counter must advance and answers must match a never-cached
#      instance (docs/plan_cache.md).
#   6. ThreadSanitizer gate over request-level concurrency: the serving
#      executor's FIFO worker queue (exec_test), its admission and
#      deadline shedding (serve_admission_test), the concurrent-serving
#      suite (several serving threads, each with its own facade, over
#      one shared plan cache, every answer equal to the baseline, beside
#      its serial determinism and 95,136-node deep-tree cases;
#      docs/parallel_execution.md) and the shared-prefix suite,
#      including the buffer-reuse cases (siblings of different slot
#      widths and row counts, a deep path before a shallow sibling, a
#      step going empty after a non-empty sibling, one warm engine
#      alternating open and vetoing gates; docs/query_planning.md).
#   7. churn gate: a 32-seed churn-DST smoke (cached and uncached twins
#      byte-compared under live catalog churn) plus the dependency-
#      tracked invalidation and peer-health suites, all under TSan,
#      including the 4-thread shared-plan-cache churn test
#      (docs/churn_invalidation.md). The nightly-sized run is the full
#      200-seed default of tests/churn_dst_test.
#   8. serving gate: build ppl_serverd and smoke it over loopback TCP
#      (a real query through the wire protocol), run the frame-decoder
#      fuzz corpus under asan+ubsan, and the concurrent multi-client
#      server suite under TSan (docs/serving.md).
#   9. telemetry gate: a lingering ppl_serverd answering a real query,
#      its stats frame scraped through ppl_top --once --raw (the JSON
#      must parse and carry the rolling SLO keys), the NDJSON access log
#      checked line by line against the schema, and the telemetry suite
#      (cross-process trace grafting, rolling window, stats frame,
#      access log) under TSan (docs/serving_telemetry.md).
#  10. query-planner gate: the qp storage/planner suite, the seeded
#      engine-vs-legacy-oracle equivalence property suite (the vectorized
#      engine on every answering path against the tuple-at-a-time
#      evaluator kept as its oracle, long chain joins over 1,024 facts
#      per relation included), and the client-pool suite re-run
#      under asan+ubsan and under TSan (the equivalence suite's
#      gate-contract cases pin one gate call per distinct relation in
#      first-use order and an AccessController whose retries run out a
#      deadline mid-union against the oracle), the streaming-vs-oracle
#      equivalence suite (per-rewriting engine evaluation on both
#      plan-cache branches, early stop, gating order, a fact inserted
#      between two streams joining in the second) and the pipeline
#      parity suite (Pdms, streaming and SimPdms agree on answers,
#      reports and cache counters, cold, warm and after an availability
#      flip) and the shared-prefix suite (trie execution against
#      per-disjunct execution and the legacy oracle, buffer-reuse cases
#      included) under asan+ubsan (docs/query_planning.md).
#  11. network-cost gate: the topology/link-map/network-model suite and a
#      reduced-seed cost-aware-vs-cost-blind equivalence sweep under
#      asan+ubsan and under TSan, plus a topology_latency bench smoke
#      whose byte-identity check must pass
#      (docs/network_cost_model.md). The full 200-seed sweep is the
#      binary's default outside CI.
#
# Usage: tools/ci.sh
# Knobs: BUILD_DIR (default build), ASAN_BUILD_DIR (default build-asan),
#        TSAN_BUILD_DIR (default build-tsan),
#        PDMS_DST_SEEDS (default 32) for the simulation smoke.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-build-asan}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

echo "== [1/11] default build + tests =="
# The plan cache is the only cross-query cache. The goal-memo names stay as
# a two-line stub only because perfbench/src/sim_wan.cc still uses them;
# any other occurrence is a new caller of dead code.
memo_uses="$(grep -rnE 'GoalMemo|set_goal_memo' src tests bench examples |
  grep -vE '^src/pdms/cache/goal_memo\.h:[0-9]+:struct GoalMemo \{\};$' |
  grep -vE '^src/pdms/sim/sim_pdms\.h:[0-9]+:  void set_goal_memo\(const cache::GoalMemo\*\) \{\}$' ||
  true)"
if [ -n "${memo_uses}" ]; then
  echo "goal-memo stub used outside perfbench/:" >&2
  echo "${memo_uses}" >&2
  exit 1
fi
cmake -B "${BUILD_DIR}" -S .
cmake --build "${BUILD_DIR}" -j "${JOBS}"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

echo "== [2/11] asan+ubsan build + tests =="
tools/ci_sanitize.sh "${ASAN_BUILD_DIR}"

echo "== [3/11] simulation smoke (${PDMS_DST_SEEDS:-32} seeds) =="
PDMS_DST_SEEDS="${PDMS_DST_SEEDS:-32}" "${BUILD_DIR}/tests/sim_dst_test"

echo "== [4/11] trace-export smoke =="
TRACE_FILE="${BUILD_DIR}/ci_trace.json"
PDMS_BENCH_RUNS=1 PDMS_BENCH_MAX_DIAMETER=1 \
  "${BUILD_DIR}/bench/fig3_tree_size" --trace "${TRACE_FILE}" > /dev/null
PDMS_BENCH_RUNS=1 PDMS_BENCH_MAX_DIAMETER=5 \
  "${BUILD_DIR}/bench/fig4_time_to_rewritings" > /dev/null
if command -v python3 > /dev/null 2>&1; then
  python3 - "${TRACE_FILE}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
reform = [e for e in events if e["name"] in ("reformulate", "expand")]
assert reform, "no reformulation spans in trace export"
ids = {e["args"]["trace_id"] for e in events}
assert len(ids) == 1, f"expected one trace id, got {ids}"
print(f"trace export ok: {len(events)} spans, "
      f"{len(reform)} reformulation spans")
EOF
else
  grep -q '"traceEvents"' "${TRACE_FILE}"
  grep -q '"name": "reformulate"' "${TRACE_FILE}"
  echo "trace export ok (python3 unavailable; grep check only)"
fi

echo "== [5/11] cache-coherence smoke =="
# Query -> mutate network -> re-query: the invalidation counter must
# advance and the cached answers must match a fresh, never-cached
# instance (the gtest case asserts both).
"${BUILD_DIR}/tests/cache_coherence_test" \
  --gtest_filter='CacheCoherence.Smoke'

echo "== [6/11] tsan: serving executor + concurrent serving + shared prefix =="
cmake --preset tsan > /dev/null
cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}" \
  --target exec_test serve_admission_test parallel_equivalence_test \
  shared_prefix_test
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  "${TSAN_BUILD_DIR}/tests/exec_test"
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  "${TSAN_BUILD_DIR}/tests/serve_admission_test"
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  "${TSAN_BUILD_DIR}/tests/parallel_equivalence_test"
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  "${TSAN_BUILD_DIR}/tests/shared_prefix_test"

echo "== [7/11] tsan: churn DST smoke + invalidation/health suites =="
cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}" \
  --target churn_dst_test cache_invalidation_test peer_health_test
# The 32-seed twin comparison and the 4-thread shared-plan-cache churn test;
# the full 200-seed sweep is the binary's default outside CI.
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  "${TSAN_BUILD_DIR}/tests/churn_dst_test" --gtest_filter=\
'ChurnDstSmoke.*:ChurnDst.SharedCachesSurviveFourThreadsAcrossChurnRounds'
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  "${TSAN_BUILD_DIR}/tests/cache_invalidation_test"
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  "${TSAN_BUILD_DIR}/tests/peer_health_test"

echo "== [8/11] serving gate: loopback smoke + asan fuzz + tsan server =="
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target ppl_serverd
# Loopback smoke: the daemon on an ephemeral-ish port must answer a real
# wire-protocol query. The overload test's loopback case drives the same
# server through the Client, so reuse it as the scripted check.
"${BUILD_DIR}/tests/serve_overload_test" \
  --gtest_filter='Serving.LoopbackAnswerIsByteIdenticalToInProcess'
# ppl_serverd itself: start, answer "metrics"/"quit" on stdin, exit 0.
printf 'metrics\nquit\n' | "${BUILD_DIR}/examples/ppl_serverd" --port 0 \
  > /dev/null
# Frame fuzz under asan+ubsan: mutated/garbage frames must never crash
# or over-allocate in the decoder (tools/ci_sanitize.sh already ran the
# full suite; re-run the fuzz cases explicitly as the named gate).
"${ASAN_BUILD_DIR}/tests/wire_test" --gtest_filter='WireFuzz.*'
# Concurrent server under TSan: multi-client loopback traffic over the
# shared caches plus the overload burst.
cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}" --target serve_overload_test
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  "${TSAN_BUILD_DIR}/tests/serve_overload_test" --gtest_filter=\
'Serving.ConcurrentClientsShareTheServerSafely:Serving.OverloadBurstShedsCleanlyAndAnswersStayCorrect'

echo "== [9/11] telemetry gate: stats scrape + access log + tsan =="
cmake --build "${BUILD_DIR}" -j "${JOBS}" \
  --target ppl_serverd ppl_top ppl_shell
TELEM_DIR="${BUILD_DIR}/ci-telemetry"
rm -rf "${TELEM_DIR}"
mkdir -p "${TELEM_DIR}"
# A lingering daemon on an ephemeral port (it prints the port it got).
"${BUILD_DIR}/examples/ppl_serverd" --port 0 --linger \
  --access-log "${TELEM_DIR}/access.log" \
  > "${TELEM_DIR}/serverd.out" 2>&1 &
SERVERD_PID=$!
trap 'kill "${SERVERD_PID}" 2>/dev/null || true' EXIT
PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "${TELEM_DIR}/serverd.out" | head -1)"
  [ -n "${PORT}" ] && break
  sleep 0.1
done
[ -n "${PORT}" ] || { echo "ppl_serverd never reported its port"; exit 1; }
# One real query over the wire so the rolling window and the access log
# have a request to show.
printf 'connect 127.0.0.1:%s\n? q(n, h) :- Hospital:Doctor(n, h).\nquit\n' \
  "${PORT}" | "${BUILD_DIR}/examples/ppl_shell" > /dev/null
# The ops console's one-shot raw mode doubles as the scripted scraper.
"${BUILD_DIR}/examples/ppl_top" --once --raw "127.0.0.1:${PORT}" \
  > "${TELEM_DIR}/stats.json"
if command -v python3 > /dev/null 2>&1; then
  python3 - "${TELEM_DIR}/stats.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    stats = json.load(f)
rolling = stats["rolling"]
for key in ("qps", "p50_ms", "p95_ms", "p99_ms", "shed_rate",
            "cache_hit_rate", "answers", "queue_depth"):
    assert key in rolling, f"rolling.{key} missing"
assert rolling["answers"] >= 1, "no answers in the rolling window"
for section in ("admission", "server", "metrics"):
    assert section in stats, f"{section} section missing"
print(f"stats frame ok: {rolling['answers']} answers, "
      f"p50 {rolling['p50_ms']}ms")
EOF
  python3 - "${TELEM_DIR}/access.log" <<'EOF'
import json, sys
required = {"ts_ms", "conn", "req", "query", "deadline_ms", "queue_ms",
            "exec_ms", "total_ms", "shed", "cache_hit", "verdict",
            "trace_id"}
lines = 0
with open(sys.argv[1]) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        entry = json.loads(line)
        missing = required - set(entry)
        assert not missing, f"missing fields {missing} in {line}"
        lines += 1
assert lines >= 1, "access log is empty"
print(f"access log ok: {lines} schema-complete lines")
EOF
else
  grep -q '"rolling"' "${TELEM_DIR}/stats.json"
  grep -q '"p50_ms"' "${TELEM_DIR}/stats.json"
  grep -q '"query"' "${TELEM_DIR}/access.log"
  echo "telemetry scrape ok (python3 unavailable; grep check only)"
fi
# Graceful shutdown: drain, final stats snapshot, access-log tail.
kill -TERM "${SERVERD_PID}"
wait "${SERVERD_PID}"
grep -q 'final stats:' "${TELEM_DIR}/serverd.out"
trap - EXIT
# The telemetry suite under TSan: cross-process trace grafting over two
# live servers, the rolling window, the stats frame, the access log.
cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}" --target serve_telemetry_test
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  "${TSAN_BUILD_DIR}/tests/serve_telemetry_test"

echo "== [10/11] qp gate: asan + tsan suites =="
# The vectorized-engine suites under asan+ubsan (step 2 built them with
# the full suite; re-run explicitly as the named gate).
"${ASAN_BUILD_DIR}/tests/qp_test"
"${ASAN_BUILD_DIR}/tests/qp_equivalence_test"
"${ASAN_BUILD_DIR}/tests/streaming_equivalence_test"
"${ASAN_BUILD_DIR}/tests/pipeline_parity_test"
"${ASAN_BUILD_DIR}/tests/shared_prefix_test"
"${ASAN_BUILD_DIR}/tests/serve_client_pool_test"
# Under TSan: the equivalence suite shares one plan cache between two
# facades, the client-pool suite hands leases across a live server.
cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}" \
  --target qp_test qp_equivalence_test serve_client_pool_test
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  "${TSAN_BUILD_DIR}/tests/qp_test"
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  "${TSAN_BUILD_DIR}/tests/qp_equivalence_test"
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  "${TSAN_BUILD_DIR}/tests/serve_client_pool_test"

echo "== [11/11] network-cost gate: asan + tsan suites, topology bench smoke =="
# Topology/link-map/network-model invariants and the routing equivalence
# sweep under asan+ubsan (step 2 built them with the full suite; re-run
# explicitly, at a CI-sized seed count, as the named gate).
"${ASAN_BUILD_DIR}/tests/topology_cost_test"
PDMS_EQ_SEEDS=32 "${ASAN_BUILD_DIR}/tests/cost_equivalence_test"
cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}" \
  --target topology_cost_test cost_equivalence_test
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  "${TSAN_BUILD_DIR}/tests/topology_cost_test"
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" PDMS_EQ_SEEDS=16 \
  "${TSAN_BUILD_DIR}/tests/cost_equivalence_test"
# Bench smoke: a small sweep; the binary exits non-zero if any cost-aware
# answer set diverges from the cost-blind twin.
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target topology_latency
PDMS_BENCH_RUNS=2 PDMS_BENCH_PEERS=32 \
  "${BUILD_DIR}/bench/topology_latency" > /dev/null

echo "== CI gate passed =="
