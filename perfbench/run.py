#!/usr/bin/env python3
"""End-to-end benchmark of the PDMS: builds the library and the benchmark
driver from source, runs one workload, and prints its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold_stream --seed 1 --seconds 12 --trace 0

Workloads: cold_stream, hot_serve, churn_rw, sim_wan (see BENCHMARK.json
and perfbench/README.md). With --trace 0 the result carries the end-to-end
metrics; with --trace 1 the per-layer metrics of a traced replay.

Everything is built and written under .bench_build/ in the repository
root: the CMake build, per-run records (.bench_build/results/) and the
exact-count ledger (.bench_build/exact/) that checks counts which must
repeat for the same workload and seed across runs. The last line of
standard output is the JSON result; build logs go to standard error.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("cold_stream", "hot_serve", "churn_rw", "sim_wan")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """Hash of every file the benchmark binary is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def build(root, build_root):
    """Configures and builds the driver unless the sources are unchanged."""
    build_dir = os.path.join(build_root, "cmake")
    binary = os.path.join(build_dir, "pdms_perfbench")
    stamp = os.path.join(build_root, "source.sha256")
    digest = source_digest(root)
    if os.path.exists(binary) and os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == digest:
                return binary, digest
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "pdms_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        try:
            subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired, OSError) as e:
            fail(f"build failed: {e}")
    with open(stamp, "w") as f:
        f.write(digest + "\n")
    return binary, digest


def check_exact(build_root, digest, workload, seed, exact):
    """Compares this run's exact counts with earlier runs of the same
    build, workload and seed; returns the keys that differ."""
    ledger_dir = os.path.join(build_root, "exact", digest[:16])
    os.makedirs(ledger_dir, exist_ok=True)
    path = os.path.join(ledger_dir, f"{workload}-seed{seed}.json")
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    differing = [k for k, v in exact.items() if k in known and known[k] != v]
    known.update({k: v for k, v in exact.items() if k not in known})
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    return differing


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {os.path.join(root, 'src')}")
    build_root = os.path.join(root, ".bench_build")
    binary, digest = build(root, build_root)

    results = os.path.join(build_root, "results")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
               "--out-dir", os.path.relpath(results, root)]
    try:
        run = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{args.workload} printed no result")
    record_path = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path) as f:
        record = json.load(f)

    # The result must name exactly the metrics BENCHMARK.json declares for
    # this mode.
    spec_path = os.path.join(root, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        declared = {m["name"] for m in
                    spec["per_layer" if args.trace else "end_to_end"]}
        if set(result["metrics"]) != declared:
            fail(f"metrics {sorted(set(result['metrics']) ^ declared)} "
                 f"disagree with BENCHMARK.json")

    differing = check_exact(build_root, digest, args.workload, args.seed,
                            record.get("exact", {}))
    if differing:
        print(f"perfbench: counts that must repeat for this seed changed: "
              f"{', '.join(differing)}", file=sys.stderr)
        result["correct"] = False

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
