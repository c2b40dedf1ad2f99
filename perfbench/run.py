#!/usr/bin/env python3
"""Repository benchmark of the compression-cache simulator.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds the simulator and the perfbench program (CMake, Release) into the
perfbench subdirectory of $CARGO_TARGET_DIR, or of .bench_build at the
repository root. Then runs the workload in one single-threaded child
process, checks its outputs and prints, as the last line of standard output,
one JSON object with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.

Exit status: 0 when every check passed, 1 when a check failed or the build
or run broke, 2 when the run conditions are refused (see main.cc).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

DEFAULT_SEED = 42
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 160


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    # A subdirectory of its own, so another CMake project's cache in the
    # target directory is never reused.
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(out):
    """Configures and builds the program; returns the binary's path or None."""
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return None
        if done.returncode != 0:
            log(f"build step failed with status {done.returncode}: {' '.join(cmd)}")
            return None
    binary = out / "perfbench"
    return binary if binary.is_file() else None


def check_digests(out, binary, workload, virtual):
    """Virtual results of one instance seed must match every earlier run of
    the same binary in this build directory, traced or not."""
    tag = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    store = out / "digests" / tag
    store.mkdir(parents=True, exist_ok=True)
    mismatches = []
    for seed, values in virtual.items():
        path = store / f"{workload}-{seed}.json"
        if path.exists():
            earlier = json.loads(path.read_text())
            if earlier != values:
                names = sorted(k for k in set(earlier) | set(values)
                               if earlier.get(k) != values.get(k))
                mismatches.append(f"instance seed {seed}: {', '.join(names[:8])}")
        else:
            path.write_text(json.dumps(values, sort_keys=True))
    return mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as err:
        log(f"cannot read {spec_path}: {err}")
        return 1
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-{args.seed}.jsonl")]
    try:
        child = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                               timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if child.returncode == 2:
        return 2
    lines = child.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{args.workload} exited with status {child.returncode} and no result")
        return 1

    extra = [f"nondeterministic across runs: {m}"
             for m in check_digests(out, binary, args.workload, result["virtual"])]
    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None:
            if not args.trace:
                extra.append(f"metric {m['name']} missing")
                continue
            value = 0.0  # the workload does not exercise this layer
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    failed = result["failed"] + len(extra)
    for f in result["failures"] + extra:
        log(f"FAILED {f}")
    correct = child.returncode == 0 and failed == 0

    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"reps={result['reps']} req_samples={result['req_samples']} nproc={result['nproc']} compiler={result['compiler']} "
          f"build_type={result['build_type']} failed_pct="
          f"{100.0 * failed / max(result['attempted'], 1):.6g}")
    print(json.dumps({"correct": correct, "attempted": max(result["attempted"], 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
