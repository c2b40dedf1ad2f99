#!/usr/bin/env python3
"""Paired parent/change runs of the repository benchmark (perfbench).

    python3 bench/perf_pairs.py --parent=REV --workload=W [--pairs=N]
        [--seconds=S] [--seed=N] [--trace=0|1] [--work-dir=DIR]
        [--ledger=PATH --title=TEXT]

Exports REV with `git archive` into a work directory and builds it there;
the change is the working tree, built in place. Each side gets its own
CARGO_TARGET_DIR under the work directory, so neither reuses the other's
build. After one warm-up run per side (build and first digests), it runs
`python3 perfbench/run.py` N times per side, alternating which side goes
first in each pair, and prints per metric:

  - the median and interquartile range (IQR, q3 - q1) of each side;
  - the change's wins: pairs in which it did better, by BENCHMARK.json's
    direction for that metric;
  - a verdict. A host-time metric (one that moves between runs) is "gain"
    when the change wins at least 9 in 10 pairs and its median beats the
    parent's by more than the parent's IQR, "worse" when its median is worse
    than the parent's by more than the metric's bound, "flat" otherwise.
    A virtual-time metric must be bit-identical across every run of both
    sides; any difference is flagged "DIFFERS" and makes the exit status 1.

With --trace=1 the per-layer metrics are compared instead. Per-layer values
with no host-time component (every name outside the host.*, *_ns_per_page,
gen_* and trace.* families) must then be identical too.

--ledger appends the comparison as one point to a ledger file such as
BENCH_perfbench.json, labelled by --title.
Exit status: 0 when every run passed its checks and no virtual value
differs, 1 otherwise, 2 on bad arguments.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VIRTUAL_E2E = {"virt_s", "req_mean_ms", "req_p99_ms", "req_p999_ms"}
# Per-layer values that measure the host: they move between runs of one binary.
HOST_LAYER = re.compile(r"^(host\.|trace\.)|_ns_per_page$|\.gen_|replay")
WIN_SHARE = 0.9


def log(msg):
    print(f"perf_pairs: {msg}", file=sys.stderr, flush=True)


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export_parent(rev, dest):
    """Writes the tree of `rev` into `dest` (no .git, no worktree entry)."""
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def run_once(tree, target, workload, seed, seconds, trace):
    """One perfbench run; returns (result JSON, run-condition fields)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"perfbench in {tree} exited {done.returncode} without a result")
    conditions = dict(re.findall(r"(\w+)=(\S+)", lines[-2]))
    return json.loads(lines[-1]), conditions


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(name, spec, parent, change):
    """Compares one metric's per-pair values; returns a ledger entry."""
    better_higher = spec.get("better", "higher") == "higher"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if (c > p if better_higher else c < p))
    entry = {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "wins": wins,
    }
    if spec.get("virtual"):
        same = len(set(parent) | set(change)) == 1
        entry["verdict"] = "identical" if same else "DIFFERS"
        return entry
    gap = (c_med - p_med) if better_higher else (p_med - c_med)
    bound = spec.get("bound")
    if wins >= WIN_SHARE * len(parent) and gap > p_q3 - p_q1:
        verdict = "gain"
    elif bound is not None and p_med != 0 and -gap / abs(p_med) > bound:
        verdict = "worse"
    else:
        verdict = "flat"
    entry["verdict"] = verdict
    return entry


def host_fingerprint(conditions):
    cpu_model, flags = None, ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name" and cpu_model is None:
                cpu_model = value.strip()
            elif key.strip() == "flags" and not flags:
                flags = value
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "compiler": conditions.get("compiler"),
        "cpu_model": cpu_model,
        # Crc32HardwarePath() takes the SSE4.2 path exactly when the CPU has it.
        "crc32c_path": "sse4.2" if "sse4_2" in flags.split() else "table",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", help="keep builds here across invocations")
    parser.add_argument("--ledger", help="append the point to this ledger file")
    parser.add_argument("--title", help="what the change does, for the ledger")
    args = parser.parse_args()
    if args.pairs < 1 or (args.ledger and not args.title):
        parser.error("--pairs must be >= 1, and --ledger needs --title")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload}")
    parent_rev = git("rev-parse", args.parent)
    change_rev = git("rev-parse", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        change_rev += "+dirty"

    work = Path(args.work_dir) if args.work_dir else Path(tempfile.mkdtemp(prefix="perf_pairs."))
    work = work.resolve()
    parent_tree = work / f"parent-{parent_rev[:12]}"
    if not (parent_tree / "perfbench" / "run.py").exists():
        log(f"exporting {parent_rev[:12]} to {parent_tree}")
        export_parent(parent_rev, parent_tree)
    sides = {
        "parent": (parent_tree, work / f"target-parent-{parent_rev[:12]}"),
        "change": (ROOT, work / "target-change"),
    }

    status = 0
    try:
        for side, (tree, target) in sides.items():
            log(f"building and warming up the {side} ({tree})")
            run_once(tree, target, args.workload, args.seed, 1, args.trace)
        runs = {"parent": [], "change": []}
        reps = {"parent": [], "change": []}
        conditions = {}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                result, conditions[side] = run_once(*sides[side], args.workload, args.seed,
                                                    args.seconds, args.trace)
                if not result["correct"] or result["failed"]:
                    log(f"{side} run {i + 1} failed its checks: {result['failed']} failed")
                    status = 1
                runs[side].append(result["metrics"])
                reps[side].append(int(conditions[side].get("reps", 0)))
            log(f"pair {i + 1}/{args.pairs} done")
    finally:
        if not args.work_dir:
            shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        names = sorted(runs["parent"][0])
        specs = {n: {"better": "lower", "virtual": not HOST_LAYER.search(n)} for n in names}
    else:
        specs = {m["name"]: dict(m, virtual=m["name"] in VIRTUAL_E2E)
                 for m in spec["end_to_end"]}
    metrics = {}
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs x {args.seconds:g} s, "
          f"parent {parent_rev[:12]} vs change {change_rev[:12]}{'+dirty' * change_rev.endswith('+dirty')}")
    print(f"{'metric':34} {'parent median [IQR]':>26} {'change median [IQR]':>26} "
          f"{'ratio':>7} {'wins':>6}  verdict")
    for name, m in specs.items():
        parent = [r[name]["value"] for r in runs["parent"]]
        change = [r[name]["value"] for r in runs["change"]]
        entry = summarize(name, m, parent, change)
        metrics[name] = entry
        if entry["verdict"] == "DIFFERS":
            status = 1
        p, c = entry["parent"], entry["change"]
        ratio = c["median"] / p["median"] if p["median"] else float("nan")
        print(f"{name:34} {p['median']:>14.6g} [{p['q3'] - p['q1']:>9.3g}] "
              f"{c['median']:>14.6g} [{c['q3'] - c['q1']:>9.3g}] {ratio:>7.3f} "
              f"{entry['wins']:>3}/{args.pairs:<2}  {entry['verdict']}")

    point = {
        "title": args.title,
        "source": "bench/perf_pairs.py",
        "commit": change_rev,
        "parent": parent_rev,
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "trace": args.trace,
        "reps": reps,
        "host": host_fingerprint(conditions.get("change", {})),
        "metrics": metrics,
    }
    if args.ledger:
        path = Path(args.ledger)
        ledger = json.loads(path.read_text()) if path.exists() else {"points": []}
        ledger["points"].append(point)
        path.write_text(json.dumps(ledger, indent=2) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
