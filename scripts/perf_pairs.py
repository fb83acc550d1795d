#!/usr/bin/env python3
"""Alternating parent/change pairs of the gated perfbench workloads.

Runs each checkout's own perfbench/run.py (which builds that checkout's
perfbench into its .bench_build/ on first use) for N pairs per workload.
Pair k runs both checkouts on seed SEED+k, the parent first in even pairs
and the change first in odd ones, so drift of the host falls on both sides:

    python3 scripts/perf_pairs.py PARENT_DIR CHANGE_DIR \\
        --workloads linkbench_inpool,device_gc --pairs 10 --seed 7000

Exits 1 when a run is not correct, an operation failed, or any
virtual-time result (every metric but the wall-clock ones: wall_ops_per_s,
setup_s, peak_rss_mb) differs between the two sides of a pair. Otherwise
prints one table row per workload and wall-clock metric:

    parent median [parent IQR] -> change median, change/parent, pairs won

where a pair is won when the change is better in the direction
BENCHMARK.json gives. Nothing under perfbench/ is modified.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WALL_CLOCK = ["peak_rss_mb", "wall_ops_per_s", "setup_s"]


def run_once(checkout, workload, seed, seconds):
    """One run.py invocation; returns its result line, parsed."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s: %s exited %d: %s" % (
            checkout, " ".join(cmd[1:]), proc.returncode,
            proc.stderr.strip()[-500:]))
    return json.loads(lines[-1])


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def fmt(value):
    if abs(value) >= 1e4:
        return "%.1fk" % (value / 1e3)
    return "%.2f" % value if abs(value) >= 10 else "%.3f" % value


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workloads",
                    default="linkbench_inpool,ycsb_barrier,device_gc")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True,
                    help="seed of the first pair; pair k uses seed + k")
    ap.add_argument("--seconds", type=float, default=8.0,
                    help="run.py --seconds of every run")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    problems, rows = [], []
    for workload in args.workloads.split(","):
        values = {side: {m: [] for m in WALL_CLOCK} for side in sides}
        wins = {m: 0 for m in WALL_CLOCK}
        for k in range(args.pairs):
            seed = args.seed + k
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            result = {}
            for side in order:
                r = run_once(sides[side], workload, seed, args.seconds)
                result[side] = r
                if not r["correct"] or r["failed"] != 0:
                    problems.append("%s seed %d %s: correct=%s failed=%d" % (
                        workload, seed, side, r["correct"], r["failed"]))
            metrics = {side: {n: m["value"] for n, m in
                              result[side]["metrics"].items()}
                       for side in sides}
            for name, value in metrics["parent"].items():
                if name not in WALL_CLOCK and \
                        metrics["change"].get(name) != value:
                    problems.append("%s seed %d: %s %r -> %r" % (
                        workload, seed, name, value,
                        metrics["change"].get(name)))
            for m in WALL_CLOCK:
                p, c = metrics["parent"][m], metrics["change"][m]
                values["parent"][m].append(p)
                values["change"][m].append(c)
                wins[m] += (c < p) if better[m] == "lower" else (c > p)
            print("%s seed %d: %s" % (workload, seed, ", ".join(
                "%s %s -> %s" % (m, fmt(metrics["parent"][m]),
                                 fmt(metrics["change"][m]))
                for m in WALL_CLOCK)), file=sys.stderr, flush=True)
        for m in WALL_CLOCK:
            p_med = statistics.median(values["parent"][m])
            c_med = statistics.median(values["change"][m])
            q1, q3 = quartiles(values["parent"][m])
            rows.append("| `%s` (%d) | `%s` | %s [%s-%s] -> %s, %.3fx, %d/%d |"
                        % (workload, args.pairs, m, fmt(p_med), fmt(q1),
                           fmt(q3), fmt(c_med), c_med / p_med, wins[m],
                           args.pairs))

    print("| workload (pairs) | metric | parent median [IQR] -> change, "
          "ratio, pairs won |")
    print("|---|---|---|")
    for row in rows:
        print(row)
    for p in problems:
        print("CHECK FAILED: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
