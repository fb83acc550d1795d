#!/usr/bin/env python3
"""Two-clock benchmark of the DuraSSD simulator.

Builds perfbench/ (the simulator's src/ libraries plus the workload program)
into .bench_build/perfbench, then runs one workload in repeated
single-threaded processes and prints every metric, with the aggregate as
one JSON object on the last line of standard output:

    python3 perfbench/run.py --workload device_gc --seed 3 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones from traced processes (each checked against an untraced
process of the same inputs). README.md defines every metric.

The exit code is 0 whenever the result line is printed; a wrong result is
reported there as "correct": false. Without a result (build failure,
crashed or hung process) the exit code is non-zero.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Expected wall seconds of one process per workload. --seconds is turned
# into a fixed number of processes with these, so the amount of simulated
# work (and every virtual-time result) depends only on --seed and
# --seconds, never on how fast the host is.
REP_SECONDS = {"ycsb_barrier": 1.8, "device_gc": 3.5, "linkbench_inpool": 2.5,
               "linkbench_offoff": 2.2}
MIN_REPS = 3
# Wall-clock budget of the measuring processes, counted after the build
# (the first run in a checkout compiles the simulator first): this many
# seconds, or four times --seconds if that is more.
RUN_LIMIT_S = 165.0

# Virtual-time results that must not change between an untraced and a
# traced process of the same inputs, besides the latency samples.
VIRTUAL = ["sim_ops_per_s", "nand_bytes_per_user_byte", "recovery_sim_ms"]
# Self-time metric of each layer (an ssd span has no children, so its time
# per op is its self time).
SELF_TIME = [("sim", "sim.self_us_per_op"), ("db", "db.self_us_per_op"),
             ("kv", "kv.self_us_per_op"), ("host", "host.self_us_per_op"),
             ("ssd", "ssd.us_per_op")]


def say(line=""):
    print(line, flush=True)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    for attempt in range(2):
        ok = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                            check=False).returncode == 0
        if ok:
            ok = subprocess.run(
                ["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs],
                stdout=sys.stderr, stderr=sys.stderr,
                check=False).returncode == 0
        if ok:
            return os.path.join(build_dir, "perfbench")
        if attempt == 0 and os.path.isdir(build_dir):
            # A cache left by another checkout or compiler: start afresh.
            shutil.rmtree(build_dir)
    return None


def tail_mean(sorted_values):
    """Mean of the slowest 1% of samples: the tail beyond p99. Virtual
    latencies sit on a few discrete levels, so p99 itself jumps between
    levels from seed to seed while this mean moves smoothly."""
    if not sorted_values:
        return 0.0
    k = max(1, round(len(sorted_values) / 100))
    return statistics.fmean(sorted_values[-k:]) / 1e3


def percentile(sorted_values, p):
    """Linear interpolation between order statistics (as perfbench does)."""
    if not sorted_values:
        return 0.0
    rank = p / 100.0 * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (rank - lo) * (sorted_values[hi] - sorted_values[lo])


class Runner:
    def __init__(self, binary, workload, out_dir, deadline):
        self.binary = binary
        self.workload = workload
        self.out_dir = out_dir
        self.deadline = deadline
        self.problems = []

    def run(self, seed, trace, spans=None):
        """Runs one process; returns its parsed RESULT, samples and echo."""
        tag = "%s-%d-%s" % (self.workload, seed, "t" if trace else "u")
        samples = os.path.join(self.out_dir, tag + ".samples.json")
        cmd = [self.binary, "--workload", self.workload, "--seed", str(seed),
               "--samples", samples]
        if trace:
            cmd += ["--trace"] + (["--spans", spans] if spans else [])
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            raise RuntimeError("out of time before seed %d" % seed)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=remaining, check=False)
        echo, result = [], None
        for line in proc.stdout.splitlines():
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            elif line.startswith("# "):
                echo.append(line[2:])
        if result is None:
            raise RuntimeError("perfbench exited %d without a result: %s" %
                               (proc.returncode, proc.stderr.strip()[-500:]))
        if not os.path.exists(samples):
            # The process stopped before its timed phase (set-up failed).
            raise RuntimeError("seed %d: %s" % (seed, "; ".join(
                result["failures"]) or "no latency samples"))
        with open(samples) as f:
            lat = json.load(f)
        os.remove(samples)
        if proc.returncode != 0 or result["failures"]:
            self.problems += ["seed %d: %s" % (seed, f)
                              for f in result["failures"]] or [
                "seed %d: exit code %d" % (seed, proc.returncode)]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        return {"metrics": metrics, "lat": lat, "echo": echo,
                "attempted": result["attempted"], "failed": result["failed"]}


def end_to_end(reps):
    """Aggregates untraced processes into the end-to-end metrics."""
    m = [r["metrics"] for r in reps]
    reads = sorted(x for r in reps for x in r["lat"]["read_ns"])
    writes = sorted(x for r in reps for x in r["lat"]["write_ns"])
    med = lambda k: statistics.median(x[k] for x in m)
    total = lambda k: sum(x[k] for x in m)
    return {
        "wall_ops_per_s": med("wall_ops_per_s"),
        "setup_s": med("setup_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "sim_ops_per_s": total("timed_ops") / total("sim_makespan_s"),
        "sim_read_mean_us": statistics.fmean(reads) / 1e3 if reads else 0.0,
        "sim_read_p50_us": percentile(reads, 50) / 1e3,
        "sim_read_p99_us": percentile(reads, 99) / 1e3,
        "sim_read_tail_us": tail_mean(reads),
        "sim_write_mean_us": statistics.fmean(writes) / 1e3 if writes else 0.0,
        "sim_write_p50_us": percentile(writes, 50) / 1e3,
        "sim_write_p99_us": percentile(writes, 99) / 1e3,
        "sim_write_tail_us": tail_mean(writes),
        "nand_bytes_per_user_byte":
            total("timed_nand_bytes") / total("timed_user_bytes"),
        "recovery_sim_ms": med("recovery_sim_ms"),
        "sim_read_samples": len(reads),
        "sim_write_samples": len(writes),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(REP_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    out_dir = os.path.join(os.path.dirname(binary), "runs")
    os.makedirs(out_dir, exist_ok=True)
    runner = Runner(binary, args.workload, out_dir,
                    time.monotonic() + max(RUN_LIMIT_S, 4 * args.seconds))
    per_rep = REP_SECONDS[args.workload]
    # Each process gets its own inputs, derived from --seed.
    sub_seed = lambda k: args.seed * 1000 + k
    say("perfbench %s seed %d trace %d" %
        (args.workload, args.seed, args.trace))

    try:
        if args.trace == 0:
            reps = [runner.run(sub_seed(k), False) for k in
                    range(max(MIN_REPS, int(args.seconds // per_rep)))]
            agg = end_to_end(reps)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            names = [m["name"] for m in spec["end_to_end"]]
            report = agg
        else:
            pairs = max(2, int(args.seconds // (2 * per_rep)))
            spans = os.path.join(out_dir, "%s-seed%d.spans.tsv" %
                                 (args.workload, args.seed))
            untraced, traced, ratios = [], [], []
            for k in range(pairs):
                u = runner.run(sub_seed(k), False)
                t = runner.run(sub_seed(k), True, spans if k == 0 else None)
                untraced.append(u)
                traced.append(t)
                if u["lat"] != t["lat"] or any(
                        u["metrics"][v] != t["metrics"][v] for v in VIRTUAL):
                    runner.problems.append(
                        "seed %d: tracing changed a virtual-time result" %
                        sub_seed(k))
                ratios.append(t["metrics"]["timed_wall_s"] /
                              u["metrics"]["timed_wall_s"])
            reps = untraced + traced
            # A layer the workload does not run reports no metrics: 0.
            report = {}
            for m in spec["per_layer"]:
                if m["name"] == "trace.wall_ratio":
                    report[m["name"]] = statistics.median(ratios)
                else:
                    report[m["name"]] = statistics.median(
                        r["metrics"].get(m["name"], 0.0) for r in traced)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            names = [m["name"] for m in spec["per_layer"]]
            agg = end_to_end(untraced)
            say("spans of the first traced process: %s" % spans)
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError, KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    for line in reps[0]["echo"]:
        if not line.startswith("CHECK FAILED"):
            say("  " + line)
    say("processes: %d (inputs from seeds %d..%d)" %
        (len(reps), sub_seed(0), sub_seed(len(reps) - 1)))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    say("end to end (untraced, medians of wall clock, pooled virtual time):")
    for k, v in agg.items():
        say("  %-26s %.6g" % (k, v))
    say("  %-26s %.6g (%d of %d)" % ("failed_op_ratio",
                                      failed / max(1, attempted), failed,
                                      attempted))
    say("  %-26s %s" % ("recovery_sim_ms per proc", ", ".join(
        "%.4f" % r["metrics"]["recovery_sim_ms"] for r in reps)))
    if args.trace == 1:
        total = sum(report[metric] for _, metric in SELF_TIME)
        say("self time per op by layer (traced):")
        for layer, metric in SELF_TIME:
            say("  %-6s %9.3f us  %5.1f%%" %
                (layer, report[metric], 100 * report[metric] / total))
        say("trace wall ratio (traced / untraced timed phase): %s" %
            ", ".join("%.3f" % r for r in ratios))
        # Layer metrics a process reports that BENCHMARK.json leaves out
        # (e.g. db.dirty_evictions_per_op, which only linkbench_offoff moves).
        extra = sorted({k for r in traced for k in r["metrics"]
                        if k.split(".")[0] in dict(SELF_TIME) and
                        k not in report})
        if extra:
            say("other layer metrics (traced, medians):")
        for k in extra:
            say("  %-30s %.6g" % (k, statistics.median(
                r["metrics"].get(k, 0.0) for r in traced)))
    for p in runner.problems:
        say("CHECK FAILED: " + p)

    correct = not runner.problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": report[n], "unit": units[n]} for n in names},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
