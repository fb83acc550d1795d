#!/usr/bin/env python3
"""Bench regression guard: compare a fresh BENCH_results.json to a baseline.

The simulator is virtual-time deterministic, so identical code produces
identical numbers; the tolerance band exists to let intentional,
reviewed perf changes through (after which the committed baseline should
be regenerated with `./run_benches.sh --quick --json`).

Usage:
    scripts/bench_compare.py BASELINE CURRENT [--tolerance 0.10]
    scripts/bench_compare.py BASELINE CURRENT --exact

Guarded metrics: per-row throughput (higher is better), plus the
GUARDED_VALUES scalars when a baseline row carries them — currently
write_amplification (lower is better), cache_hit_ratio (higher is
better), sim_ops_per_wall_second (higher is better; full runs only),
tier_hit_ratio (higher is better), and rewarm_seconds (lower is
better). Every micro_ops row (google-benchmark, wall clock) fails when
its CPU time exceeds MICRO_OPS_FACTOR times the baseline's: a band wide
enough for different hosts, narrow enough to catch a hot path that fell
back to a slow implementation. Likewise the quick suite's total wall
seconds ("suite_wall", written by run_benches.sh --quick --json) fails
above SUITE_WALL_FACTOR times the baseline's.

Every current row that reports failed_ops > 0 (workload-driver operations
that returned an unexpected status) fails in both modes.

--exact checks that virtual time did not move: every leaf of every bench
document except micro_ops and keys containing "wall" must equal the
baseline's. Each changed or removed leaf is listed; added leaves (a new
row, a new counter) are allowed. A change that means to move numbers
commits the new baseline and explains each moved row.

Exit status: 0 when no guarded metric moved more than the tolerance in
its bad direction (new rows/benches are fine, improvements are fine), or
with --exact when no leaf changed or disappeared; 1 when a regression, a
failed operation, or a removed row/bench was found; 2 on usage errors.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot load {path}: {e}", file=sys.stderr)
        sys.exit(2)


def rows_by_name(bench_doc):
    return {r["name"]: r for r in bench_doc.get("results", []) if "name" in r}


# Scalar outputs in a row's "values" section that act as regression gates
# alongside throughput. Direction says which way is worse: write
# amplification regresses when it rises, cache-hit ratio when it drops.
GUARDED_VALUES = {
    "write_amplification": "lower_is_better",
    "cache_hit_ratio": "higher_is_better",
    # Host parallelism: wall-clock simulation throughput (full runs only;
    # quick runs omit it because small workloads time too noisily).
    "sim_ops_per_wall_second": "higher_is_better",
    # Tiered cache: the hot-set hit ratio must not erode, and the warm
    # post-recovery rewarm pass must stay flash-fast (the cold arm's row
    # is guarded too — a slowdown there signals a destage regression).
    "tier_hit_ratio": "higher_is_better",
    "rewarm_seconds": "lower_is_better",
}


# micro_ops rows may take up to this many times their baseline CPU time.
MICRO_OPS_FACTOR = 3.0
# A quick suite may take up to this many times the baseline's wall seconds.
SUITE_WALL_FACTOR = 3.0
TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def micro_rows(doc):
    return {b["name"]: b for b in doc.get("benchmarks", [])
            if "name" in b and b.get("run_type") != "aggregate"}


def compare_micro_ops(base_doc, cur_doc, regressions):
    """Wide-band wall-clock guard on google-benchmark rows.

    Returns the number of rows compared.
    """
    cur_rows = micro_rows(cur_doc)
    compared = 0
    for name, base_row in micro_rows(base_doc).items():
        cur_row = cur_rows.get(name)
        if cur_row is None:
            regressions.append(f"micro_ops/{name}: row missing")
            continue
        compared += 1
        b = float(base_row["cpu_time"]) * TIME_UNIT_NS[base_row["time_unit"]]
        c = float(cur_row["cpu_time"]) * TIME_UNIT_NS[cur_row["time_unit"]]
        if c > b * MICRO_OPS_FACTOR:
            regressions.append(
                f"micro_ops/{name}: {c:.0f} ns > {MICRO_OPS_FACTOR:g}x "
                f"baseline {b:.0f} ns"
            )
    return compared


def compare_suite_wall(base_wall, cur_wall, regressions):
    """Wide-band guard on the quick suite's total wall seconds.

    Applies only when both documents come from quick runs that recorded it.
    """
    if not (base_wall and cur_wall and base_wall.get("quick")
            and cur_wall.get("quick")):
        return
    b, c = float(base_wall["total_s"]), float(cur_wall["total_s"])
    if c > b * SUITE_WALL_FACTOR:
        regressions.append(
            f"suite_wall: quick suite took {c:.1f} s > "
            f"{SUITE_WALL_FACTOR:g}x baseline {b:.1f} s")


def failed_rows(docs, regressions):
    """Fails every row that counted failed workload-driver operations."""
    for bench_name, doc in sorted(docs.items()):
        for row_name, row in rows_by_name(doc).items():
            failed = row.get("failed_ops", 0)
            if failed > 0:
                regressions.append(
                    f"{bench_name}/{row_name}: {failed} failed operations")


def leaves(node, path, out):
    """Flattens a bench document into {path: leaf}. Rows are keyed by their
    name, other list items by index; keys containing "wall" are skipped."""
    if isinstance(node, dict):
        for key, value in node.items():
            if "wall" not in key:
                leaves(value, f"{path}/{key}", out)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            label = item["name"] if isinstance(item, dict) and "name" in item \
                else str(i)
            leaves(item, f"{path}[{label}]", out)
    else:
        out[path] = node


def compare_exact(base, cur):
    """Lists every changed or removed non-wall leaf outside micro_ops."""
    problems = []
    compared = 0
    for bench_name, base_doc in sorted(base.items()):
        if bench_name == "micro_ops":
            continue
        base_leaves, cur_leaves = {}, {}
        leaves(base_doc, bench_name, base_leaves)
        leaves(cur.get(bench_name, {}), bench_name, cur_leaves)
        for path, b in base_leaves.items():
            compared += 1
            if path not in cur_leaves:
                problems.append(f"{path}: removed (baseline {b!r})")
            elif cur_leaves[path] != b:
                problems.append(f"{path}: {b!r} -> {cur_leaves[path]!r}")
    return compared, problems


def compare_values(bench_name, row_name, base_row, cur_row, tolerance,
                   regressions, notes):
    """Compares GUARDED_VALUES entries present in the baseline row.

    Returns the number of value metrics compared.
    """
    base_vals = base_row.get("values") or {}
    cur_vals = cur_row.get("values") or {}
    compared = 0
    for key, direction in GUARDED_VALUES.items():
        if key not in base_vals:
            continue
        if key not in cur_vals:
            regressions.append(f"{bench_name}/{row_name}: {key} metric missing")
            continue
        compared += 1
        b, c = float(base_vals[key]), float(cur_vals[key])
        if direction == "lower_is_better":
            ceiling = b * (1.0 + tolerance)
            if c > ceiling:
                regressions.append(
                    f"{bench_name}/{row_name}: {key} {c:.3f} > "
                    f"{ceiling:.3f} (baseline {b:.3f} + {tolerance:.0%})"
                )
            elif b > 0 and c < b * (1.0 - tolerance):
                notes.append(
                    f"{bench_name}/{row_name}: {key} improved "
                    f"{b:.3f} -> {c:.3f} (consider refreshing the baseline)"
                )
        else:
            floor = b * (1.0 - tolerance)
            if c < floor:
                regressions.append(
                    f"{bench_name}/{row_name}: {key} {c:.3f} < "
                    f"{floor:.3f} (baseline {b:.3f} - {tolerance:.0%})"
                )
            elif c > b * (1.0 + tolerance):
                notes.append(
                    f"{bench_name}/{row_name}: {key} improved "
                    f"{b:.3f} -> {c:.3f} (consider refreshing the baseline)"
                )
    return compared


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional throughput drop vs baseline (default 0.10)",
    )
    ap.add_argument(
        "--exact",
        action="store_true",
        help="require every non-wall leaf outside micro_ops to be unchanged",
    )
    args = ap.parse_args()

    base_all = load(args.baseline)
    cur_all = load(args.current)
    base = base_all.get("benches", {})
    cur = cur_all.get("benches", {})

    regressions = []
    notes = []
    compared = 0
    failed_rows(cur, regressions)

    # A document with "results" but without the terminal "complete": true
    # marker is partial output (the bench died mid-write); comparing against
    # it — in either role — would silently shrink coverage.
    for role, docs in (("baseline", base), ("current", cur)):
        for bench_name, doc in sorted(docs.items()):
            if "results" in doc and doc.get("complete") is not True:
                regressions.append(
                    f"{bench_name}: {role} document is incomplete "
                    '(missing "complete": true)'
                )

    if args.exact:
        compared, changed = compare_exact(base, cur)
        for c in changed:
            print(f"CHANGED: {c}", file=sys.stderr)
        for r in regressions:
            print(f"REGRESSION: {r}", file=sys.stderr)
        print(f"bench_compare --exact: {compared} leaves compared, "
              f"{len(changed)} changed or removed, "
              f"{len(regressions)} other failure(s)")
        return 1 if changed or regressions else 0

    compare_suite_wall(base_all.get("suite_wall"), cur_all.get("suite_wall"),
                       regressions)
    for bench_name, base_doc in sorted(base.items()):
        if bench_name not in cur:
            regressions.append(f"{bench_name}: bench missing from current run")
            continue
        if "benchmarks" in base_doc:
            # google-benchmark native output (micro_ops): wall clock.
            compared += compare_micro_ops(base_doc, cur[bench_name],
                                          regressions)
            continue
        cur_rows = rows_by_name(cur[bench_name])
        for row_name, base_row in rows_by_name(base_doc).items():
            base_tp = base_row.get("throughput")
            base_vals = base_row.get("values") or {}
            if not base_tp and not any(k in base_vals for k in GUARDED_VALUES):
                continue
            cur_row = cur_rows.get(row_name)
            if cur_row is None:
                # Renamed/removed rows show up on intentional bench rewrites;
                # they fail so the baseline refresh is never forgotten.
                regressions.append(f"{bench_name}/{row_name}: row missing")
                continue
            if base_tp:
                cur_tp = cur_row.get("throughput")
                if not cur_tp:
                    regressions.append(
                        f"{bench_name}/{row_name}: throughput metric missing"
                    )
                    continue
                compared += 1
                b, c = float(base_tp["value"]), float(cur_tp["value"])
                unit = base_tp.get("unit", "")
                floor = b * (1.0 - args.tolerance)
                if c < floor:
                    regressions.append(
                        f"{bench_name}/{row_name}: {c:.0f} {unit} < "
                        f"{floor:.0f} (baseline {b:.0f} - {args.tolerance:.0%})"
                    )
                elif c > b * (1.0 + args.tolerance):
                    notes.append(
                        f"{bench_name}/{row_name}: improved {b:.0f} -> "
                        f"{c:.0f} {unit} (consider refreshing the baseline)"
                    )
            compared += compare_values(
                bench_name, row_name, base_row, cur_row, args.tolerance,
                regressions, notes)

    for n in notes:
        print(f"note: {n}")
    print(f"bench_compare: {compared} rows compared, "
          f"{len(regressions)} regression(s), tolerance {args.tolerance:.0%}")
    if regressions:
        for r in regressions:
            print(f"REGRESSION: {r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
