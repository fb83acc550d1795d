#!/usr/bin/env python3
"""Paper verdicts as code: checks EXPERIMENTS.md claims against bench rows.

Each claim below restates one verdict of EXPERIMENTS.md as a bound on the
rows of a BENCH_results.json written by `./run_benches.sh --json` (quick or
full). A re-baseline of the committed results can then not flip a verdict
unnoticed.

Usage:
    scripts/check_claims.py [BENCH_results.json]

Prints one PASS/FAIL line per claim with the measured factor. Exit status:
0 when every claim holds, 1 when a claim fails or a row it needs is
missing, 2 when the results file cannot be read.
"""

import json
import sys


class MissingRow(Exception):
    pass


def rows(results, bench):
    doc = results["benches"].get(bench)
    if doc is None:
        raise MissingRow(f"bench {bench} missing")
    return doc.get("results", [])


def row(results, bench, name):
    for r in rows(results, bench):
        if r.get("name") == name:
            return r
    raise MissingRow(f"{bench}/{name} missing")


def tput(results, bench, name):
    return row(results, bench, name)["throughput"]["value"]


def ratio(results, bench, num, den):
    return tput(results, bench, num) / tput(results, bench, den)


# --- Claims: each returns (holds, detail) ---------------------------------

def cache_size_knee(res):
    """ablation_cache_size: a buffer covering the 1,024-sector hot set
    absorbs rewrites for >= 3x the IOPS of a 64-sector buffer."""
    r = ratio(res, "ablation_cache_size", "write_buffer_sectors=1024",
              "write_buffer_sectors=64")
    return r >= 3.0, f"1024 vs 64 sectors: {r:.2f}x (>= 3x)"


def cache_size_saturates(res):
    """ablation_cache_size: past the hot-set size the curve is flat."""
    vals = [tput(res, "ablation_cache_size", f"write_buffer_sectors={n}")
            for n in (1024, 2048, 4096)]
    return len(set(vals)) == 1, "1024/2048/4096 sectors: " + " / ".join(
        f"{v:,.0f}" for v in vals) + " (equal)"


def parallelism_iops(res):
    """IOPS of the ablation_parallelism rows keyed by total plane count."""
    return {r["params"]["total_planes"]: r["throughput"]["value"]
            for r in rows(res, "ablation_parallelism")}


def parallelism_scales(res):
    """ablation_parallelism: IOPS rise strictly from 16 to 256 planes."""
    iops = parallelism_iops(res)
    planes = [16, 32, 64, 128, 256]
    missing = [p for p in planes if p not in iops]
    if missing:
        raise MissingRow(f"ablation_parallelism planes {missing} missing")
    vals = [iops[p] for p in planes]
    rising = all(a < b for a, b in zip(vals, vals[1:]))
    return rising, "16..256 planes: " + " -> ".join(
        f"{v / 1e3:,.1f}K" for v in vals)


def parallelism_plateau(res):
    """ablation_parallelism: 512 planes stay within 2% of 256 (the host
    interface, not the media, is the limit)."""
    iops = parallelism_iops(res)
    if 256 not in iops or 512 not in iops:
        raise MissingRow("ablation_parallelism 256/512-plane rows missing")
    d = iops[512] / iops[256] - 1.0
    return abs(d) <= 0.02, f"512 vs 256 planes: {d:+.2%} (within 2%)"


def table1_durassd_gain(res):
    """Table 1: DuraSSD cache ON gains >= 50x from fsync-1 to no-fsync."""
    r = ratio(res, "table1_fsync_iops", "DuraSSD/cache_on/fsync_every=0",
              "DuraSSD/cache_on/fsync_every=1")
    return r >= 50.0, f"DuraSSD fsync-1 -> no-fsync: {r:.1f}x (>= 50x)"


def table1_hdd_gain(res):
    """Table 1: the HDD gains <= 7x (no internal parallelism)."""
    worst = 0.0
    for cache in ("cache_off", "cache_on"):
        worst = max(worst, ratio(res, "table1_fsync_iops",
                                 f"HDD/{cache}/fsync_every=0",
                                 f"HDD/{cache}/fsync_every=1"))
    return worst <= 7.0, f"HDD fsync-1 -> no-fsync: {worst:.2f}x (<= 7x)"


def table5_batching(res):
    """Table 5: batch 1 -> 100 gains >= 20x with barriers, <= 4x without."""
    ok = True
    parts = []
    for update in ("1.000000", "0.500000"):
        for barrier, bound in (("on", 20.0), ("off", 4.0)):
            r = ratio(res, "table5_couchbase",
                      f"barrier_{barrier}/update={update}/batch=100",
                      f"barrier_{barrier}/update={update}/batch=1")
            ok &= r >= bound if barrier == "on" else r <= bound
            parts.append(f"{barrier}/{float(update):g} {r:.1f}x")
    return ok, ", ".join(parts) + " (on >= 20x, off <= 4x)"


def table4_barrier(res):
    """Table 4: barrier off/on is >= 10x at every page size."""
    factors = [ratio(res, "table4_tpcc", f"barrier_off/page={p}",
                     f"barrier_on/page={p}") for p in ("16KB", "8KB", "4KB")]
    return min(factors) >= 10.0, "16/8/4KB: " + " / ".join(
        f"{f:.1f}x" for f in factors) + " (>= 10x)"


def endurance(res):
    """Sec. 1 endurance: NAND bytes written drop by more than 50%."""
    base = row(res, "ablation_endurance", "mysql_default_dwb_16k")
    dura = row(res, "ablation_endurance", "durassd_nodwb_4k")
    drop = 1.0 - dura["values"]["nand_gib"] / base["values"]["nand_gib"]
    return drop >= 0.5, f"NAND GiB drop: {drop:.0%} (>= 50%)"


def fig6b_4k_highest(res):
    """Fig. 6b: 4KB pages have the highest TPS at every pool size."""
    by_pool = {}
    for r in rows(res, "fig6_buffer_sweep"):
        p = r["params"]
        by_pool.setdefault(p["pool_bytes"], {})[p["page_size"]] = (
            r["throughput"]["value"])
    if not by_pool:
        raise MissingRow("fig6_buffer_sweep rows missing")
    losers = [pool for pool, t in sorted(by_pool.items())
              if 4096 not in t or max(t, key=t.get) != 4096]
    return not losers, (f"4KB highest at {len(by_pool) - len(losers)} of "
                        f"{len(by_pool)} pool sizes")


CLAIMS = [
    ("ablation_cache_size knee", cache_size_knee),
    ("ablation_cache_size saturation", cache_size_saturates),
    ("ablation_parallelism scaling", parallelism_scales),
    ("ablation_parallelism plateau", parallelism_plateau),
    ("Table 1 DuraSSD fsync gain", table1_durassd_gain),
    ("Table 1 HDD fsync gain", table1_hdd_gain),
    ("Table 5 batch gain", table5_batching),
    ("Table 4 barrier factor", table4_barrier),
    ("Endurance NAND reduction", endurance),
    ("Fig. 6b 4KB highest", fig6b_4k_highest),
]


def main(argv):
    path = argv[1] if len(argv) > 1 else "BENCH_results.json"
    try:
        with open(path, "r", encoding="utf-8") as f:
            results = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_claims: cannot load {path}: {e}", file=sys.stderr)
        return 2
    failed = 0
    for label, claim in CLAIMS:
        try:
            holds, detail = claim(results)
        except MissingRow as e:
            holds, detail = False, str(e)
        failed += not holds
        print(f"{'PASS' if holds else 'FAIL'}  {label}: {detail}")
    print(f"check_claims: {len(CLAIMS) - failed}/{len(CLAIMS)} claims hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
