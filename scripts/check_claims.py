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


def rising(vals):
    return all(a < b for a, b in zip(vals, vals[1:]))


def ms(ns):
    return f"{ns / 1e6:.1f}"


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
    return rising(vals), "16..256 planes: " + " -> ".join(
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


def tiered_knee(res):
    """ablation_tiered_cache: the hot set overflows the 5% flash tier (hit
    ratio < 0.9) and fits the 10% and 20% tiers (>= 0.9), where the tiered
    device serves >= 2x the raw HDD's IOPS."""
    bench = "ablation_tiered_cache"
    hit = {pct: row(res, bench, f"hot_skew/flash_pct={pct}")["values"][
        "tier_hit_ratio"] for pct in (5, 10, 20)}
    speedup = ratio(res, bench, "hot_skew/flash_pct=10", "hot_skew/raw_hdd")
    holds = hit[5] < 0.9 <= min(hit[10], hit[20]) and speedup >= 2.0
    return holds, ("hit ratio 5/10/20%: " + " / ".join(
        f"{h:.3f}" for h in hit.values()) + " (< 0.9 at 5%, >= 0.9 above); "
        f"10% vs raw HDD: {speedup:.2f}x (>= 2x)")


def destage_mode_nand(res):
    """ablation_destage_mode: at flush_every=1 log-structured destage
    programs >= 45% fewer NAND bytes than in-place, and its write
    amplification is <= 1.0 at every flush cadence."""
    bench = "ablation_destage_mode"

    def nand_sectors(name):
        r = row(res, bench, name)
        return (r["values"]["write_amplification"] *
                r["device"]["stats"]["host_written_sectors"])

    drop = 1.0 - nand_sectors("log_structured_f1") / nand_sectors(
        "in_place_f1")
    wa = {r["params"]["flush_every"]: r["values"]["write_amplification"]
          for r in rows(res, bench)
          if r["params"]["destage_mode"] == "log_structured"}
    if not wa:
        raise MissingRow(f"{bench} log_structured rows missing")
    worst = max(wa.values())
    return drop >= 0.45 and worst <= 1.0, (
        f"flush_every=1 NAND bytes: {drop:.0%} fewer (>= 45%); "
        f"log-structured WA at most {worst:.3f} over {len(wa)} cadences "
        "(<= 1.0)")


def dump_area_recovery(res):
    """ablation_dump_area: no dump overruns the capacitor budget, and
    reboot recovery time rises strictly with the pages dumped at the cut."""
    rs = sorted(rows(res, "ablation_dump_area"),
                key=lambda r: r["values"]["dumped_pages"])
    if len(rs) < 2:
        raise MissingRow("ablation_dump_area needs >= 2 rows")
    pages = [r["values"]["dumped_pages"] for r in rs]
    rec = [r["values"]["recovery_ns"] for r in rs]
    overruns = sum(r["values"]["capacitor_overruns"] for r in rs)
    holds = overruns == 0 and rising(pages) and rising(rec)
    return holds, ("dumped pages " + "/".join(map(str, pages)) +
                   " -> recovery " + "/".join(map(ms, rec)) +
                   f" ms (rising); capacitor overruns {overruns} (0)")


def gc_read_tail(res):
    """ablation_gc: GC runs and read p99 both rise strictly with the device
    fill level from 0.3. The quick sweep (8,000 ops) runs no GC at all at
    fill 0.3; the full one (30,000 ops) already does there."""
    rs = sorted(rows(res, "ablation_gc"),
                key=lambda r: r["params"]["fill_fraction"])
    if len(rs) < 2 or rs[0]["params"]["fill_fraction"] != 0.3:
        raise MissingRow("ablation_gc needs the fill=0.3 row and a fuller one")
    quick = res["benches"]["ablation_gc"].get("quick", False)
    gc = [r["values"]["gc_runs"] for r in rs]
    p99 = [r["latency_ns"]["p99"] for r in rs]
    holds = (gc[0] == 0 or not quick) and rising(gc) and rising(p99)
    return holds, ("fill " + "/".join(
        f"{r['params']['fill_fraction']:g}" for r in rs) + ": GC runs " +
        "/".join(f"{g:,}" for g in gc) +
        (" (0 first, rising)" if quick else " (rising)") + "; read p99 " +
        "/".join(map(ms, p99)) + " ms (rising)")


def queue_depth_rows(res, workload):
    """ablation_queue_depth rows of one workload: {ordered: [rows]}, each
    list sorted by its sweep knob."""
    knob = "iodepth" if workload == "fiosim_randwrite" else "committers"
    out = {}
    for r in rows(res, "ablation_queue_depth"):
        if r["params"]["workload"] == workload:
            out.setdefault(r["params"]["ordered_queue"], []).append(r)
    if set(out) != {True, False}:
        raise MissingRow(f"ablation_queue_depth {workload} rows missing")
    for rs in out.values():
        rs.sort(key=lambda r: r["params"][knob])
    return out


def queue_depth(res):
    """ablation_queue_depth: the ordered queue costs nothing (Sec. 3.3):
    ordered and unordered fio rows give identical IOPS at every depth. In
    both modes WAL commits/s rise strictly with committers, 32 committers
    reach >= 10x one, and the largest commit group never shrinks."""
    iops = {o: {r["params"]["iodepth"]: r["throughput"]["value"] for r in rs}
            for o, rs in queue_depth_rows(res, "fiosim_randwrite").items()}
    if set(iops[True]) != set(iops[False]):
        raise MissingRow("ablation_queue_depth fio depths differ by mode")
    differ = [d for d in iops[True] if iops[True][d] != iops[False][d]]
    ok = not differ
    parts = [f"{len(iops[True])} depths, {len(differ)} with different "
             "ordered/unordered IOPS (0)"]
    for ordered, rs in sorted(queue_depth_rows(res, "wal_commit").items(),
                              reverse=True):
        by_n = {r["params"]["committers"]: r for r in rs}
        if 1 not in by_n or 32 not in by_n:
            raise MissingRow("ablation_queue_depth committers=1/32 missing")
        tps = [r["throughput"]["value"] for r in rs]
        groups = [r["values"]["max_group_commit"] for r in rs]
        gain = (by_n[32]["throughput"]["value"] /
                by_n[1]["throughput"]["value"])
        ok &= (rising(tps) and gain >= 10.0 and
               all(a <= b for a, b in zip(groups, groups[1:])))
        parts.append(f"{'ordered' if ordered else 'unordered'} commits/s "
                     f"{'rising' if rising(tps) else 'NOT rising'}, 32 vs 1 "
                     f"committers {gain:.1f}x (>= 10x), max group " +
                     "/".join(map(str, groups)) + " (non-decreasing)")
    return ok, "; ".join(parts)


def durability_mode_barrier(res):
    """ablation_durability_mode: barrier mode gives >= 2x volatile+flush on
    fsync IOPS and on WAL commits/s, and only barrier mode makes commits
    durable by barrier — every one of them."""
    bench = "ablation_durability_mode"
    fsync = ratio(res, bench, "fsync_iops/barrier",
                  "fsync_iops/volatile+flush")
    commit = ratio(res, bench, "wal_commit/barrier",
                   "wal_commit/volatile+flush")
    counts = {r["params"]["mode"]: (r["values"]["barrier_commits"],
                                    r["params"]["commits"])
              for r in rows(res, bench) if r["name"].startswith("wal_commit/")}
    counts_ok = all(n == (total if mode == "barrier" else 0)
                    for mode, (n, total) in counts.items())
    holds = fsync >= 2.0 and commit >= 2.0 and counts_ok
    return holds, (f"vs volatile+flush: fsync IOPS {fsync:.1f}x, WAL commit/s "
                   f"{commit:.1f}x (>= 2x); barrier commits " + ", ".join(
                       f"{m} {n:,}/{t:,}" for m, (n, t) in counts.items()) +
                   " (all in barrier mode, none otherwise)")


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
    ("ablation_tiered_cache knee", tiered_knee),
    ("ablation_destage_mode NAND bytes", destage_mode_nand),
    ("ablation_dump_area recovery", dump_area_recovery),
    ("ablation_gc read tail", gc_read_tail),
    ("ablation_queue_depth ordering and group commit", queue_depth),
    ("ablation_durability_mode barrier gain", durability_mode_barrier),
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
