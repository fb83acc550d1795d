// Ablation: TieredDevice — flash as an extended cache over an HDD
// capacity tier (FaCE lineage), vs the raw capacity tier, vs cache size,
// and warm vs cold recovery.
//
// Three measurements:
//   - Hot-set sweep: 4KB mixed read/write traffic with a 95/5 hot skew,
//     swept over the flash-tier size (% of capacity). Reported per size:
//     `hot_iops` (throughput) and `tier_hit_ratio` (regression-guarded) —
//     the acceptance claim is >= 2x the raw-HDD IOPS at >= 0.9 hit ratio
//     once the hot set fits the flash tier.
//   - Raw capacity baseline: the identical workload on the bare HDD.
//   - Rewarm A/B: build a hot cache, cut power, recover, and re-read the
//     hot set. `rewarm_seconds` (regression-guarded, lower is better) is
//     the virtual time of that re-read pass: warm recovery serves it from
//     the journal-rebuilt directory at flash speed; the cold-start arm
//     re-fetches everything from the disk. The warm/cold ratio is the
//     paper-style faster-recovery claim (< 0.1 gated in CI).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_json.h"
#include "ssd/hdd_device.h"
#include "ssd/ssd_config.h"
#include "tier/tiered_device.h"

namespace durassd {
namespace {

constexpr uint32_t kSectorBytes = 4 * kKiB;

uint64_t Rng(uint64_t* state) {
  *state ^= *state << 13;
  *state ^= *state >> 7;
  *state ^= *state << 17;
  return *state;
}

struct WorkloadShape {
  uint64_t capacity_sectors;
  uint64_t hot_sectors;
  uint64_t ops;
};

TieredConfig TierConfig(const WorkloadShape& shape, double flash_pct) {
  TieredConfig tc;
  tc.flash = SsdConfig::DuraSsd();
  tc.flash.store_data = false;  // Timing-only: keeps big sweeps cheap.
  tc.capacity_is_hdd = true;
  tc.capacity_hdd.num_sectors = shape.capacity_sectors;
  tc.flash_pct = flash_pct;
  return tc;
}

/// The skewed op stream: 95% of ops land uniformly in the hot set, the
/// rest uniformly across the whole device; 60% reads / 40% writes.
/// Identical sequencing for the tiered and the raw-HDD arm.
template <typename Dev>
double RunHotSkew(Dev& dev, const WorkloadShape& shape, uint64_t seed) {
  uint64_t rng = seed;
  const std::string sector(kSectorBytes, 'w');
  SimTime t = 0;
  // Warm-up: populate the hot set once (uncounted).
  for (Lpn l = 0; l < shape.hot_sectors; ++l) {
    t = dev.Write(t, l, sector).done;
  }
  const SimTime start = t;
  for (uint64_t i = 0; i < shape.ops; ++i) {
    const bool hot = Rng(&rng) % 100 < 95;
    const Lpn lpn = hot ? Rng(&rng) % shape.hot_sectors
                        : Rng(&rng) % shape.capacity_sectors;
    if (Rng(&rng) % 100 < 60) {
      const auto r = dev.Read(t, lpn, 1, nullptr);
      if (!r.status.ok()) break;
      t = r.done;
    } else {
      const auto w = dev.Write(t, lpn, sector);
      if (!w.status.ok()) break;
      t = w.done;
    }
  }
  const SimTime window = t - start;
  return window > 0 ? static_cast<double>(shape.ops) * kSecond /
                          static_cast<double>(window)
                    : 0.0;
}

double RunSweep(const WorkloadShape& shape, BenchJson* json) {
  printf("Hot-set sweep: 4KB 95/5-skew 60r/40w, hot set %llu MiB over a\n"
         "%llu MiB HDD capacity tier\n",
         static_cast<unsigned long long>(shape.hot_sectors * kSectorBytes /
                                         kMiB),
         static_cast<unsigned long long>(shape.capacity_sectors *
                                         kSectorBytes / kMiB));

  HddDevice::Config hc;
  hc.num_sectors = shape.capacity_sectors;
  hc.store_data = false;
  HddDevice raw(hc);
  const double raw_iops = RunHotSkew(raw, shape, 42);
  printf("  %-16s %10.0f IOPS\n", "raw HDD", raw_iops);
  if (json->enabled()) {
    BenchResult row("hot_skew/raw_hdd");
    row.Param("ops", shape.ops).Throughput(raw_iops, "iops");
    json->Add(std::move(row));
  }

  double speedup_at_10 = 0;
  for (const double pct : {5.0, 10.0, 20.0}) {
    auto tier = MakeTieredDevice(TierConfig(shape, pct));
    const double iops = RunHotSkew(*tier, shape, 42);
    const double hit = tier->stats().hit_ratio();
    const double speedup = raw_iops > 0 ? iops / raw_iops : 0;
    if (pct == 10.0) speedup_at_10 = speedup;
    printf("  tiered %4.0f%%    %10.0f IOPS   hit %.3f   %5.1fx raw   "
           "(%llu slots)\n",
           pct, iops, hit, speedup,
           static_cast<unsigned long long>(tier->cache_slots()));
    if (json->enabled()) {
      BenchResult row("hot_skew/flash_pct=" +
                      std::to_string(static_cast<int>(pct)));
      row.Param("flash_pct", pct)
          .Param("ops", shape.ops)
          .Param("cache_slots", tier->cache_slots())
          .Throughput(iops, "iops")
          .Value("tier_hit_ratio", hit)
          .Value("hot_iops", iops)
          .Value("tiered_vs_raw_speedup", speedup)
          .Value("destage_runs", tier->stats().destage_runs)
          .Value("destage_sectors", tier->stats().destage_sectors)
          .Value("mean_destage_run_len",
                 tier->stats().destage_runs > 0
                     ? static_cast<double>(tier->stats().destage_sectors) /
                           static_cast<double>(tier->stats().destage_runs)
                     : 0.0);
      json->Add(std::move(row));
    }
  }
  return speedup_at_10;
}

struct RewarmResult {
  double rewarm_seconds = 0;
  double recovery_seconds = 0;
  uint64_t probe_misses = 0;
};

RewarmResult RunRewarm(const WorkloadShape& shape, bool warm) {
  TieredConfig tc = TierConfig(shape, 10.0);
  tc.warm_recovery = warm;
  auto tier = MakeTieredDevice(tc);
  const std::string sector(kSectorBytes, 'w');
  SimTime t = 0;
  for (Lpn l = 0; l < shape.hot_sectors; ++l) {
    t = tier->Write(t, l, sector).done;
  }
  tier->PowerCut(t + 1);
  const SimTime up = tier->PowerOn();

  // Rewarm probe: one pass over the hot set in prime-stride order (not
  // sequential, so the scan filter never bypasses admission in the cold
  // arm). Virtual duration of the pass = the rewarm cost.
  RewarmResult res;
  res.recovery_seconds =
      static_cast<double>(tier->last_recovery_duration()) / kSecond;
  const uint64_t misses0 = tier->stats().tier_read_misses;
  SimTime tp = up + 1;
  const SimTime probe_start = tp;
  const uint64_t stride = 619;  // Coprime with any power-of-two hot set.
  for (uint64_t i = 0; i < shape.hot_sectors; ++i) {
    const Lpn lpn = (i * stride) % shape.hot_sectors;
    const auto r = tier->Read(tp, lpn, 1, nullptr);
    if (!r.status.ok()) break;
    tp = r.done;
  }
  res.rewarm_seconds = static_cast<double>(tp - probe_start) / kSecond;
  res.probe_misses = tier->stats().tier_read_misses - misses0;
  return res;
}

double RunRewarmBench(const WorkloadShape& shape, BenchJson* json) {
  printf("\nWarm vs cold recovery: power cut with a hot cache, then one\n"
         "pass over the hot set\n");
  const RewarmResult w = RunRewarm(shape, true);
  const RewarmResult c = RunRewarm(shape, false);
  const double ratio =
      c.rewarm_seconds > 0 ? w.rewarm_seconds / c.rewarm_seconds : 0;
  printf("  %-6s rewarm %8.3f s   recovery %8.3f s   misses %llu\n", "warm",
         w.rewarm_seconds, w.recovery_seconds,
         static_cast<unsigned long long>(w.probe_misses));
  printf("  %-6s rewarm %8.3f s   recovery %8.3f s   misses %llu\n", "cold",
         c.rewarm_seconds, c.recovery_seconds,
         static_cast<unsigned long long>(c.probe_misses));
  printf("  warm/cold rewarm ratio: %.4f\n", ratio);
  if (json->enabled()) {
    BenchResult warm_row("recovery/warm");
    warm_row.Param("hot_sectors", shape.hot_sectors)
        .Value("rewarm_seconds", w.rewarm_seconds)
        .Value("recovery_seconds", w.recovery_seconds)
        .Value("probe_misses", w.probe_misses)
        .Value("rewarm_ratio", ratio);
    json->Add(std::move(warm_row));
    BenchResult cold_row("recovery/cold");
    cold_row.Param("hot_sectors", shape.hot_sectors)
        .Value("rewarm_seconds", c.rewarm_seconds)
        .Value("recovery_seconds", c.recovery_seconds)
        .Value("probe_misses", c.probe_misses);
    json->Add(std::move(cold_row));
  }
  return ratio;
}

}  // namespace
}  // namespace durassd

int main(int argc, char** argv) {
  durassd::WorkloadShape shape;
  shape.capacity_sectors = 32768;  // 128 MiB.
  shape.hot_sectors = 2048;        // 8 MiB hot set.
  shape.ops = 20000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--quick") == 0) {
      quick = true;
      shape.capacity_sectors = 16384;  // 64 MiB.
      // 4 MiB hot set: 1/16 of the capacity tier, the full run's ratio, so
      // the 5% tier (819 slots) cannot hold it and the 10% tier can.
      shape.hot_sectors = 1024;
      shape.ops = 4000;
    }
  }
  durassd::BenchJson json("ablation_tiered_cache",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  json.Config("capacity_sectors", shape.capacity_sectors);
  json.Config("hot_sectors", shape.hot_sectors);
  json.Config("ops", shape.ops);
  const double speedup = durassd::RunSweep(shape, &json);
  const double ratio = durassd::RunRewarmBench(shape, &json);
  // The acceptance claims, asserted here so a plain bench run (not just
  // bench_compare) fails loudly if either regresses to nonsense.
  if (speedup < 2.0) {
    std::fprintf(stderr, "FAIL: tiered speedup %.2fx < 2x raw HDD\n", speedup);
    return 1;
  }
  if (ratio >= 0.1) {
    std::fprintf(stderr, "FAIL: warm rewarm %.3f >= 10%% of cold\n", ratio);
    return 1;
  }
  return json.WriteFile() ? 0 : 1;
}
