// Ablation (Sec. 1, tail latency): garbage-collection pressure vs read
// latency percentiles. Fills the device to different utilizations, then
// runs a mixed read/write workload and reports read p50/p99/max — GC on a
// busy plane can block a read for tens of milliseconds, the "read latency
// increased by a factor of 100" effect the paper cites.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_json.h"
#include "common/histogram.h"
#include "common/random.h"
#include "host/sim_file.h"
#include "sim/sim_executor.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

void RunOne(double fill_fraction, uint64_t ops, BenchJson* json) {
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.geometry = FlashGeometry::Tiny();
  cfg.geometry.blocks_per_plane = 64;
  cfg.geometry.pages_per_block = 32;
  cfg.over_provision = 0.10;
  cfg.store_data = false;
  // Small device cache so reads actually reach the NAND (and its GC-busy
  // planes) instead of the DRAM.
  cfg.write_buffer_sectors = 128;
  cfg.cache_capacity_sectors = 256;
  SsdDevice dev(cfg);

  const uint64_t sectors = dev.num_sectors();
  const uint64_t fill = static_cast<uint64_t>(fill_fraction * sectors);
  const std::string payload(cfg.sector_size, 'g');

  // Precondition: fill the logical space, then overwrite randomly to build
  // up invalid pages.
  SimTime t = 0;
  for (Lpn l = 0; l < fill; ++l) {
    t = dev.Write(t, l, payload).done;
  }
  Random rng(3);
  for (uint64_t i = 0; i < fill; ++i) {
    t = dev.Write(t, rng.Uniform(fill), payload).done;
  }

  Histogram reads;
  std::vector<Random> rngs;
  for (int c = 0; c < 8; ++c) rngs.emplace_back(100 + c);
  const auto fn = [&](uint32_t client, SimTime now) -> SimTime {
    Random& r = rngs[client];
    if (r.Bernoulli(0.5)) {
      const auto res = dev.Read(now, r.Uniform(fill), 1, nullptr);
      reads.Record(res.done - now);
      return res.done;
    }
    return dev.Write(now, r.Uniform(fill), payload).done;
  };
  SerialExecutor().Run(8, ops, t, fn);

  printf("  %6.0f%% %10llu %10.2f %10.2f %10.2f %10.2f\n",
         fill_fraction * 100,
         (unsigned long long)dev.ftl().stats().gc_runs,
         reads.Mean() / 1e6, static_cast<double>(reads.Percentile(50)) / 1e6,
         static_cast<double>(reads.Percentile(99)) / 1e6,
         static_cast<double>(reads.max()) / 1e6);
  if (json->enabled()) {
    BenchResult row("fill=" + std::to_string(fill_fraction));
    row.Param("fill_fraction", fill_fraction)
        .Value("gc_runs", dev.ftl().stats().gc_runs)
        .LatencyNs(reads)
        .Device(dev);
    json->Add(std::move(row));
  }
}

}  // namespace
}  // namespace durassd

int main(int argc, char** argv) {
  uint64_t ops = 30000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--quick") == 0) {
      quick = true;
      ops = 8000;
    }
  }
  durassd::BenchJson json("ablation_gc",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  json.Config("ops", ops);
  printf("Ablation: device fill level vs GC activity and read latency (ms)\n");
  printf("  %7s %10s %10s %10s %10s %10s\n", "fill", "gc_runs", "mean",
         "p50", "p99", "max");
  for (double f : {0.3, 0.6, 0.85, 0.95}) durassd::RunOne(f, ops, &json);
  return json.WriteFile() ? 0 : 1;
}
