// Ablation (Sec. 2.3): internal parallelism sweep. The paper's example
// geometry gives a theoretical parallelism of 256 (8 channels x 4 packages
// x 4 chips x 2 planes); this sweep varies channels and planes to show how
// sustained random-write throughput tracks the plane count once the cache
// stops hiding the media.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_json.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"
#include "workloads/fiosim.h"

namespace durassd {
namespace {

double RunOne(uint32_t channels, uint32_t planes_per_chip, uint64_t ops,
              BenchJson* json) {
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.geometry.channels = channels;
  cfg.geometry.planes_per_chip = planes_per_chip;
  // Keep capacity roughly constant so GC pressure is comparable.
  cfg.geometry.blocks_per_plane = 96 * 16 / (channels * planes_per_chip);
  // Open up the host interface so the media, not the firmware pipeline or
  // the bus, is the bottleneck under the 128-thread burst (a SATA link
  // serializes 4K writes at ~10us each and would flatten the sweep past
  // 64 planes).
  cfg.fw_parallelism = 32;
  cfg.fw_write_base = 10 * kMicrosecond;
  cfg.bus_write_bytes_per_ns = 3.2;  // ~PCIe Gen3 x4.
  cfg.bus_cmd_overhead = 1 * kMicrosecond;
  cfg.write_buffer_sectors = 512;
  cfg.store_data = false;
  SsdDevice dev(cfg);
  FioJob job;
  job.threads = 128;
  job.ops = ops;
  job.write_barriers = false;
  job.working_set_bytes = 64 * kMiB;
  const FioResult r = RunFio(&dev, job);
  if (json->enabled()) {
    BenchResult row{"channels=" + std::to_string(channels) +
                    "/planes=" + std::to_string(planes_per_chip) + "/lazy"};
    row.Param("channels", static_cast<uint64_t>(channels))
        .Param("planes_per_chip", static_cast<uint64_t>(planes_per_chip))
        .Param("total_planes",
               static_cast<uint64_t>(cfg.geometry.total_planes()))
        .Param("lazy_destage", true)
        .Throughput(r.iops, "iops")
        .LatencyNs(r.latency)
        .Device(dev);
    json->Add(std::move(row));
  }
  return r.iops;
}

void RunSweep(uint64_t ops, BenchJson* json) {
  printf("Ablation: internal parallelism vs sustained 4KB write IOPS\n");
  printf("  (lazy batched destage, idle-aware planes, multi-plane)\n");
  printf("  %-10s %-8s %-8s %14s\n", "channels", "planes", "total", "iops");
  const struct {
    uint32_t channels, planes_per_chip;
  } kConfigs[] = {{1, 1}, {2, 1}, {4, 1}, {4, 2}, {8, 2}, {16, 2}};
  for (const auto& c : kConfigs) {
    const double iops = RunOne(c.channels, c.planes_per_chip, ops, json);
    printf("  %-10u %-8u %-8u %14.0f\n", c.channels, c.planes_per_chip,
           c.channels * 4 * 4 * c.planes_per_chip, iops);
  }
}

}  // namespace
}  // namespace durassd

int main(int argc, char** argv) {
  uint64_t ops = 40000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--quick") == 0) {
      quick = true;
      ops = 8000;
    }
  }
  durassd::BenchJson json("ablation_parallelism",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  json.Config("ops", ops);
  durassd::RunSweep(ops, &json);
  return json.WriteFile() ? 0 : 1;
}
