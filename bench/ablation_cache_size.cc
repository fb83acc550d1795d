// Ablation (Sec. 2.3, "magnified write-back effect"): random-write IOPS as
// the device write buffer shrinks/grows. The paper argues a write buffer of
// ~0.1% of storage absorbs bursts; this sweep shows where the knee sits.
//
// The workload hammers a hot 4 MiB working set through an open host
// interface, so the media (16 planes x tPROG) is the bottleneck and the
// write buffer is what stands between the host and it. With the lazy
// destage scheduler, sectors rewritten while still pending are absorbed in
// the buffer and never cost a NAND program: the larger the buffer, the more
// of the hot set stays pending and the further sustained IOPS climbs above
// the raw media ceiling.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_json.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"
#include "workloads/fiosim.h"

namespace durassd {
namespace {

SsdConfig SweepConfig(uint32_t sectors) {
  SsdConfig cfg = SsdConfig::DuraSsd();
  // Media-bound geometry (16 planes): bursts outrun the destage rate, so
  // the buffer size decides how much of a burst is absorbed.
  cfg.geometry.channels = 2;
  cfg.geometry.packages_per_channel = 2;
  cfg.geometry.chips_per_package = 2;
  cfg.geometry.planes_per_chip = 2;
  cfg.geometry.blocks_per_plane = 512;
  // Open up the host interface so the media, not the firmware pipeline or
  // the bus, limits the 128-thread burst (same idiom as
  // ablation_parallelism, plus an NVMe-class link: a SATA bus serializes
  // 4K writes at ~10us each and would cap the sweep near 100 kiops).
  cfg.fw_parallelism = 32;
  cfg.fw_write_base = 10 * kMicrosecond;
  cfg.bus_write_bytes_per_ns = 3.2;  // ~PCIe Gen3 x4.
  cfg.bus_cmd_overhead = 1 * kMicrosecond;
  cfg.write_buffer_sectors = sectors;
  cfg.cache_capacity_sectors = sectors * 2;
  // Drain on frame pressure / idle / flush only: the buffer itself is the
  // destage batch, so pending occupancy (and with it the overwrite
  // absorption rate) scales with the buffer size under sweep.
  cfg.destage_batch_pages = sectors;
  cfg.store_data = false;
  return cfg;
}

void RunRow(const std::string& label, uint32_t sectors, uint64_t ops,
            BenchJson* json) {
  SsdDevice dev(SweepConfig(sectors));
  FioJob job;
  job.threads = 128;
  job.fsync_every = 0;
  job.ops = ops;  // A finite burst; larger buffers absorb more of it.
  job.write_barriers = false;
  job.working_set_bytes = 4 * kMiB;  // Hot set: 1024 4K sectors.
  const FioResult r = RunFio(&dev, job);
  const SsdDevice::Stats& st = dev.stats();
  printf("  %-22s %10.0f %12.0f %12.0f %10llu %10llu %10llu\n",
         label.c_str(), r.iops,
         static_cast<double>(r.latency.Percentile(50)) / 1e3,
         static_cast<double>(r.latency.Percentile(99)) / 1e3,
         static_cast<unsigned long long>(st.destage_absorbed),
         static_cast<unsigned long long>(st.write_stalls),
         static_cast<unsigned long long>(
             dev.flash().stats().multi_plane_programs));
  if (json->enabled()) {
    BenchResult row{label};
    row.Param("write_buffer_sectors", static_cast<uint64_t>(sectors))
        .Param("lazy_destage", true)
        .Throughput(r.iops, "iops")
        .LatencyNs(r.latency)
        .Device(dev);
    json->Add(std::move(row));
  }
}

void RunSweep(uint64_t ops, BenchJson* json) {
  printf("Ablation: device write-buffer size vs burst absorption\n");
  printf("  %-22s %10s %12s %12s %10s %10s %10s\n", "buffer", "iops",
         "lat p50(us)", "lat p99(us)", "absorbed", "stalls", "mp_progs");
  for (uint32_t sectors : {64u, 256u, 1024u, 2048u, 4096u}) {
    RunRow("write_buffer_sectors=" + std::to_string(sectors), sectors, ops,
           json);
  }
}

}  // namespace
}  // namespace durassd

int main(int argc, char** argv) {
  uint64_t ops = 20000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--quick") == 0) {
      quick = true;
      ops = 5000;
    }
  }
  durassd::BenchJson json("ablation_cache_size",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  json.Config("ops", ops);
  durassd::RunSweep(ops, &json);
  return json.WriteFile() ? 0 : 1;
}
