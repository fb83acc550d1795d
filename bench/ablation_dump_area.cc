// Ablation (Sec. 3.4): power-loss dump size vs capacitor budget and
// recovery time. Sweeps how many sectors are written just before the power
// cut (`dirty_sectors`) and reports the pages dumped at the cut, whether
// the tantalum budget holds, and the replay time at reboot. The lazy
// destage has already drained part of those sectors by the cut, so the
// dumped pages, not `dirty_sectors`, set the recovery time.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_json.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

void RunOne(uint32_t dirty_sectors, BenchJson* json) {
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.geometry = FlashGeometry::Tiny();
  cfg.geometry.blocks_per_plane = 128;
  cfg.geometry.pages_per_block = 32;
  cfg.write_buffer_sectors = 4096;
  cfg.cache_capacity_sectors = 8192;
  cfg.dump_blocks_per_plane = 16;
  cfg.capacitor_budget_bytes = 8 * kMiB;
  SsdDevice dev(cfg);

  const std::string payload(cfg.sector_size, 'd');
  SimTime t = 0;
  SimTime first_ack = 0;
  for (uint32_t l = 0; l < dirty_sectors; ++l) {
    const auto r = dev.Write(t, l, payload);
    t = r.done;
    if (l == 0) first_ack = r.done;
  }
  // Cut immediately after the last ack: destages still in flight.
  dev.PowerCut(t + 1);
  const SimTime recovery = dev.PowerOn();

  printf("  %8u %12llu %10s %12.2f\n", dirty_sectors,
         (unsigned long long)dev.stats().dumped_pages,
         dev.stats().capacitor_overruns == 0 ? "ok" : "OVERRUN",
         static_cast<double>(recovery) / 1e6);
  (void)first_ack;
  if (json->enabled()) {
    BenchResult row("dirty_sectors=" + std::to_string(dirty_sectors));
    row.Param("dirty_sectors", static_cast<uint64_t>(dirty_sectors))
        .Value("dumped_pages", dev.stats().dumped_pages)
        .Value("capacitor_overruns", dev.stats().capacitor_overruns)
        .Value("recovery_ns", static_cast<int64_t>(recovery))
        .Device(dev);
    json->Add(std::move(row));
  }
}

}  // namespace
}  // namespace durassd

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--quick") == 0) quick = true;  // Already fast.
  }
  durassd::BenchJson json("ablation_dump_area",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  printf("Ablation: dirty cache at power loss vs dump size & recovery\n");
  printf("  %8s %12s %10s %12s\n", "dirty", "dumped_pgs", "budget",
         "recovery(ms)");
  for (uint32_t dirty : {16u, 64u, 256u, 1024u, 2048u}) {
    durassd::RunOne(dirty, &json);
  }
  return json.WriteFile() ? 0 : 1;
}
