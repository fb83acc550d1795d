// Reproduces Table 1: "Effect of fsync and flush cache on 4KB page size
// random write IOPS" — four devices (HDD, SSD-A, SSD-B, DuraSSD), storage
// cache OFF/ON, fsync every {1,4,8,16,32,64,128,256,never} writes, plus the
// DuraSSD "ON (NoBarrier)" row. Single fio thread, 4KB random writes.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "ssd/device_factory.h"
#include "workloads/fiosim.h"

namespace durassd {
namespace {

constexpr uint32_t kFsyncSteps[] = {1, 4, 8, 16, 32, 64, 128, 256, 0};

void PrintRow(const char* label, const std::vector<double>& iops) {
  printf("  %-14s", label);
  for (double v : iops) printf(" %8.0f", v);
  printf("\n");
}

std::vector<double> RunSweep(DeviceModel model, const char* device_name,
                             bool cache_on, bool barriers, uint64_t ops,
                             BenchJson* json) {
  std::vector<double> out;
  for (uint32_t every : kFsyncSteps) {
    auto device = MakeDevice(model, cache_on);
    FioJob job;
    job.mode = FioJob::Mode::kRandWrite;
    job.block_bytes = 4 * kKiB;
    job.threads = 1;
    job.ops = ops;
    job.fsync_every = every;
    job.write_barriers = barriers;
    const FioResult r = RunFio(device.get(), job);
    out.push_back(r.iops);
    if (json->enabled()) {
      BenchResult row(std::string(device_name) + "/" +
                      (cache_on ? "cache_on" : "cache_off") +
                      (barriers ? "" : "/no_barrier") + "/fsync_every=" +
                      std::to_string(every));
      row.Param("device", device_name)
          .Param("cache_on", cache_on)
          .Param("write_barriers", barriers)
          .Param("fsync_every", static_cast<uint64_t>(every))
          .Throughput(r.iops, "iops")
          .LatencyNs(r.latency);
      json->Add(std::move(row));
    }
  }
  return out;
}

void RunTable(uint64_t ops, BenchJson* json) {
  printf("Table 1: 4KB random write IOPS vs fsync frequency\n");
  printf("  %-14s", "writes/fsync:");
  for (uint32_t every : kFsyncSteps) {
    if (every == 0) {
      printf(" %8s", "no-fsync");
    } else {
      printf(" %8u", every);
    }
  }
  printf("\n");

  const struct {
    DeviceModel model;
    const char* name;
  } kDevices[] = {
      {DeviceModel::kHdd, "HDD"},
      {DeviceModel::kSsdA, "SSD-A"},
      {DeviceModel::kSsdB, "SSD-B"},
      {DeviceModel::kDuraSsd, "DuraSSD"},
  };
  for (const auto& dev : kDevices) {
    printf(" %s\n", dev.name);
    const uint64_t dev_ops = dev.model == DeviceModel::kHdd ? ops / 4 : ops;
    PrintRow("cache OFF", RunSweep(dev.model, dev.name, /*cache_on=*/false,
                                   /*barriers=*/true, dev_ops, json));
    PrintRow("cache ON", RunSweep(dev.model, dev.name, /*cache_on=*/true,
                                  /*barriers=*/true, dev_ops, json));
    if (dev.model == DeviceModel::kDuraSsd) {
      PrintRow("ON (NoBarrier)",
               RunSweep(dev.model, dev.name, /*cache_on=*/true,
                        /*barriers=*/false, ops, json));
    }
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
      ops = 4000;
    }
  }
  durassd::BenchJson json("table1_fsync_iops",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  json.Config("ops", ops).Config("block_bytes", uint64_t{4 * durassd::kKiB});
  durassd::RunTable(ops, &json);
  return json.WriteFile() ? 0 : 1;
}
