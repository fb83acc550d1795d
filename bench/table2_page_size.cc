// Reproduces Table 2: "Effect of page size on IOPS" for (a) DuraSSD and
// (b) the disk drive, across 16/8/4 KB block sizes.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "ssd/device_factory.h"
#include "workloads/fiosim.h"

namespace durassd {
namespace {

constexpr uint32_t kPageSizes[] = {16 * kKiB, 8 * kKiB, 4 * kKiB};

BenchJson* g_json = nullptr;

double RunOne(const char* label, DeviceModel model, FioJob::Mode mode,
              uint32_t block, uint32_t threads, uint32_t fsync_every,
              bool barriers, uint64_t ops) {
  auto device = MakeDevice(model, /*cache_on=*/true);
  FioJob job;
  job.mode = mode;
  job.block_bytes = block;
  job.threads = threads;
  job.ops = ops;
  job.fsync_every = fsync_every;
  job.write_barriers = barriers;
  const FioResult r = RunFio(device.get(), job);
  if (g_json != nullptr && g_json->enabled()) {
    BenchResult row(std::string(label) + "/block=" +
                    std::to_string(block / kKiB) + "KB");
    row.Param("block_bytes", static_cast<uint64_t>(block))
        .Param("threads", static_cast<uint64_t>(threads))
        .Param("fsync_every", static_cast<uint64_t>(fsync_every))
        .Param("write_barriers", barriers)
        .Throughput(r.iops, "iops")
        .LatencyNs(r.latency);
    g_json->Add(std::move(row));
  }
  return r.iops;
}

void Row(const char* label, const std::vector<double>& v) {
  printf("  %-28s %8.0f %8.0f %8.0f\n", label, v[0], v[1], v[2]);
}

void RunTable(uint64_t ops) {
  printf("Table 2: random IOPS vs page size\n");
  printf("  %-28s %8s %8s %8s\n", "", "16KB", "8KB", "4KB");

  printf(" (a) DuraSSD\n");
  std::vector<double> r;
  for (uint32_t b : kPageSizes) {
    r.push_back(RunOne("durassd_read_128t", DeviceModel::kDuraSsd,
                       FioJob::Mode::kRandRead, b, 128, 0, true, 4 * ops));
  }
  Row("Read-only (128 threads)", r);
  r.clear();
  for (uint32_t b : kPageSizes) {
    r.push_back(RunOne("durassd_write_1fsync", DeviceModel::kDuraSsd,
                       FioJob::Mode::kRandWrite, b, 1, 1, true, ops / 8));
  }
  Row("Write-only (1-fsync)", r);
  r.clear();
  for (uint32_t b : kPageSizes) {
    r.push_back(RunOne("durassd_write_256fsync", DeviceModel::kDuraSsd,
                       FioJob::Mode::kRandWrite, b, 1, 256, true, ops));
  }
  Row("Write-only (256-fsync)", r);
  r.clear();
  for (uint32_t b : kPageSizes) {
    r.push_back(RunOne("durassd_write_128t_nobarrier", DeviceModel::kDuraSsd,
                       FioJob::Mode::kRandWrite, b, 128, 0, false, 4 * ops));
  }
  Row("Write-only (128 no-barrier)", r);

  printf(" (b) Harddisk\n");
  r.clear();
  for (uint32_t b : kPageSizes) {
    r.push_back(RunOne("hdd_read_128t", DeviceModel::kHdd,
                       FioJob::Mode::kRandRead, b, 128, 0, true, ops / 4));
  }
  Row("Read-only (128 threads)", r);
  r.clear();
  for (uint32_t b : kPageSizes) {
    r.push_back(RunOne("hdd_write_128t", DeviceModel::kHdd,
                       FioJob::Mode::kRandWrite, b, 128, 0, true, ops / 4));
  }
  Row("Write-only (128 threads)", r);
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
  durassd::BenchJson json("table2_page_size",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  json.Config("ops", ops);
  durassd::g_json = &json;
  durassd::RunTable(ops);
  return json.WriteFile() ? 0 : 1;
}
