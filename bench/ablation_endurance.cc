// Reproduces the endurance claim of Sec. 1 (fourth contribution): "the
// absolute amount of data written to flash memory is reduced more than 50%
// by avoiding redundant writes and by utilizing a small page size."
//
// Runs the same LinkBench work in the MySQL default configuration (double-
// write ON, 16KB pages) and the DuraSSD configuration (double-write OFF,
// 4KB pages), comparing bytes the host sent to the data device and bytes
// actually programmed into NAND.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_json.h"
#include "bench/db_bench_util.h"
#include "workloads/linkbench.h"

namespace durassd {
namespace {

struct WriteVolume {
  double host_gib;
  double nand_gib;
  double write_amp;
  uint64_t ecc_corrected;
  uint64_t retired_blocks;
};

// NAND fault knobs (all-zero by default: output identical to a fault-free
// build). Nonzero rates turn the run into an endurance-under-faults study.
FaultInjector::Options g_faults;

BenchJson* g_json = nullptr;

WriteVolume RunConfig(const char* label, bool dwb, uint32_t page_size,
                      uint64_t nodes, uint64_t requests) {
  DbRigConfig rc;
  rc.write_barriers = !dwb;  // Paired knobs: default vs DuraSSD deployment.
  rc.double_write = dwb;
  rc.page_size = page_size;
  rc.pool_bytes = nodes / 14 * kKiB;
  rc.faults = g_faults;
  DbRig rig = MakeDbRig(rc);

  LinkBench::Config lc;
  lc.num_nodes = nodes;
  lc.clients = 64;
  lc.requests = requests;
  LinkBench bench(rig.db.get(), lc);
  if (!bench.Load(rig.io).ok()) abort();

  const uint64_t host0 = rig.data_dev->stats().host_written_sectors;
  const uint64_t nand0 = rig.data_dev->flash().stats().programs;
  auto result = bench.Run();
  if (!result.ok()) abort();
  g_json->CountFailedOps(result->failed_ops);
  const double host_bytes =
      static_cast<double>(rig.data_dev->stats().host_written_sectors - host0) *
      rig.data_dev->sector_size();
  const double nand_bytes =
      static_cast<double>(rig.data_dev->flash().stats().programs - nand0) *
      rig.data_dev->config().geometry.page_size;
  if (g_json->enabled()) {
    BenchResult row(label);
    row.FailedOps(result->failed_ops)
        .Param("double_write", dwb)
        .Param("page_size", static_cast<uint64_t>(page_size))
        .Value("host_gib", host_bytes / kGiB)
        .Value("nand_gib", nand_bytes / kGiB)
        .Value("write_amplification",
               host_bytes > 0 ? nand_bytes / host_bytes : 0.0)
        .Engine(*rig.db)
        .Device(*rig.data_dev);
    g_json->Add(std::move(row));
  }
  return {host_bytes / kGiB, nand_bytes / kGiB,
          host_bytes > 0 ? nand_bytes / host_bytes : 0,
          rig.data_dev->ftl().stats().ecc_corrected,
          rig.data_dev->flash().stats().bad_blocks};
}

bool FaultsActive() {
  return g_faults.read_bit_flip_mean > 0 ||
         g_faults.read_bit_flip_per_erase > 0 ||
         g_faults.program_fail_rate > 0 || g_faults.erase_fail_rate > 0;
}

void RunComparison(uint64_t nodes, uint64_t requests) {
  printf("Ablation: flash write volume per %llu LinkBench requests\n",
         static_cast<unsigned long long>(requests));
  printf("  %-34s %10s %10s %8s\n", "configuration", "host GiB", "NAND GiB",
         "WA");
  const WriteVolume def =
      RunConfig("mysql_default_dwb_16k", true, 16 * kKiB, nodes, requests);
  printf("  %-34s %10.3f %10.3f %8.2f\n",
         "MySQL default (DWB on, 16KB)", def.host_gib, def.nand_gib,
         def.write_amp);
  const WriteVolume dura =
      RunConfig("durassd_nodwb_4k", false, 4 * kKiB, nodes, requests);
  printf("  %-34s %10.3f %10.3f %8.2f\n",
         "DuraSSD mode  (DWB off, 4KB)", dura.host_gib, dura.nand_gib,
         dura.write_amp);
  if (def.nand_gib > 0) {
    printf("  NAND write reduction: %.0f%% (paper claims > 50%%)\n",
           100.0 * (1.0 - dura.nand_gib / def.nand_gib));
  }
  if (FaultsActive()) {
    printf("  Fault handling (data device):\n");
    printf("  %-34s %14s %14s\n", "configuration", "ECC corrected",
           "retired blocks");
    printf("  %-34s %14llu %14llu\n", "MySQL default (DWB on, 16KB)",
           static_cast<unsigned long long>(def.ecc_corrected),
           static_cast<unsigned long long>(def.retired_blocks));
    printf("  %-34s %14llu %14llu\n", "DuraSSD mode  (DWB off, 4KB)",
           static_cast<unsigned long long>(dura.ecc_corrected),
           static_cast<unsigned long long>(dura.retired_blocks));
  }
}

}  // namespace
}  // namespace durassd

int main(int argc, char** argv) {
  uint64_t nodes = 100000;
  uint64_t requests = 60000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--quick") == 0) {
      quick = true;
      nodes = 30000;
      requests = 15000;
    } else if (strncmp(argv[i], "--read-bitflip-mean=", 20) == 0) {
      durassd::g_faults.read_bit_flip_mean = atof(argv[i] + 20);
    } else if (strncmp(argv[i], "--read-bitflip-per-erase=", 25) == 0) {
      durassd::g_faults.read_bit_flip_per_erase = atof(argv[i] + 25);
    } else if (strncmp(argv[i], "--program-fail-rate=", 20) == 0) {
      durassd::g_faults.program_fail_rate = atof(argv[i] + 20);
    } else if (strncmp(argv[i], "--erase-fail-rate=", 18) == 0) {
      durassd::g_faults.erase_fail_rate = atof(argv[i] + 18);
    } else if (strncmp(argv[i], "--fault-seed=", 13) == 0) {
      durassd::g_faults.seed = strtoull(argv[i] + 13, nullptr, 0);
    }
  }
  durassd::BenchJson json("ablation_endurance",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  json.Config("nodes", nodes).Config("requests", requests);
  durassd::g_json = &json;
  durassd::RunComparison(nodes, requests);
  return json.Finish();
}
