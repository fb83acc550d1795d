// Durability-mode ablation: the three commit disciplines a database can run
// on top of this device family, measured on the two paths that dominate
// OLTP durability cost:
//
//   volatile+flush      — commodity SSD (SSD-A), barriers ON: every commit
//                         fsync journals metadata and drains the volatile
//                         cache to NAND (the safe-but-slow deployment).
//   durable+ordered-ncq — DuraSSD, nobarrier mount: the capacitor-backed
//                         cache makes every acknowledged write durable, so
//                         fsync degenerates to syscall overhead (the
//                         paper's deployment, ordering from the NCQ clamp).
//   barrier             — DuraSSD, barrier-enabled I/O stack (Won et al.):
//                         fsync-for-ordering is replaced by a BARRIER
//                         submission sealing an epoch; durability still
//                         comes from the durable cache at write-ack time.
//
// Sections: fio fsync-heavy random-write IOPS (Table 1 methodology,
// fsync_every=1) and a WAL commit loop (append + make-durable per commit).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_json.h"
#include "db/io_context.h"
#include "db/wal.h"
#include "host/durability_mode.h"
#include "host/sim_file.h"
#include "ssd/device_factory.h"
#include "workloads/fiosim.h"

namespace durassd {
namespace {

constexpr DurabilityMode kModes[] = {DurabilityMode::kVolatileFlush,
                                     DurabilityMode::kDurableOrderedNcq,
                                     DurabilityMode::kBarrier};

double RunFsyncIops(DurabilityMode mode, uint64_t ops, BenchJson* json) {
  auto device = MakeDeviceForDurabilityMode(mode);
  FioJob job;
  job.mode = FioJob::Mode::kRandWrite;
  job.block_bytes = 4 * kKiB;
  job.threads = 1;
  job.ops = ops;
  job.fsync_every = 1;
  job.write_barriers = WriteBarriersForDurabilityMode(mode);
  job.barrier_sync = mode == DurabilityMode::kBarrier;
  const FioResult r = RunFio(device.get(), job);
  if (json->enabled()) {
    BenchResult row(std::string("fsync_iops/") + DurabilityModeName(mode));
    row.Param("mode", DurabilityModeName(mode))
        .Param("fsync_every", static_cast<uint64_t>(1))
        .Throughput(r.iops, "iops")
        .LatencyNs(r.latency);
    json->Add(std::move(row));
  }
  return r.iops;
}

double RunWalCommits(DurabilityMode mode, uint64_t commits, BenchJson* json) {
  auto device = MakeDeviceForDurabilityMode(mode);
  SimFileSystem::Options fso;
  fso.write_barriers = WriteBarriersForDurabilityMode(mode);
  SimFileSystem fs(device.get(), fso);
  MetricsRegistry metrics;
  Wal::Options wo;
  wo.metrics = &metrics;
  wo.durability_mode = mode;
  Wal wal(fs.Open("wal"), wo);
  IoContext io;

  Histogram latency;
  WalRecord rec;
  rec.type = WalRecordType::kCommit;
  rec.key = std::string(1, 'k');  // Not "k": GCC 12 -Wrestrict misfires.
  rec.value = std::string(200, 'v');  // A small-transaction redo payload.
  for (uint64_t i = 0; i < commits; ++i) {
    rec.txn = i + 1;
    const SimTime start = io.now;
    const Lsn lsn = wal.Append(rec);
    if (!wal.SyncTo(io, lsn).ok()) abort();
    latency.Record(io.now - start);
  }
  const double per_sec =
      io.now <= 0 ? 0
                  : static_cast<double>(commits) /
                        (static_cast<double>(io.now) / kSecond);
  if (json->enabled()) {
    BenchResult row(std::string("wal_commit/") + DurabilityModeName(mode));
    row.Param("mode", DurabilityModeName(mode))
        .Param("commits", commits)
        .Throughput(per_sec, "commit/s")
        .LatencyNs(latency)
        .Value("barrier_commits", wal.stats().barrier_commits)
        .Value("syncs", wal.stats().syncs);
    json->Add(std::move(row));
  }
  return per_sec;
}

void Run(uint64_t fio_ops, uint64_t commits, BenchJson* json) {
  printf("Ablation: durability mode (commit discipline x device)\n");
  printf("  %-24s %14s %14s\n", "mode", "fsync IOPS", "WAL commit/s");
  double iops[3] = {0, 0, 0};
  double cps[3] = {0, 0, 0};
  for (int m = 0; m < 3; ++m) {
    iops[m] = RunFsyncIops(kModes[m], fio_ops, json);
    cps[m] = RunWalCommits(kModes[m], commits, json);
    printf("  %-24s %14.0f %14.0f\n", DurabilityModeName(kModes[m]), iops[m],
           cps[m]);
  }
  printf("  barrier vs volatile+flush: %.1fx IOPS, %.1fx WAL commit/s\n",
         iops[0] > 0 ? iops[2] / iops[0] : 0,
         cps[0] > 0 ? cps[2] / cps[0] : 0);
}

}  // namespace
}  // namespace durassd

int main(int argc, char** argv) {
  uint64_t fio_ops = 20000;
  uint64_t commits = 20000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--quick") == 0) {
      quick = true;
      fio_ops = 5000;
      commits = 5000;
    }
  }
  durassd::BenchJson json("ablation_durability_mode",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  json.Config("fio_ops", fio_ops).Config("commits", commits);
  durassd::Run(fio_ops, commits, &json);
  return json.WriteFile() ? 0 : 1;
}
