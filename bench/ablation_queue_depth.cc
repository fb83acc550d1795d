// Ablation (Sec. 3.3): host queue-depth sweep, in both queue modes
// (ordered NCQ vs unordered).
//
// Two workloads:
//   - fiosim 4KB random write at iodepth 1..32 (a single submitter keeping
//     QD writes in flight and issuing the next one when the earliest
//     completes) — the device-level throughput the paper's
//     ordered-queue argument rests on: queue depth buys channel overlap,
//     and the ordered queue keeps durability = submission order at no
//     sustained cost.
//   - WAL-commit: QD concurrent committers on minibase (one Put per
//     transaction, commit-time log sync with barriers on). Concurrency
//     turns into group commit — committers share one device FLUSH — so
//     commits/s scales past the single-flush rate.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "db/database.h"
#include "host/sim_file.h"
#include "sim/sim_executor.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"
#include "workloads/fiosim.h"

namespace durassd {
namespace {

constexpr uint32_t kDepths[] = {1, 2, 4, 8, 16, 32};

SsdConfig DeviceConfig(bool ordered, bool store_data) {
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.ordered_queue = ordered;
  cfg.store_data = store_data;
  return cfg;
}

void RunFioSweep(uint64_t ops, BenchJson* json) {
  printf("Ablation: fiosim 4KB randwrite IOPS vs submission queue depth\n");
  printf("  %-10s %-4s %12s %14s %12s\n", "queue", "QD", "IOPS",
         "p99 lat(us)", "ack clamps");
  for (const bool ordered : {true, false}) {
    for (const uint32_t qd : kDepths) {
      SsdDevice dev(DeviceConfig(ordered, /*store_data=*/false));
      FioJob job;
      job.mode = FioJob::Mode::kRandWrite;
      job.iodepth = qd;
      job.ops = ops;
      job.write_barriers = false;  // The DuraSSD nobarrier deployment.
      job.working_set_bytes = 64 * kMiB;
      const FioResult r = RunFio(&dev, job);
      printf("  %-10s %-4u %12.0f %14.1f %12llu\n",
             ordered ? "ordered" : "unordered", qd, r.iops,
             static_cast<double>(r.latency.Percentile(0.99)) / 1000.0,
             static_cast<unsigned long long>(dev.stats().ordered_ack_clamps));
      if (json->enabled()) {
        BenchResult row(std::string(ordered ? "ordered" : "unordered") +
                        "/qd=" + std::to_string(qd));
        row.Param("workload", "fiosim_randwrite")
            .Param("ordered_queue", ordered)
            .Param("iodepth", static_cast<uint64_t>(qd))
            .Throughput(r.iops, "iops")
            .LatencyNs(r.latency)
            .Value("ordered_ack_clamps", dev.stats().ordered_ack_clamps)
            .Device(dev);
        json->Add(std::move(row));
      }
    }
  }
}

struct CommitResult {
  double commits_per_sec = 0;
  uint64_t acked = 0;
  uint64_t failed = 0;  ///< Transactions whose Begin, Put or Commit failed.
  Wal::Stats wal;
};

CommitResult RunCommitters(bool ordered, uint32_t clients, uint64_t ops) {
  CommitResult out;
  SsdConfig dc = DeviceConfig(ordered, /*store_data=*/true);
  SsdDevice data_dev(dc);
  SsdDevice log_dev(dc);
  SimFileSystem::Options fso;
  fso.write_barriers = true;  // Commit fsync issues a real FLUSH.
  SimFileSystem data_fs(&data_dev, fso);
  SimFileSystem log_fs(&log_dev, fso);

  IoContext io;
  Database::Options dbo;
  dbo.pool_bytes = 16 * kMiB;
  dbo.double_write = false;
  dbo.checkpoint_log_bytes = 64 * kMiB;
  auto opened = Database::Open(io, &data_fs, &log_fs, dbo);
  if (!opened.ok()) {
    fprintf(stderr, "Database::Open failed: %s\n",
            opened.status().ToString().c_str());
    out.failed = ops;
    return out;
  }
  std::unique_ptr<Database> db = std::move(*opened);
  auto tree = db->CreateTree(io, "t");
  if (!tree.ok()) {
    out.failed = ops;
    return out;
  }

  const std::string value(120, 'v');
  std::vector<uint32_t> op_count(clients, 0);
  // Per-operation IoContext seeded from the client's local clock (the
  // TPC-C/LinkBench idiom): commits whose local time falls inside another
  // commit's pending sync window ride it — group commit.
  const auto fn = [&](uint32_t client, SimTime now) -> SimTime {
    IoContext cio{now};
    const std::string key =
        "c" + std::to_string(client) + "-" + std::to_string(op_count[client]);
    op_count[client]++;
    auto txn = db->Begin(cio);
    if (txn.ok() && db->Put(cio, *txn, *tree, key, value).ok() &&
        db->Commit(cio, *txn).ok()) {
      out.acked++;
    } else {
      out.failed++;
    }
    return cio.now;
  };
  const SerialExecutor::RunResult r =
      SerialExecutor().Run(clients, ops, io.now, fn);
  out.commits_per_sec = r.OpsPerSecond();
  out.wal = db->wal_stats();
  return out;
}

void RunCommitSweep(uint64_t ops, BenchJson* json) {
  printf("\nAblation: WAL commits/s vs concurrent committers (group commit)\n");
  printf("  %-10s %-4s %12s %12s %12s %10s\n", "queue", "QD", "commits/s",
         "sync groups", "group rides", "max group");
  for (const bool ordered : {true, false}) {
    for (const uint32_t qd : kDepths) {
      const CommitResult r = RunCommitters(ordered, qd, ops);
      json->CountFailedOps(r.failed);
      printf("  %-10s %-4u %12.0f %12llu %12llu %10llu\n",
             ordered ? "ordered" : "unordered", qd, r.commits_per_sec,
             static_cast<unsigned long long>(r.wal.sync_groups),
             static_cast<unsigned long long>(r.wal.group_rides),
             static_cast<unsigned long long>(r.wal.max_group_commit));
      if (json->enabled()) {
        BenchResult row(std::string(ordered ? "ordered" : "unordered") +
                        "/committers=" + std::to_string(qd));
        row.FailedOps(r.failed)
            .Param("workload", "wal_commit")
            .Param("ordered_queue", ordered)
            .Param("committers", static_cast<uint64_t>(qd))
            .Throughput(r.commits_per_sec, "commits/s")
            .Value("acked_commits", r.acked)
            .Value("wal_syncs", r.wal.syncs)
            .Value("sync_groups", r.wal.sync_groups)
            .Value("group_rides", r.wal.group_rides)
            .Value("max_group_commit", r.wal.max_group_commit);
        json->Add(std::move(row));
      }
    }
  }
}

}  // namespace
}  // namespace durassd

int main(int argc, char** argv) {
  uint64_t fio_ops = 40000;
  uint64_t commit_ops = 4000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--quick") == 0) {
      quick = true;
      fio_ops = 8000;
      commit_ops = 800;
    }
  }
  durassd::BenchJson json("ablation_queue_depth",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  json.Config("fio_ops", fio_ops);
  json.Config("commit_ops", commit_ops);
  durassd::RunFioSweep(fio_ops, &json);
  durassd::RunCommitSweep(commit_ops, &json);
  return json.Finish();
}
