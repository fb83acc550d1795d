// Ablation (DESIGN.md §12): host-parallelism sweep over independent
// stacks. Four engine stacks (each a full device -> file system -> WAL ->
// buffer pool -> B+-tree stack) run the same deterministic upsert
// workload, each through its own serial client loop; the sweep varies only
// the number of HOST threads RunParallel may use. Virtual-time results
// (ops, makespan) and the stacks' final contents (`state_crc32c`: CRC32C
// over a full scan of every tree) must be identical across the sweep: the
// bench exits 1 when any row differs from the 1-thread row. Wall-clock
// throughput (sim_ops_per_wall_second) is the thing host parallelism is
// allowed to change. Wall-clock is only emitted in full runs: under --quick
// (CI) the workload is too small for stable timing, and the regression
// guard would flap on scheduler noise.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_json.h"
#include "common/crc32c.h"
#include "db/btree.h"
#include "db/buffer_pool.h"
#include "db/wal.h"
#include "host/sim_file.h"
#include "sim/run_parallel.h"
#include "sim/sim_executor.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

class BumpAllocator : public PageAllocator {
 public:
  StatusOr<PageId> AllocatePage(IoContext& io) override {
    (void)io;
    return next_++;
  }

 private:
  PageId next_ = 1;
};

/// One engine stack, driven by its own clients.
struct EngineStack {
  std::unique_ptr<SsdDevice> dev;
  std::unique_ptr<SimFileSystem> fs;
  std::unique_ptr<Wal> wal;
  std::unique_ptr<BufferPool> pool;
  BumpAllocator alloc;
  std::unique_ptr<BTree> tree;
  uint64_t op_seq = 0;

  explicit EngineStack(uint32_t seed) {
    SsdConfig cfg = SsdConfig::DuraSsd();
    cfg.geometry = FlashGeometry::Tiny();
    cfg.geometry.blocks_per_plane = 128;
    cfg.geometry.pages_per_block = 32;
    dev = std::make_unique<SsdDevice>(cfg);
    fs = std::make_unique<SimFileSystem>(dev.get(), SimFileSystem::Options{});
    wal = std::make_unique<Wal>(fs->Open("wal"), Wal::Options{});
    BufferPool::Options popts;
    popts.pool_bytes = 2 * kMiB;
    popts.page_size = 4 * kKiB;
    pool = std::make_unique<BufferPool>(fs->Open("data"), wal.get(), nullptr,
                                        popts);
    IoContext io;
    MutationCtx m{kInvalidLsn, 0, nullptr};
    auto root = BTree::Create(io, pool.get(), &alloc, m);
    tree = std::make_unique<BTree>(pool.get(), &alloc, *root);
    op_seq = seed * 1000003ull;
  }

  /// One client op: an upsert over a 4K-key space (real page churn), with
  /// a 5us host-CPU floor so buffer-cache hits still consume virtual time.
  SimTime Op(SimTime now) {
    IoContext io;
    io.now = now;
    MutationCtx m{kInvalidLsn, 0, nullptr};
    const uint64_t k = op_seq++ % 4096;
    std::string key = "key-" + std::to_string(k);
    std::string value = "v" + std::to_string(op_seq) + std::string(90, 'x');
    (void)tree->Put(io, m, key, value);
    const SimTime floor = now + 5 * kMicrosecond;
    return io.now > floor ? io.now : floor;
  }

  /// Extends `crc` with every key and value of the tree, in key order,
  /// read at virtual time `now`.
  uint32_t Digest(uint32_t crc, SimTime now) {
    IoContext io;
    io.now = now;
    std::vector<std::pair<std::string, std::string>> kvs;
    if (!tree->ScanFrom(io, "", std::numeric_limits<size_t>::max(), &kvs)
             .ok()) {
      abort();
    }
    for (const auto& [key, value] : kvs) {
      crc = Crc32c(key.data(), key.size() + 1, crc);  // With the NUL.
      crc = Crc32c(value.data(), value.size() + 1, crc);
    }
    return crc;
  }
};

struct SweepPoint {
  uint64_t sim_ops = 0;
  SimTime makespan = 0;
  uint32_t state_crc32c = 0;
  double wall_seconds = 0;
};

SweepPoint RunOnce(uint32_t threads, uint64_t ops_per_stack) {
  constexpr uint32_t kStacks = 4;
  std::vector<std::unique_ptr<EngineStack>> stacks;
  for (uint32_t s = 0; s < kStacks; ++s) {
    stacks.push_back(std::make_unique<EngineStack>(s + 1));
  }
  std::vector<SerialExecutor::RunResult> results(kStacks);
  const auto t0 = std::chrono::steady_clock::now();
  RunParallel(kStacks, threads, [&](uint32_t s) {
    EngineStack* e = stacks[s].get();
    results[s] = SerialExecutor().Run(/*num_clients=*/4, ops_per_stack,
                                      /*start_time=*/0,
                                      [e](uint32_t client, SimTime now) {
                                        (void)client;
                                        return e->Op(now);
                                      });
  });
  const auto t1 = std::chrono::steady_clock::now();

  SweepPoint p;
  for (uint32_t s = 0; s < kStacks; ++s) {
    p.sim_ops += results[s].ops;
    p.makespan = std::max(p.makespan, results[s].makespan);
    p.state_crc32c = stacks[s]->Digest(p.state_crc32c, results[s].makespan);
  }
  p.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return p;
}

/// Returns false when any point's virtual-time results or final state
/// differ from the 1-thread point's.
bool RunSweep(uint64_t ops_per_stack, bool quick, BenchJson* json) {
  printf("Ablation: host threads vs wall-clock throughput (independent "
         "stacks)\n");
  printf("  4 engine stacks x %llu ops; virtual-time results and final\n",
         static_cast<unsigned long long>(ops_per_stack));
  printf("  state must be identical across the sweep\n");
  printf("  %-8s %12s %14s %10s %14s %10s\n", "threads", "sim_ops",
         "makespan_ms", "state_crc", "wall_ms", "speedup");

  bool identical = true;
  double base_wall = 0;
  SweepPoint first;
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    const SweepPoint p = RunOnce(threads, ops_per_stack);
    if (threads == 1) {
      base_wall = p.wall_seconds;
      first = p;
    } else if (p.sim_ops != first.sim_ops || p.makespan != first.makespan ||
               p.state_crc32c != first.state_crc32c) {
      identical = false;
      fprintf(stderr,
              "DETERMINISM VIOLATION: threads=%u diverged (ops %llu vs "
              "%llu, makespan %lld vs %lld, state_crc32c %08x vs %08x)\n",
              threads, static_cast<unsigned long long>(p.sim_ops),
              static_cast<unsigned long long>(first.sim_ops),
              static_cast<long long>(p.makespan),
              static_cast<long long>(first.makespan), p.state_crc32c,
              first.state_crc32c);
    }
    const double speedup =
        p.wall_seconds > 0 ? base_wall / p.wall_seconds : 0.0;
    printf("  %-8u %12llu %14.2f   %08x %14.1f %9.2fx\n", threads,
           static_cast<unsigned long long>(p.sim_ops),
           static_cast<double>(p.makespan) / kMillisecond, p.state_crc32c,
           p.wall_seconds * 1e3, speedup);

    if (json->enabled()) {
      BenchResult row{"threads=" + std::to_string(threads)};
      row.Param("host_threads", static_cast<uint64_t>(threads))
          .Param("shards", static_cast<uint64_t>(4))
          .Param("ops_per_shard", ops_per_stack)
          // Virtual-time throughput: deterministic, safe to guard per-row.
          .Throughput(static_cast<double>(p.sim_ops) /
                          (static_cast<double>(p.makespan) / kSecond),
                      "sim_ops_per_sim_second")
          .Value("sim_makespan_ns", static_cast<uint64_t>(p.makespan))
          .Value("state_crc32c", static_cast<uint64_t>(p.state_crc32c));
      if (!quick) {
        // Wall-clock scaling: guarded (higher is better), full runs only —
        // quick-mode workloads are too small for stable wall timing.
        row.Value("sim_ops_per_wall_second",
                  p.wall_seconds > 0
                      ? static_cast<double>(p.sim_ops) / p.wall_seconds
                      : 0.0);
      }
      json->Add(std::move(row));
    }
  }
  return identical;
}

}  // namespace
}  // namespace durassd

int main(int argc, char** argv) {
  uint64_t ops_per_stack = 30000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--quick") == 0) {
      quick = true;
      ops_per_stack = 4000;
    }
  }
  durassd::BenchJson json("ablation_host_parallelism",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  json.Config("ops_per_shard", ops_per_stack);
  if (!durassd::RunSweep(ops_per_stack, quick, &json)) return 1;
  return json.WriteFile() ? 0 : 1;
}
