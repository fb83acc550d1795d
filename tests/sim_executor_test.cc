// Host threads never change virtual time: independent stacks, each driven
// by its own SerialExecutor loop, give the same schedules, results, trace
// and metrics whether RunParallel runs them on the calling thread or on
// several workers at once.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "db/database.h"
#include "host/sim_file.h"
#include "sim/run_parallel.h"
#include "sim/sim_executor.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

/// Deterministic pseudo-random service time for (client, now).
SimTime Service(uint32_t client, SimTime now, uint64_t salt) {
  uint64_t h = now ^ (client * 0x9E3779B97F4A7C15ull) ^ salt;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return 1 + (h % (3 * kMicrosecond));
}

/// Runs `fn`-style clients and records the exact resume schedule as a
/// string: "client@now->done;..." — the bit-identity artifact.
struct ScheduleProbe {
  std::string log;
  uint64_t salt;

  SerialExecutor::ClientFn Fn() {
    return [this](uint32_t client, SimTime now) {
      const SimTime done = now + Service(client, now, salt);
      log += std::to_string(client) + "@" + std::to_string(now) + "->" +
             std::to_string(done) + ";";
      return done;
    };
  }
};

TEST(RunParallelTest, RunsEveryJobOnceAndWaits) {
  // {jobs, threads}: more jobs than threads, no helpers, and more threads
  // than jobs.
  for (const auto& [jobs, threads] : {std::pair<uint32_t, uint32_t>{64, 4},
                                      {64, 1}, {64, 0}, {3, 8}}) {
    std::vector<std::atomic<int>> runs(jobs);
    RunParallel(jobs, threads, [&runs](uint32_t job) { runs[job]++; });
    // RunParallel returns only after the last job finished.
    for (uint32_t j = 0; j < jobs; ++j) {
      EXPECT_EQ(runs[j].load(), 1) << "threads=" << threads << " job=" << j;
    }
  }
  RunParallel(0, 4, [](uint32_t) { ADD_FAILURE() << "no job to run"; });
}

TEST(RunParallelTest, JobExceptionReachesCaller) {
  for (const uint32_t threads : {1u, 4u}) {
    EXPECT_THROW(RunParallel(8, threads,
                             [](uint32_t job) {
                               if (job == 5) throw std::runtime_error("5");
                             }),
                 std::runtime_error)
        << "threads=" << threads;
  }
}

/// Independent stacks: the per-stack schedules and results must not depend
/// on the host thread count.
TEST(SimExecutorTest, MultiShardDeterministicAcrossThreadCounts) {
  auto run_once = [](uint32_t threads, std::string* all_logs) {
    constexpr uint32_t kStacks = 4;
    std::vector<ScheduleProbe> probes(kStacks);
    std::vector<SerialExecutor::RunResult> results(kStacks);
    RunParallel(kStacks, threads, [&](uint32_t s) {
      probes[s].salt = 1000 + s;
      results[s] = SerialExecutor().Run(/*num_clients=*/3 + s,
                                        /*total_ops=*/150, 0, probes[s].Fn());
    });
    all_logs->clear();
    for (uint32_t s = 0; s < kStacks; ++s) {
      *all_logs += "[stack " + std::to_string(s) + " ops=" +
                   std::to_string(results[s].ops) + " makespan=" +
                   std::to_string(results[s].makespan) + "]" + probes[s].log;
    }
  };
  std::string golden;
  run_once(1, &golden);
  ASSERT_NE(golden.find("ops=150"), std::string::npos);
  for (const uint32_t threads : {2u, 4u, 8u}) {
    std::string log;
    run_once(threads, &log);
    EXPECT_EQ(golden, log) << "threads=" << threads;
  }
}

/// A minibase stack (SsdDevice -> SimFileSystem -> Database) with one
/// Tracer on the device and the database. Each client operation is one
/// put-and-commit transaction followed by a point read. The pool and the
/// checkpoint interval are small, so evictions and checkpoints happen.
struct TracedDbStack {
  Tracer tracer{1 << 20};
  std::unique_ptr<SsdDevice> dev;
  std::unique_ptr<SimFileSystem> fs;
  std::unique_ptr<Database> db;
  uint32_t tree = 0;
  std::vector<uint64_t> client_seq;

  TracedDbStack() {
    SsdConfig cfg = SsdConfig::DuraSsd();
    cfg.geometry = FlashGeometry::Tiny();
    cfg.geometry.blocks_per_plane = 128;
    cfg.geometry.pages_per_block = 32;
    dev = std::make_unique<SsdDevice>(cfg);
    dev->set_tracer(&tracer);
    SimFileSystem::Options fo;
    fo.write_barriers = false;
    fs = std::make_unique<SimFileSystem>(dev.get(), fo);
    Database::Options o;
    o.pool_bytes = 256 * kKiB;
    o.double_write = false;
    o.checkpoint_log_bytes = 256 * kKiB;
    IoContext io;
    auto opened = Database::Open(io, fs.get(), fs.get(), o);
    EXPECT_TRUE(opened.ok());
    db = std::move(*opened);
    db->set_tracer(&tracer);
    tree = *db->CreateTree(io, "t");
  }

  SimTime Op(uint32_t client, SimTime now) {
    if (client >= client_seq.size()) client_seq.resize(client + 1);
    const uint64_t n = client_seq[client]++;
    const std::string key =
        "c" + std::to_string(client) + "-" + std::to_string(n % 300);
    IoContext io;
    io.now = now;
    StatusOr<TxnId> txn = db->Begin(io);
    EXPECT_TRUE(txn.ok());
    EXPECT_TRUE(db->Put(io, *txn, tree, key, std::string(200, 'v')).ok());
    EXPECT_TRUE(db->Commit(io, *txn).ok());
    std::string value;
    EXPECT_TRUE(db->Get(io, tree, key, &value).ok());
    return io.now;
  }
};

/// Runs 16 clients x 3000 operations on a fresh stack, then checkpoints.
/// Returns the trace as JSONL and the device's and the database's metrics
/// snapshots.
std::string RunTracedStack() {
  TracedDbStack st;
  const SerialExecutor::RunResult r =
      SerialExecutor().Run(16, 3000, 0, [&st](uint32_t client, SimTime now) {
        return st.Op(client, now);
      });
  IoContext io;
  io.now = r.makespan;
  EXPECT_TRUE(st.db->Checkpoint(io).ok());
  EXPECT_EQ(st.tracer.dropped(), 0u);
  std::string out = "ops=" + std::to_string(r.ops) +
                    " makespan=" + std::to_string(r.makespan) + "\n";
  st.tracer.AppendJsonl(&out);
  out += st.dev->metrics().ToJson() + "\n" + st.db->metrics().ToJson();
  return out;
}

// The trace and every metric, histograms included, are the same whether
// the stack ran on the calling thread or on one of four workers running
// four such stacks at once: each stack records into its own trace ring in
// virtual-time order, and the workers share nothing.
TEST(SimExecutorTest, TracedStackIdenticalOnCallerAndConcurrentWorkers) {
  const std::string golden = RunTracedStack();
  ASSERT_NE(golden.find("cmd_start"), std::string::npos);
  ASSERT_NE(golden.find("txn_commit"), std::string::npos);

  std::vector<std::string> got(4);
  RunParallel(4, 4, [&got](uint32_t job) { got[job] = RunTracedStack(); });
  for (uint32_t job = 0; job < got.size(); ++job) {
    EXPECT_TRUE(got[job] == golden) << "stack " << job << " diverged";
  }
}

}  // namespace
}  // namespace durassd
