// SimExecutor contract tests: the serial loop and the sharded epoch-barrier
// engine must produce identical schedules wherever the contract says so
// (1 shard == serial, any epoch width, any host thread count), multi-shard
// runs must be deterministic in the host thread count, and cross-shard
// posts must arrive in (delivery time, sender, sequence) order with the
// one-epoch visibility clamp. A full engine stack driven through either
// executor must leave the same trace and metrics behind.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/trace.h"
#include "db/database.h"
#include "host/sim_file.h"
#include "sim/sim_executor.h"
#include "sim/thread_pool.h"
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

  SimExecutor::ClientFn Fn() {
    return [this](uint32_t client, SimTime now) {
      const SimTime done = now + Service(client, now, salt);
      log += std::to_string(client) + "@" + std::to_string(now) + "->" +
             std::to_string(done) + ";";
      return done;
    };
  }
};

TEST(ThreadPoolTest, RunBatchExecutesEverythingAndWaits) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> batch;
  for (int i = 0; i < 64; ++i) {
    batch.push_back([&count] { count.fetch_add(1); });
  }
  pool.RunBatch(batch);
  EXPECT_EQ(count.load(), 64);  // RunBatch is a barrier.
  pool.RunBatch(batch);
  EXPECT_EQ(count.load(), 128);
}

TEST(ThreadPoolTest, ScheduleAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(SimExecutorTest, SerialMatchesShardedSingleShardAnyThreads) {
  for (const uint32_t threads : {1u, 2u, 4u}) {
    for (const SimTime epoch : {kMicrosecond, 100 * kMicrosecond,
                                10 * kMillisecond}) {
      SimExecutor::Options opts;
      opts.think_time = 500;
      ScheduleProbe serial{.log = "", .salt = 42};
      SerialExecutor se(opts);
      const auto sr = se.Run(7, 200, 1000, serial.Fn());

      opts.epoch_ns = epoch;
      opts.host_threads = threads;
      ScheduleProbe sharded{.log = "", .salt = 42};
      ShardedExecutor xe(opts, {});
      const auto xr = xe.Run(7, 200, 1000, sharded.Fn());

      EXPECT_EQ(sr.ops, xr.ops) << "threads=" << threads;
      EXPECT_EQ(sr.makespan, xr.makespan)
          << "threads=" << threads << " epoch=" << epoch;
      EXPECT_EQ(serial.log, sharded.log)
          << "threads=" << threads << " epoch=" << epoch;
    }
  }
}

TEST(SimExecutorTest, RunClientsEnvRoutingDefaultIsSerial) {
  // Whatever DURASSD_EXECUTOR says, RunClients must produce the serial
  // schedule (sharded mode routes through 1 shard == bit-identical).
  SimExecutor::Options opts;
  ScheduleProbe a{.log = "", .salt = 7};
  SerialExecutor se(opts);
  const auto sr = se.Run(3, 60, 0, a.Fn());
  ScheduleProbe b{.log = "", .salt = 7};
  const auto rr = RunClients(3, 60, 0, b.Fn(), opts);
  EXPECT_EQ(sr.ops, rr.ops);
  EXPECT_EQ(sr.makespan, rr.makespan);
  EXPECT_EQ(a.log, b.log);
}

/// Multi-shard runs: the per-shard schedules and results must not depend
/// on the host thread count.
TEST(SimExecutorTest, MultiShardDeterministicAcrossThreadCounts) {
  auto run_once = [](uint32_t threads, std::string* all_logs) {
    SimExecutor::Options opts;
    opts.epoch_ns = 50 * kMicrosecond;
    opts.host_threads = threads;
    std::vector<ScheduleProbe> probes(4);
    std::vector<ShardedExecutor::Shard> shards;
    for (uint32_t s = 0; s < 4; ++s) {
      probes[s].salt = 1000 + s;
      shards.push_back({/*num_clients=*/3 + s, /*total_ops=*/150, probes[s].Fn()});
    }
    ShardedExecutor xe(opts, std::move(shards));
    const auto results = xe.RunShards(/*start_time=*/0);
    all_logs->clear();
    for (uint32_t s = 0; s < 4; ++s) {
      *all_logs += "[shard " + std::to_string(s) + " ops=" +
                   std::to_string(results[s].ops) + " makespan=" +
                   std::to_string(results[s].makespan) + "]" + probes[s].log;
    }
  };
  std::string golden;
  run_once(1, &golden);
  ASSERT_FALSE(golden.empty());
  for (const uint32_t threads : {2u, 4u, 8u}) {
    std::string log;
    run_once(threads, &log);
    EXPECT_EQ(golden, log) << "threads=" << threads;
  }
}

/// Cross-shard posts: delivered at the target in (delivery time, sender,
/// sequence) order, never earlier than the end of the posting window.
TEST(SimExecutorTest, CrossShardPostOrderingAndClamp) {
  auto run_once = [](uint32_t threads) {
    SimExecutor::Options opts;
    opts.epoch_ns = 10 * kMicrosecond;
    opts.host_threads = threads;
    // Built in two phases because shards capture the executor pointer.
    ShardedExecutor* xe_raw = nullptr;
    std::string delivered;      // Written only by shard 1's worker.
    std::string posted;         // Written only by shard 0's worker.
    std::vector<ShardedExecutor::Shard> shards(2);
    shards[0].num_clients = 2;
    shards[0].total_ops = 40;
    shards[0].fn = [&](uint32_t client, SimTime now) {
      const SimTime done = now + Service(client, now, 5);
      posted += std::to_string(now) + ";";
      xe_raw->Post(0, 1, done, [&delivered, client, done](SimTime at) {
        delivered += std::to_string(client) + ":" + std::to_string(done) +
                     "@" + std::to_string(at) + ";";
        EXPECT_GE(at, done);  // Never delivered before the requested time.
      });
      return done;
    };
    shards[1].num_clients = 1;
    shards[1].total_ops = 40;
    shards[1].fn = [](uint32_t client, SimTime now) {
      return now + Service(client, now, 6);
    };
    auto xe = std::make_unique<ShardedExecutor>(opts, std::move(shards));
    xe_raw = xe.get();
    xe->RunShards(0);
    return posted + "|" + delivered;
  };
  const std::string golden = run_once(1);
  ASSERT_NE(golden.find("|"), std::string::npos);
  ASSERT_NE(golden.find("@"), std::string::npos);
  for (const uint32_t threads : {2u, 4u}) {
    EXPECT_EQ(golden, run_once(threads)) << "threads=" << threads;
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

/// Runs 16 clients x 3000 operations on a fresh stack through `ex`, then
/// checkpoints on the calling thread. Returns the trace as JSONL and the
/// device's and the database's metrics snapshots.
std::string RunTracedStack(SimExecutor& ex) {
  TracedDbStack st;
  const SimExecutor::RunResult r =
      ex.Run(16, 3000, 0, [&st](uint32_t client, SimTime now) {
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

// The trace and every metric, histograms included, are the same whichever
// executor drove the stack and however many workers the sharded one used:
// a stack is handed between workers only across an epoch barrier, and it
// records into one trace ring in virtual-time order.
TEST(SimExecutorTest, TracedStackIdenticalUnderSerialAndSharded) {
  SimExecutor::Options opts;
  SerialExecutor serial(opts);
  const std::string golden = RunTracedStack(serial);
  ASSERT_NE(golden.find("cmd_start"), std::string::npos);
  ASSERT_NE(golden.find("txn_commit"), std::string::npos);

  opts.host_threads = 4;
  ShardedExecutor sharded(opts, {});
  const std::string got = RunTracedStack(sharded);
  EXPECT_TRUE(got == golden) << "sharded run diverged from serial";
}

}  // namespace
}  // namespace durassd
