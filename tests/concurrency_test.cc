// Thread-safety smoke tests for every component the sharded engine lets
// host threads touch concurrently: the metrics cells, the tracer rings,
// the partitioned buffer pool, the latch-coupled B+-tree, and the device
// command queue. These are written for the TSan CI job — each test drives
// real concurrent access through a ThreadPool so a data race is an actual
// interleaving, not a code-review guess — but the count/state assertions
// also hold under the plain build.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "db/btree.h"
#include "db/buffer_pool.h"
#include "db/wal.h"
#include "host/sim_file.h"
#include "sim/thread_pool.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

constexpr int kThreads = 8;

TEST(ConcurrencyTest, MetricsRegistryConcurrentCounters) {
  MetricsRegistry registry;
  constexpr int kPerThread = 20000;
  ThreadPool pool(kThreads);
  std::vector<std::function<void()>> batch;
  for (int t = 0; t < kThreads; ++t) {
    batch.push_back([&registry, t] {
      // Same-name lookups race with each other and with increments.
      MetricCounter* shared = registry.Counter("shared");
      MetricCounter* own = registry.Counter("own." + std::to_string(t));
      MetricGauge* gauge = registry.Gauge("gauge");
      for (int i = 0; i < kPerThread; ++i) {
        ++*shared;
        *own += 2;
        *gauge = static_cast<uint64_t>(i);
      }
    });
  }
  pool.RunBatch(batch);
  EXPECT_EQ(registry.Counter("shared")->value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(registry.Counter("own." + std::to_string(t))->value(),
              2u * kPerThread);
  }
  EXPECT_EQ(registry.Gauge("gauge")->value(), kPerThread - 1u);
}

TEST(ConcurrencyTest, TracerConcurrentRecords) {
  Tracer tracer(/*capacity=*/1024);
  tracer.set_enabled(true);
  constexpr int kPerThread = 10000;
  ThreadPool pool(kThreads);
  std::vector<std::function<void()>> batch;
  for (int t = 0; t < kThreads; ++t) {
    batch.push_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tracer.Record(i, TraceEventType::kCmdStart,
                      static_cast<uint64_t>(t), static_cast<uint64_t>(i));
      }
    });
  }
  pool.RunBatch(batch);
  EXPECT_EQ(tracer.recorded(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(tracer.size() + tracer.dropped(), tracer.recorded());
  // Retained events are well-formed (no torn reads of the ring slots).
  for (const TraceEvent& e : tracer.Events()) {
    EXPECT_LT(e.a0, static_cast<uint64_t>(kThreads));
    EXPECT_EQ(e.t, static_cast<SimTime>(e.a1));
  }
}

/// Shared stack for the pool and tree tests.
struct DbRig {
  std::unique_ptr<SsdDevice> dev;
  std::unique_ptr<SimFileSystem> fs;
  std::unique_ptr<Wal> wal;
  std::unique_ptr<BufferPool> pool;

  explicit DbRig(uint32_t pool_shards, uint64_t pool_bytes = 4 * kMiB) {
    SsdConfig cfg = SsdConfig::DuraSsd();
    cfg.geometry = FlashGeometry::Tiny();
    cfg.geometry.blocks_per_plane = 128;
    cfg.geometry.pages_per_block = 32;
    dev = std::make_unique<SsdDevice>(cfg);
    fs = std::make_unique<SimFileSystem>(dev.get(), SimFileSystem::Options{});
    wal = std::make_unique<Wal>(fs->Open("wal"), Wal::Options{});
    BufferPool::Options opts;
    opts.pool_bytes = pool_bytes;
    opts.page_size = 4 * kKiB;
    opts.shards = pool_shards;
    pool = std::make_unique<BufferPool>(fs->Open("data"), wal.get(), nullptr,
                                        opts);
  }
};

TEST(ConcurrencyTest, BufferPoolConcurrentFixAcrossPartitions) {
  // Working set ~4x the 64-frame pool: fixes race with dirty evictions
  // into the shared WAL/data file across 4 partitions.
  DbRig rig(/*pool_shards=*/4, /*pool_bytes=*/64 * 4 * kKiB);
  constexpr PageId kPages = 256;
  {
    IoContext io;
    for (PageId id = 0; id < kPages; ++id) {
      auto ref = rig.pool->Fix(io, id, /*create=*/true);
      ASSERT_TRUE(ref.ok());
      (*ref)->Format(id, PageType::kFree);
      (*ref)->SealChecksum();
      rig.pool->MarkDirty(id, kInvalidLsn, /*txn=*/0);
    }
    ASSERT_TRUE(rig.pool->FlushAll(io).ok());
  }
  const BufferPool::Stats before = rig.pool->stats();
  ThreadPool tp(kThreads);
  std::atomic<uint64_t> fix_failures{0};
  std::vector<std::function<void()>> batch;
  for (int t = 0; t < kThreads; ++t) {
    batch.push_back([&rig, &fix_failures, t] {
      IoContext io;
      uint64_t rnd = 0x2545F4914F6CDD1Dull * (t + 1);
      for (int i = 0; i < 500; ++i) {
        rnd ^= rnd << 13;
        rnd ^= rnd >> 7;
        rnd ^= rnd << 17;
        const PageId id = rnd % kPages;
        auto ref = rig.pool->Fix(io, id, /*create=*/false);
        if (!ref.ok()) {
          fix_failures.fetch_add(1);
          continue;
        }
        if (i % 3 == 0) {
          ref->latch()->lock();
          (*ref)->SealChecksum();
          rig.pool->MarkDirty(id, kInvalidLsn, /*txn=*/0);
          ref->latch()->unlock();
        }
      }
    });
  }
  tp.RunBatch(batch);
  EXPECT_EQ(fix_failures.load(), 0u);
  const BufferPool::Stats stats = rig.pool->stats();
  EXPECT_EQ(stats.hits + stats.misses - before.hits - before.misses,
            static_cast<uint64_t>(kThreads) * 500);
}

class AtomicBumpAllocator : public PageAllocator {
 public:
  explicit AtomicBumpAllocator(PageId first = 1) : next_(first) {}
  StatusOr<PageId> AllocatePage(IoContext& io) override {
    (void)io;
    return next_.fetch_add(1);
  }

 private:
  std::atomic<PageId> next_;
};

TEST(ConcurrencyTest, BTreeConcurrentReadersAndWriters) {
  DbRig rig(/*pool_shards=*/8);
  AtomicBumpAllocator alloc;
  IoContext setup_io;
  MutationCtx m{kInvalidLsn, 0, nullptr};
  auto root = BTree::Create(setup_io, rig.pool.get(), &alloc, m);
  ASSERT_TRUE(root.ok());
  BTree tree(rig.pool.get(), &alloc, *root);

  constexpr uint64_t kKeys = 64;  // Overlapping => real leaf contention.
  constexpr int kOpsPerThread = 400;
  auto key_of = [](uint64_t k) {
    std::string s = std::to_string(k);
    return "key-" + std::string(4 - s.size(), '0') + s;
  };

  ThreadPool tp(kThreads);
  std::atomic<uint64_t> puts{0}, deletes{0}, gets{0}, scans{0};
  std::vector<std::function<void()>> batch;
  for (int t = 0; t < kThreads; ++t) {
    batch.push_back([&, t] {
      IoContext io;
      uint64_t rnd = 0x9E3779B97F4A7C15ull * (t + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        rnd ^= rnd << 13;
        rnd ^= rnd >> 7;
        rnd ^= rnd << 17;
        const std::string key = key_of(rnd % kKeys);
        const int op = t < 4 ? (i % 8 == 7 ? 1 : 0) : (t < 6 ? 2 : 3);
        switch (op) {
          case 0: {  // Writer: upsert a self-describing value.
            const std::string value =
                "v-" + std::to_string(t) + "-" + std::to_string(i) + "-" +
                std::string(1 + rnd % 64, 'x');
            ASSERT_TRUE(tree.Put(io, m, key, value).ok());
            puts.fetch_add(1);
            break;
          }
          case 1: {  // Writer: occasional delete (may already be absent).
            const Status s = tree.Delete(io, m, key);
            ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
            deletes.fetch_add(1);
            break;
          }
          case 2: {  // Reader: point get.
            std::string value;
            const Status s = tree.Get(io, key, &value);
            ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
            if (s.ok()) {
              EXPECT_EQ(value.rfind("v-", 0), 0u);
            }
            gets.fetch_add(1);
            break;
          }
          default: {  // Reader: ordered scan across leaf chains.
            std::vector<std::pair<std::string, std::string>> out;
            ASSERT_TRUE(tree.ScanFrom(io, key, 16, &out).ok());
            for (size_t j = 1; j < out.size(); ++j) {
              EXPECT_LT(out[j - 1].first, out[j].first);
            }
            scans.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  tp.RunBatch(batch);
  EXPECT_GT(puts.load(), 0u);
  EXPECT_GT(gets.load(), 0u);
  EXPECT_GT(scans.load(), 0u);

  // Single-threaded epilogue: the tree is structurally sound and every
  // surviving value is one some writer actually wrote.
  IoContext io;
  uint64_t present = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    std::string value;
    const Status s = tree.Get(io, key_of(k), &value);
    ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
    if (s.ok()) {
      EXPECT_EQ(value.rfind("v-", 0), 0u);
      present++;
    }
  }
  uint64_t counted = 0;
  ASSERT_TRUE(
      tree.CountRange(io, key_of(0), "key-9999", kKeys + 1, &counted).ok());
  EXPECT_EQ(counted, present);
}

TEST(ConcurrencyTest, BlockDeviceConcurrentSubmitters) {
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.geometry = FlashGeometry::Tiny();
  cfg.geometry.blocks_per_plane = 128;
  SsdDevice dev(cfg);
  const uint32_t sector = dev.sector_size();

  ThreadPool tp(4);
  std::vector<std::function<void()>> batch;
  for (int t = 0; t < 4; ++t) {
    batch.push_back([&dev, sector, t] {
      const std::string payload(sector, static_cast<char>('a' + t));
      SimTime now = t * kMicrosecond;
      for (int i = 0; i < 64; ++i) {
        const Lpn lpn = static_cast<Lpn>(t * 64 + i);
        const CmdId id = dev.Submit(
            now, BlockDevice::Command::MakeWrite(lpn, payload));
        const BlockDevice::Completion c = dev.Await(id);
        EXPECT_TRUE(c.status.ok());
        now = c.done;
        if (i % 16 == 15) {
          const BlockDevice::Completion f =
              dev.Await(dev.Submit(now, BlockDevice::Command::MakeFlush()));
          EXPECT_TRUE(f.status.ok());
          now = f.done;
        }
      }
      // Read everything back through the same queue.
      for (int i = 0; i < 64; ++i) {
        std::string out;
        const CmdId id = dev.Submit(
            now, BlockDevice::Command::MakeRead(static_cast<Lpn>(t * 64 + i),
                                                1, &out));
        const BlockDevice::Completion c = dev.Await(id);
        EXPECT_TRUE(c.status.ok());
        now = c.done;
        EXPECT_EQ(out, payload);
      }
    });
  }
  tp.RunBatch(batch);
}

}  // namespace
}  // namespace durassd
