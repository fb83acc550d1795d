#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "host/sim_file.h"
#include "kv/kvstore.h"
#include "ssd/device_factory.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"
#include "workloads/fiosim.h"
#include "workloads/keys.h"
#include "workloads/linkbench.h"
#include "workloads/tpcc.h"
#include "workloads/ycsb.h"

namespace durassd {
namespace {

// --------------------------- keys -----------------------------------------

TEST(KeysTest, BigEndianOrderMatchesNumericOrder) {
  EXPECT_LT(KeyU64(1), KeyU64(2));
  EXPECT_LT(KeyU64(255), KeyU64(256));
  EXPECT_LT(KeyU64(0xFFFF), KeyU64(0x10000));
  EXPECT_LT(KeyU64U32(5, 9), KeyU64U32(6, 0));
  EXPECT_LT(KeyU64U32U64(1, 2, 3), KeyU64U32U64(1, 2, 4));
  EXPECT_LT(KeyU64U32U64(1, 2, 0xFFFFFFFFFFull), KeyU64U32U64(1, 3, 0));
}

// --------------------------- fiosim ---------------------------------------

TEST(FioSimTest, FsyncFrequencyMonotonicallyImprovesIops) {
  double prev = 0;
  for (uint32_t every : {1u, 16u, 0u}) {
    auto dev = MakeDevice(DeviceModel::kDuraSsd, true);
    FioJob job;
    job.ops = 2000;
    job.fsync_every = every;
    const double iops = RunFio(dev.get(), job).iops;
    EXPECT_GT(iops, prev);
    prev = iops;
  }
}

TEST(FioSimTest, NoBarrierBeatsBarrierAtFsync1) {
  auto dev1 = MakeDevice(DeviceModel::kDuraSsd, true);
  auto dev2 = MakeDevice(DeviceModel::kDuraSsd, true);
  FioJob job;
  job.ops = 2000;
  job.fsync_every = 1;
  job.write_barriers = true;
  const double with_barrier = RunFio(dev1.get(), job).iops;
  job.write_barriers = false;
  const double without = RunFio(dev2.get(), job).iops;
  EXPECT_GT(without, with_barrier * 10);  // Table 1's headline effect.
}

TEST(FioSimTest, ReadsScaleWithThreads) {
  auto dev1 = MakeDevice(DeviceModel::kDuraSsd, true);
  auto dev128 = MakeDevice(DeviceModel::kDuraSsd, true);
  FioJob job;
  job.mode = FioJob::Mode::kRandRead;
  job.ops = 5000;
  job.threads = 1;
  const double single = RunFio(dev1.get(), job).iops;
  job.threads = 128;
  const double many = RunFio(dev128.get(), job).iops;
  EXPECT_GT(many, single * 3);
}

TEST(FioSimTest, SmallerPagesGiveHigherReadIops) {
  double prev = 0;
  for (uint32_t block : {16u * kKiB, 8u * kKiB, 4u * kKiB}) {
    auto dev = MakeDevice(DeviceModel::kDuraSsd, true);
    FioJob job;
    job.mode = FioJob::Mode::kRandRead;
    job.block_bytes = block;
    job.threads = 128;
    job.ops = 5000;
    const double iops = RunFio(dev.get(), job).iops;
    EXPECT_GT(iops, prev);  // Table 2's page-size effect.
    prev = iops;
  }
}

TEST(FioSimTest, SubmissionWindowKeepsItsVirtualTime) {
  // iodepth 1 is the closed loop; 4 and 16 keep a window of completion
  // times over SimFile::Write. Each row pins the run's duration, the
  // latency histogram's count, mean and max, and the deepest device queue
  // ("ssd.qd"), so any change to the window's virtual time shows here.
  // fsync_every waits for the whole window before each fsync (barriers
  // on, so each one is a FLUSH).
  struct Pin {
    uint32_t iodepth;
    uint32_t fsync_every;
    SimTime duration;
    uint64_t count;
    double mean;
    SimTime max;
    int64_t qd_max;
  };
  const Pin pins[] = {
      {1, 0, 135272480, 2000, 64826, 64826, 1},
      {1, 8, 1351078500, 2000, 675489.25, 4950132, 1},
      {4, 0, 42325132, 2000, 73354.304, 119826, 4},
      {4, 8, 1267589500, 2000, 78576, 119826, 4},
      {16, 0, 42325132, 2000, 292537.216, 339826, 16},
      {16, 8, 1267589500, 2000, 121548.75, 184652, 8},
  };
  for (const Pin& p : pins) {
    SCOPED_TRACE("iodepth " + std::to_string(p.iodepth) + " fsync_every " +
                 std::to_string(p.fsync_every));
    SsdConfig cfg = SsdConfig::DuraSsd();
    cfg.store_data = false;
    SsdDevice dev(cfg);
    FioJob job;
    job.ops = 2000;
    job.iodepth = p.iodepth;
    job.fsync_every = p.fsync_every;
    const FioResult r = RunFio(&dev, job);
    EXPECT_EQ(r.duration, p.duration);
    EXPECT_EQ(r.latency.count(), p.count);
    EXPECT_DOUBLE_EQ(r.latency.Mean(), p.mean);
    EXPECT_EQ(r.latency.max(), p.max);
    EXPECT_EQ(dev.metrics().GetHistogram("ssd.qd")->max(), p.qd_max);
  }
}

// --------------------------- LinkBench ------------------------------------

struct DbFixture {
  DbFixture(bool barriers, bool dwb, uint32_t page_size = 4096) {
    SsdConfig dc = SsdConfig::DuraSsd();
    dc.geometry = FlashGeometry::Tiny();
    dc.geometry.blocks_per_plane = 256;
    dc.geometry.pages_per_block = 32;
    device = std::make_unique<SsdDevice>(dc);
    SimFileSystem::Options fso;
    fso.write_barriers = barriers;
    fs = std::make_unique<SimFileSystem>(device.get(), fso);
    Database::Options dbo;
    dbo.page_size = page_size;
    dbo.pool_bytes = 2 * kMiB;
    dbo.double_write = dwb;
    auto opened = Database::Open(io, fs.get(), fs.get(), dbo);
    EXPECT_TRUE(opened.ok());
    db = std::move(*opened);
  }
  IoContext io;
  std::unique_ptr<SsdDevice> device;
  std::unique_ptr<SimFileSystem> fs;
  std::unique_ptr<Database> db;
};

TEST(LinkBenchTest, LoadsAndRunsAllOpTypes) {
  DbFixture f(false, false);
  LinkBench::Config lc;
  lc.num_nodes = 2000;
  lc.clients = 8;
  lc.requests = 3000;
  LinkBench bench(f.db.get(), lc);
  ASSERT_TRUE(bench.Load(f.io).ok());
  auto result = bench.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ops, 3000u);
  EXPECT_EQ(result->failed_ops, 0u);
  EXPECT_GT(result->tps, 0);
  // All ten operation types exercised at this request count.
  EXPECT_EQ(result->latencies.size(),
            static_cast<size_t>(LinkOp::kNumOps));
  uint64_t total = 0;
  for (const auto& [op, hist] : result->latencies) total += hist.count();
  EXPECT_EQ(total, 3000u);
}

TEST(LinkBenchTest, BarriersOffIsFaster) {
  double tps[2];
  for (int barriers = 0; barriers < 2; ++barriers) {
    DbFixture f(barriers == 1, true);
    LinkBench::Config lc;
    lc.num_nodes = 2000;
    lc.clients = 16;
    lc.requests = 2000;
    LinkBench bench(f.db.get(), lc);
    ASSERT_TRUE(bench.Load(f.io).ok());
    tps[barriers] = (*bench.Run()).tps;
  }
  EXPECT_GT(tps[0], tps[1]);  // OFF faster than ON.
}

TEST(LinkBenchTest, OpNamesAndMixAreComplete) {
  for (int i = 0; i < static_cast<int>(LinkOp::kNumOps); ++i) {
    EXPECT_STRNE(LinkOpName(static_cast<LinkOp>(i)), "?");
  }
}

// --------------------------- YCSB -----------------------------------------

TEST(YcsbTest, RunsAgainstKvStore) {
  SsdConfig dc = SsdConfig::DuraSsd();
  dc.geometry = FlashGeometry::Tiny();
  dc.geometry.blocks_per_plane = 256;
  dc.geometry.pages_per_block = 32;
  SsdDevice dev(dc);
  SimFileSystem fs(&dev, SimFileSystem::Options{});
  IoContext io;
  KvStore::Options ko;
  ko.batch_size = 10;
  auto store = KvStore::Open(io, &fs, "y.couch", ko);
  ASSERT_TRUE(store.ok());

  Ycsb::Config yc;
  yc.records = 2000;
  yc.operations = 3000;
  Ycsb bench(store->get(), yc);
  ASSERT_TRUE(bench.Load(io).ok());
  auto result = bench.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->ops_per_sec, 0);
  EXPECT_EQ(result->failed_ops, 0u);
  EXPECT_GT(result->read_latency.count(), 0u);
  EXPECT_GT(result->update_latency.count(), 0u);
  EXPECT_EQ(result->read_latency.count() + result->update_latency.count(),
            3000u);
}

TEST(YcsbTest, LargerBatchIsFaster) {
  double ops[2];
  int i = 0;
  for (uint32_t batch : {1u, 50u}) {
    SsdConfig dc = SsdConfig::DuraSsd();
    dc.geometry = FlashGeometry::Tiny();
    dc.geometry.blocks_per_plane = 256;
    dc.geometry.pages_per_block = 32;
    SsdDevice dev(dc);
    SimFileSystem fs(&dev, SimFileSystem::Options{});
    IoContext io;
    KvStore::Options ko;
    ko.batch_size = batch;
    auto store = KvStore::Open(io, &fs, "y.couch", ko);
    Ycsb::Config yc;
    yc.records = 1000;
    yc.operations = 1500;
    yc.update_fraction = 1.0;
    Ycsb bench(store->get(), yc);
    ASSERT_TRUE(bench.Load(io).ok());
    ops[i++] = (*bench.Run()).ops_per_sec;
  }
  EXPECT_GT(ops[1], ops[0] * 3);  // Table 5's effect.
}

// --------------------------- TPC-C -----------------------------------------

TEST(TpccTest, LoadsAndRunsAllTransactionTypes) {
  DbFixture f(false, false);
  Tpcc::Config tc;
  tc.warehouses = 2;
  tc.items = 500;
  tc.customers_per_district = 30;
  tc.clients = 8;
  tc.transactions = 2000;
  Tpcc bench(f.db.get(), tc);
  ASSERT_TRUE(bench.Load(f.io).ok());
  auto result = bench.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->tpmc, 0);
  EXPECT_EQ(result->failed_ops, 0u);
  // ~45% of 2000 transactions are NewOrders.
  EXPECT_NEAR(static_cast<double>(result->new_orders), 900.0, 150.0);
  EXPECT_GT(result->new_order_latency.count(), 0u);
}

TEST(TpccTest, BarrierOffBeatsBarrierOn) {
  double tpmc[2];
  for (int barriers = 0; barriers < 2; ++barriers) {
    DbFixture f(barriers == 1, false);
    Tpcc::Config tc;
    tc.warehouses = 2;
    tc.items = 500;
    tc.customers_per_district = 30;
    tc.clients = 8;
    tc.transactions = 1000;
    Tpcc bench(f.db.get(), tc);
    ASSERT_TRUE(bench.Load(f.io).ok());
    tpmc[barriers] = (*bench.Run()).tpmc;
  }
  EXPECT_GT(tpmc[0], tpmc[1] * 2);  // Table 4's effect.
}

// --------------------------- Failed operations -----------------------------

// A device cut after the load fails every write (and every read that misses
// the engine's caches). The drivers must count those operations instead of
// reporting them as throughput, in every build type.
TEST(DriverFailuresTest, CountedWhenTheDeviceGoesOffline) {
  {
    DbFixture f(false, false);
    LinkBench::Config lc;
    lc.num_nodes = 2000;
    lc.clients = 8;
    lc.requests = 500;
    LinkBench bench(f.db.get(), lc);
    ASSERT_TRUE(bench.Load(f.io).ok());
    f.device->PowerCut(f.io.now);
    auto result = bench.Run();
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result->failed_ops, 0u);
    EXPECT_LE(result->failed_ops, 500u);
  }
  {
    DbFixture f(false, false);
    Tpcc::Config tc;
    tc.warehouses = 2;
    tc.items = 500;
    tc.customers_per_district = 30;
    tc.clients = 8;
    tc.transactions = 500;
    Tpcc bench(f.db.get(), tc);
    ASSERT_TRUE(bench.Load(f.io).ok());
    f.device->PowerCut(f.io.now);
    auto result = bench.Run();
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result->failed_ops, 0u);
    EXPECT_LE(result->failed_ops, 500u);
  }
  {
    SsdConfig dc = SsdConfig::DuraSsd();
    dc.geometry = FlashGeometry::Tiny();
    dc.geometry.blocks_per_plane = 256;
    dc.geometry.pages_per_block = 32;
    SsdDevice dev(dc);
    SimFileSystem fs(&dev, SimFileSystem::Options{});
    IoContext io;
    auto store = KvStore::Open(io, &fs, "y.couch", KvStore::Options{});
    ASSERT_TRUE(store.ok());
    Ycsb::Config yc;
    yc.records = 500;
    yc.operations = 500;
    Ycsb bench(store->get(), yc);
    ASSERT_TRUE(bench.Load(io).ok());
    dev.PowerCut(io.now);
    auto result = bench.Run();
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result->failed_ops, 0u);
    EXPECT_LE(result->failed_ops, 500u);
  }
}

}  // namespace
}  // namespace durassd
