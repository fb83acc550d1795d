// Full-stack integration tests: realistic workloads over the full stack
// (engine -> file system -> device -> FTL -> NAND) with power failures
// injected at adversarial moments, verifying the end-to-end ACID claims of
// the paper across the configuration matrix.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "db/database.h"
#include "host/sim_file.h"
#include "kv/kvstore.h"
#include "ssd/hdd_device.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"
#include "tier/tiered_device.h"
#include "workloads/keys.h"

namespace durassd {
namespace {

struct Stack {
  explicit Stack(bool durable, bool barriers, bool dwb, uint64_t seed = 1) {
    SsdConfig dc = durable ? SsdConfig::DuraSsd() : SsdConfig::SsdA();
    dc.geometry = FlashGeometry::Tiny();
    dc.geometry.blocks_per_plane = 256;
    dc.geometry.pages_per_block = 32;
    dc.capacitor_budget_bytes = 16 * kMiB;
    device = std::make_unique<SsdDevice>(dc);
    SimFileSystem::Options fso;
    fso.write_barriers = barriers;
    fs = std::make_unique<SimFileSystem>(device.get(), fso);
    options.pool_bytes = 2 * kMiB;
    options.double_write = dwb;
    options.checkpoint_log_bytes = 2 * kMiB;  // Frequent checkpoints.
    rng = Random(seed);
  }

  Status Open() {
    auto d = Database::Open(io, fs.get(), fs.get(), options);
    if (!d.ok()) return d.status();
    db = std::move(*d);
    return Status::OK();
  }

  void Crash(SimTime at) {
    db.reset();
    device->PowerCut(at);
    device->PowerOn();
    io.now = 0;
  }

  IoContext io;
  std::unique_ptr<SsdDevice> device;
  std::unique_ptr<SimFileSystem> fs;
  std::unique_ptr<Database> db;
  Database::Options options;
  Random rng{1};
};

/// Runs a random workload tracking the committed state; crashes at a
/// random virtual time between operation boundaries; verifies recovery.
void RandomCrashRound(Stack& s, std::map<std::string, std::string>& model,
                      uint32_t tree, int ops, bool verify_all) {
  // Work phase.
  SimTime last_commit_time = s.io.now;
  std::map<std::string, std::string> pending = model;
  for (int i = 0; i < ops; ++i) {
    auto txn = s.db->Begin(s.io);
    ASSERT_TRUE(txn.ok());
    const std::string key = "k" + std::to_string(s.rng.Uniform(150));
    if (s.rng.Bernoulli(0.8)) {
      const std::string value = "v" + std::to_string(s.rng.Next() % 100000);
      ASSERT_TRUE(s.db->Put(s.io, *txn, tree, key, value).ok());
      pending[key] = value;
    } else {
      Status st = s.db->Delete(s.io, *txn, tree, key);
      ASSERT_TRUE(st.ok() || st.IsNotFound());
      pending.erase(key);
    }
    ASSERT_TRUE(s.db->Commit(s.io, *txn).ok());
    model = pending;
    last_commit_time = s.io.now;
  }

  // Crash slightly after the last commit completed (all acked).
  s.Crash(last_commit_time + s.rng.Uniform(100));
  ASSERT_TRUE(s.Open().ok()) << "recovery failed";

  if (verify_all) {
    auto tid = s.db->GetTreeId("t");
    ASSERT_TRUE(tid.ok());
    for (const auto& [k, v] : model) {
      std::string got;
      ASSERT_TRUE(s.db->Get(s.io, *tid, k, &got).ok()) << k;
      EXPECT_EQ(got, v) << k;
    }
    // And nothing extra: spot-check absent keys.
    for (int i = 0; i < 20; ++i) {
      const std::string k = "k" + std::to_string(s.rng.Uniform(150));
      std::string got;
      const Status st = s.db->Get(s.io, *tid, k, &got);
      if (model.count(k) == 0) {
        EXPECT_TRUE(st.IsNotFound()) << k;
      }
    }
  }
}

class EndToEndCrashTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    DuraSsdConfigs, EndToEndCrashTest,
    ::testing::Values(std::make_tuple(true, true),    // barriers, dwb
                      std::make_tuple(true, false),   // barriers only
                      std::make_tuple(false, true),   // dwb only
                      std::make_tuple(false, false)));  // OFF/OFF

TEST_P(EndToEndCrashTest, RepeatedRandomCrashesOnDuraSsd) {
  const auto [barriers, dwb] = GetParam();
  Stack s(/*durable=*/true, barriers, dwb, /*seed=*/barriers * 2 + dwb);
  ASSERT_TRUE(s.Open().ok());
  auto tree = s.db->CreateTree(s.io, "t");
  ASSERT_TRUE(tree.ok());

  std::map<std::string, std::string> model;
  for (int round = 0; round < 6; ++round) {
    auto tid = s.db->GetTreeId("t");
    ASSERT_TRUE(tid.ok());
    RandomCrashRound(s, model, *tid, 80, /*verify_all=*/true);
  }
}

TEST(EndToEndCrashTest, VolatileWithBarriersAlsoSafe) {
  Stack s(/*durable=*/false, /*barriers=*/true, /*dwb=*/true, 9);
  ASSERT_TRUE(s.Open().ok());
  auto tree = s.db->CreateTree(s.io, "t");
  ASSERT_TRUE(tree.ok());
  std::map<std::string, std::string> model;
  for (int round = 0; round < 4; ++round) {
    auto tid = s.db->GetTreeId("t");
    RandomCrashRound(s, model, *tid, 60, /*verify_all=*/true);
  }
}

TEST(EndToEndCrashTest, MidTransactionCrashPreservesAtomicity) {
  Stack s(true, false, false, 17);
  ASSERT_TRUE(s.Open().ok());
  auto tree = s.db->CreateTree(s.io, "t");
  for (int i = 0; i < 30; ++i) {
    auto txn = s.db->Begin(s.io);
    ASSERT_TRUE(
        s.db->Put(s.io, *txn, *tree, "base" + std::to_string(i), "x").ok());
    ASSERT_TRUE(s.db->Commit(s.io, *txn).ok());
  }
  // Open transaction with several ops, never committed.
  auto txn = s.db->Begin(s.io);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(s.db->Put(s.io, *txn, *tree, "base" + std::to_string(i),
                          "CLOBBERED").ok());
    ASSERT_TRUE(
        s.db->Put(s.io, *txn, *tree, "new" + std::to_string(i), "y").ok());
  }
  s.Crash(s.io.now + 1);
  ASSERT_TRUE(s.Open().ok());
  auto tid = s.db->GetTreeId("t");
  for (int i = 0; i < 30; ++i) {
    std::string v;
    ASSERT_TRUE(
        s.db->Get(s.io, *tid, "base" + std::to_string(i), &v).ok());
    EXPECT_EQ(v, "x") << i;  // Loser txn fully undone.
  }
  std::string v;
  EXPECT_TRUE(s.db->Get(s.io, *tid, "new0", &v).IsNotFound());
}

TEST(EndToEndCrashTest, CrashDuringCheckpointIsRecoverable) {
  Stack s(true, true, true, 23);
  s.options.checkpoint_log_bytes = 64 * kKiB;  // Checkpoint very often.
  ASSERT_TRUE(s.Open().ok());
  auto tree = s.db->CreateTree(s.io, "t");
  std::map<std::string, std::string> model;
  // Many small rounds; with the tiny checkpoint interval, several crashes
  // land near or inside checkpoint activity.
  for (int round = 0; round < 8; ++round) {
    auto tid = s.db->GetTreeId("t");
    RandomCrashRound(s, model, *tid, 40, /*verify_all=*/true);
  }
  (void)tree;
}

// --------------------------- KvStore end-to-end ---------------------------

TEST(EndToEndCrashTest, KvStoreRandomCrashRounds) {
  SsdConfig dc = SsdConfig::DuraSsd();
  dc.geometry = FlashGeometry::Tiny();
  dc.geometry.blocks_per_plane = 256;
  dc.geometry.pages_per_block = 32;
  SsdDevice device(dc);
  SimFileSystem fs(&device, SimFileSystem::Options{false, 1024, 256});

  Random rng(31);
  std::map<std::string, std::string> committed;
  IoContext io;
  for (int round = 0; round < 5; ++round) {
    KvStore::Options ko;
    ko.batch_size = 1;  // Every update committed.
    auto store = KvStore::Open(io, &fs, "s.couch", ko);
    ASSERT_TRUE(store.ok());
    // Recovered state must match the committed model.
    for (const auto& [k, v] : committed) {
      std::string got;
      ASSERT_TRUE((*store)->Get(io, k, &got).ok())
          << "round " << round << " key " << k;
      EXPECT_EQ(got, v);
    }
    for (int i = 0; i < 60; ++i) {
      const std::string k = "doc" + std::to_string(rng.Uniform(40));
      const std::string v = "v" + std::to_string(rng.Next() % 9999);
      ASSERT_TRUE((*store)->Put(io, k, v).ok());
      committed[k] = v;
    }
    const SimTime cut = io.now + rng.Uniform(1000);
    store->reset();
    device.PowerCut(cut);
    device.PowerOn();
    io.now = 0;
  }
}

// BlockDevice contract on every device model: a range that ends past the
// last sector is rejected up front, including one whose end wraps past
// 2^64 back into range, and the rejected commands leave nothing behind for
// a later FLUSH to trip over.
TEST(DeviceRangeTest, RangesPastTheEndAreRejectedOnEveryDevice) {
  HddDevice::Config hdd;
  hdd.num_sectors = 1024;
  TieredConfig tier;
  tier.flash = SsdConfig::Tiny(/*durable=*/true);
  tier.capacity_hdd.num_sectors = 1024;
  std::vector<std::pair<std::string, std::unique_ptr<BlockDevice>>> devices;
  devices.emplace_back("ssd", std::make_unique<SsdDevice>(SsdConfig::Tiny()));
  devices.emplace_back("hdd", std::make_unique<HddDevice>(hdd));
  devices.emplace_back("tiered", MakeTieredDevice(tier));

  for (const auto& [name, dev] : devices) {
    const uint32_t ss = dev->sector_size();
    const Lpn last = dev->num_sectors() - 1;
    const std::pair<Lpn, uint32_t> ranges[] = {
        {~0ull, 1}, {~0ull, 2}, {last, 2}};
    SimTime t = 0;
    for (const auto& [lpn, nsec] : ranges) {
      const BlockDevice::Result w =
          dev->Write(t, lpn, std::string(static_cast<size_t>(nsec) * ss, 'w'));
      EXPECT_EQ(w.status.code(), StatusCode::kInvalidArgument)
          << name << " write lpn=" << lpn << " nsec=" << nsec;
      std::string out;
      const BlockDevice::Result r = dev->Read(t, lpn, nsec, &out);
      EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument)
          << name << " read lpn=" << lpn << " nsec=" << nsec;
      t = std::max({t, w.done, r.done});
    }
    // The last advertised sector itself must be storable.
    const std::string one(ss, 'L');
    const BlockDevice::Result w = dev->Write(t, last, one);
    EXPECT_TRUE(w.status.ok()) << name << " write lpn=" << last << ": "
                               << w.status.ToString();
    std::string out;
    const BlockDevice::Result r = dev->Read(w.done, last, 1, &out);
    EXPECT_TRUE(r.status.ok()) << name << " read lpn=" << last;
    EXPECT_EQ(out, one) << name;
    t = std::max({t, w.done, r.done});
    EXPECT_TRUE(dev->Flush(t).status.ok()) << name;
  }
}

}  // namespace
}  // namespace durassd
