#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "db/btree.h"
#include "db/buffer_pool.h"
#include "db/wal.h"
#include "host/sim_file.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

/// Trivial allocator for tree-only tests.
class BumpAllocator : public PageAllocator {
 public:
  StatusOr<PageId> AllocatePage(IoContext& io) override {
    (void)io;
    return next_++;
  }

 private:
  PageId next_ = 1;
};

class BTreeTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  BTreeTest() {
    SsdConfig cfg = SsdConfig::DuraSsd();
    cfg.geometry = FlashGeometry::Tiny();
    cfg.geometry.blocks_per_plane = 128;  // ~64 MiB raw.
    cfg.geometry.pages_per_block = 32;
    dev_ = std::make_unique<SsdDevice>(cfg);
    fs_ = std::make_unique<SimFileSystem>(dev_.get(),
                                          SimFileSystem::Options{});
    wal_ = std::make_unique<Wal>(fs_->Open("wal"), Wal::Options{});
    pool_ = std::make_unique<BufferPool>(
        fs_->Open("data"), wal_.get(), nullptr,
        BufferPool::Options{4 * kMiB, PageSize(), false});
    MutationCtx m{0, 0, nullptr};
    auto root = BTree::Create(io_, pool_.get(), &alloc_, m);
    EXPECT_TRUE(root.ok());
    tree_ = std::make_unique<BTree>(pool_.get(), &alloc_, *root);
  }

  uint32_t PageSize() const { return GetParam(); }
  MutationCtx Ctx() { return MutationCtx{1, 0, nullptr}; }

  IoContext io_;
  std::unique_ptr<SsdDevice> dev_;
  std::unique_ptr<SimFileSystem> fs_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<BufferPool> pool_;
  BumpAllocator alloc_;
  std::unique_ptr<BTree> tree_;
};

INSTANTIATE_TEST_SUITE_P(PageSizes, BTreeTest,
                         ::testing::Values(4096u, 8192u, 16384u));

TEST_P(BTreeTest, EmptyTreeGetNotFound) {
  std::string v;
  EXPECT_TRUE(tree_->Get(io_, "missing", &v).IsNotFound());
}

TEST_P(BTreeTest, PutGetSingle) {
  ASSERT_TRUE(tree_->Put(io_, Ctx(), "key", "value").ok());
  std::string v;
  ASSERT_TRUE(tree_->Get(io_, "key", &v).ok());
  EXPECT_EQ(v, "value");
}

TEST_P(BTreeTest, UpsertReplaces) {
  ASSERT_TRUE(tree_->Put(io_, Ctx(), "k", "v1").ok());
  std::string old;
  bool had_old = false;
  ASSERT_TRUE(tree_->Put(io_, Ctx(), "k", "v2", &old, &had_old).ok());
  EXPECT_TRUE(had_old);
  EXPECT_EQ(old, "v1");
  std::string v;
  ASSERT_TRUE(tree_->Get(io_, "k", &v).ok());
  EXPECT_EQ(v, "v2");
}

TEST_P(BTreeTest, DeleteRemovesAndReportsOld) {
  ASSERT_TRUE(tree_->Put(io_, Ctx(), "k", "v").ok());
  std::string old;
  bool had_old = false;
  ASSERT_TRUE(tree_->Delete(io_, Ctx(), "k", &old, &had_old).ok());
  EXPECT_TRUE(had_old);
  EXPECT_EQ(old, "v");
  std::string v;
  EXPECT_TRUE(tree_->Get(io_, "k", &v).IsNotFound());
  EXPECT_TRUE(tree_->Delete(io_, Ctx(), "k").IsNotFound());
}

TEST_P(BTreeTest, ManyInsertsSplitAndStaySorted) {
  // Enough keys to force multiple levels at every page size.
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    char key[16];
    snprintf(key, sizeof(key), "k%08d", i * 7 % n);
    ASSERT_TRUE(tree_->Put(io_, Ctx(), key, "v" + std::to_string(i)).ok())
        << key;
  }
  // Every key readable.
  for (int i = 0; i < n; i += 97) {
    char key[16];
    snprintf(key, sizeof(key), "k%08d", i * 7 % n);
    std::string v;
    ASSERT_TRUE(tree_->Get(io_, key, &v).ok()) << key;
  }
  // Full scan is sorted and complete.
  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(tree_->ScanFrom(io_, "", n + 10, &all).ok());
  ASSERT_EQ(all.size(), static_cast<size_t>(n));
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].first, all[i].first);
  }
}

TEST_P(BTreeTest, RandomizedMatchesReferenceModel) {
  Random rng(17);
  std::map<std::string, std::string> model;
  for (int op = 0; op < 8000; ++op) {
    const std::string key = "key" + std::to_string(rng.Uniform(800));
    const uint64_t action = rng.Uniform(10);
    if (action < 6) {
      const std::string value = "v" + std::to_string(rng.Next() % 100000);
      ASSERT_TRUE(tree_->Put(io_, Ctx(), key, value).ok());
      model[key] = value;
    } else if (action < 8) {
      const Status s = tree_->Delete(io_, Ctx(), key);
      if (model.erase(key) > 0) {
        EXPECT_TRUE(s.ok());
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    } else {
      std::string v;
      const Status s = tree_->Get(io_, key, &v);
      auto it = model.find(key);
      if (it != model.end()) {
        ASSERT_TRUE(s.ok());
        EXPECT_EQ(v, it->second);
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    }
  }
  // Final full comparison.
  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_TRUE(tree_->ScanFrom(io_, "", 100000, &all).ok());
  ASSERT_EQ(all.size(), model.size());
  auto mit = model.begin();
  for (const auto& [k, v] : all) {
    EXPECT_EQ(k, mit->first);
    EXPECT_EQ(v, mit->second);
    ++mit;
  }
}

TEST_P(BTreeTest, ScanFromMidRange) {
  for (int i = 0; i < 100; ++i) {
    char key[8];
    snprintf(key, sizeof(key), "%03d", i);
    ASSERT_TRUE(tree_->Put(io_, Ctx(), key, "v").ok());
  }
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(tree_->ScanFrom(io_, "050", 10, &out).ok());
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out.front().first, "050");
  EXPECT_EQ(out.back().first, "059");
}

TEST_P(BTreeTest, CountRangeRespectsBounds) {
  for (int i = 0; i < 200; ++i) {
    char key[8];
    snprintf(key, sizeof(key), "%03d", i);
    ASSERT_TRUE(tree_->Put(io_, Ctx(), key, "v").ok());
  }
  uint64_t count = 0;
  ASSERT_TRUE(tree_->CountRange(io_, "010", "020", 1000, &count).ok());
  EXPECT_EQ(count, 10u);
  ASSERT_TRUE(tree_->CountRange(io_, "190", "", 1000, &count).ok());
  EXPECT_EQ(count, 10u);  // Open end: to the last key (199).
  ASSERT_TRUE(tree_->CountRange(io_, "000", "999", 25, &count).ok());
  EXPECT_EQ(count, 25u);  // Capped.
}

TEST_P(BTreeTest, LargeValuesNearLimit) {
  const std::string big(tree_->max_value_size(), 'B');
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(tree_->Put(io_, Ctx(), "big" + std::to_string(i), big).ok());
  }
  std::string v;
  ASSERT_TRUE(tree_->Get(io_, "big25", &v).ok());
  EXPECT_EQ(v, big);
}

TEST_P(BTreeTest, RejectsOversizedKeyAndValue) {
  const std::string huge_key(tree_->max_key_size() + 1, 'K');
  const std::string huge_val(tree_->max_value_size() + 1, 'V');
  EXPECT_FALSE(tree_->Put(io_, Ctx(), huge_key, "v").ok());
  EXPECT_FALSE(tree_->Put(io_, Ctx(), "k", huge_val).ok());
  EXPECT_FALSE(tree_->Put(io_, Ctx(), "", "v").ok());
}

TEST_P(BTreeTest, GrowingValueRewritesAcrossSplits) {
  // Repeatedly grow the same keys; exercises the ReplaceCell-overflow path.
  for (int round = 1; round <= 8; ++round) {
    const std::string value(round * 50, 'a' + round);
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(
          tree_->Put(io_, Ctx(), "grow" + std::to_string(i), value).ok());
    }
  }
  std::string v;
  ASSERT_TRUE(tree_->Get(io_, "grow30", &v).ok());
  EXPECT_EQ(v, std::string(400, 'a' + 8));
}

/// FNV-1a, 64-bit.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Keys of 9..189 bytes, so internal fanout stays low and the tree grows
/// three levels.
std::string MixKey(uint64_t k) {
  char buf[16];
  snprintf(buf, sizeof(buf), "k%08llu", static_cast<unsigned long long>(k));
  return std::string(buf) + std::string(k % 181, 'p');
}

// Pins the tree's buffer-pool traffic under pool pressure: hits, misses
// and evictions, and the data file's bytes after a checkpoint. A pinned
// frame cannot be evicted, so these depend on what each operation keeps
// pinned: the write path keeps ancestors pinned only above a node that may
// split, a read descent releases the parent once the child is fixed, and a
// scan releases a leaf before fixing the next one.
TEST(BTreePoolTrafficTest, SeededMixPinsPoolStatsAndDataFile) {
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.geometry = FlashGeometry::Tiny();
  cfg.geometry.blocks_per_plane = 128;
  cfg.geometry.pages_per_block = 32;
  SsdDevice dev(cfg);
  SimFileSystem fs(&dev, SimFileSystem::Options{});
  Wal wal(fs.Open("wal"), Wal::Options{});
  SimFile* data = fs.Open("data");
  BufferPool::Options popts;
  popts.pool_bytes = 10 * 4 * kKiB;  // 10 frames.
  popts.page_size = 4 * kKiB;
  BufferPool pool(data, &wal, nullptr, popts);
  BumpAllocator alloc;
  IoContext io;
  const MutationCtx m{kInvalidLsn, 0, nullptr};
  StatusOr<PageId> root = BTree::Create(io, &pool, &alloc, m);
  ASSERT_TRUE(root.ok());
  BTree tree(&pool, &alloc, *root);

  Random rng(2024);
  std::map<std::string, std::string> model;
  int root_splits = 0;
  for (int op = 0; op < 4000; ++op) {
    const std::string key = MixKey(rng.Uniform(1500));
    const uint64_t action = rng.Uniform(20);
    if (action < 11) {
      const std::string value(rng.UniformRange(16, 200),
                              static_cast<char>('a' + op % 26));
      const PageId old_root = tree.root();
      ASSERT_TRUE(tree.Put(io, m, key, value).ok()) << op;
      model[key] = value;
      if (tree.root() != old_root) ++root_splits;
    } else if (action < 14) {
      const Status s = tree.Delete(io, m, key);
      ASSERT_EQ(s.ok(), model.erase(key) > 0) << op;
    } else if (action < 17) {
      const size_t limit = rng.UniformRange(1, 48);
      std::vector<std::pair<std::string, std::string>> out;
      ASSERT_TRUE(tree.ScanFrom(io, key, limit, &out).ok()) << op;
      auto it = model.lower_bound(key);
      for (const auto& kv : out) {
        ASSERT_TRUE(it != model.end()) << op;
        ASSERT_EQ(kv.first, it->first) << op;
        ASSERT_EQ(kv.second, it->second) << op;
        ++it;
      }
      ASSERT_TRUE(out.size() == limit || it == model.end()) << op;
    } else {
      const std::string end = MixKey(rng.Uniform(1500));
      const size_t cap = rng.UniformRange(1, 64);
      uint64_t count = 0;
      ASSERT_TRUE(tree.CountRange(io, key, end, cap, &count).ok()) << op;
      uint64_t want = 0;
      for (auto it = model.lower_bound(key);
           it != model.end() && it->first < end && want < cap; ++it) {
        ++want;
      }
      ASSERT_EQ(count, want) << op;
    }
  }
  ASSERT_TRUE(pool.FlushAll(io).ok());
  EXPECT_EQ(root_splits, 2);  // Leaf root, then internal root.

  const BufferPool::Stats st = pool.stats();
  EXPECT_EQ(st.hits, 7636u);
  EXPECT_EQ(st.misses, 5210u);
  EXPECT_EQ(st.evictions, 5200u);
  EXPECT_EQ(st.dirty_evictions, 2234u);
  EXPECT_EQ(st.reads_blocked_by_writes, 2198u);
  std::string bytes;
  ASSERT_TRUE(data->Read(io.now, 0, data->size(), &bytes).status.ok());
  EXPECT_EQ(bytes.size(), 92u * 4 * kKiB);
  EXPECT_EQ(Fnv1a(bytes), 0xCDF279B149112B8Eull);
}

}  // namespace
}  // namespace durassd
