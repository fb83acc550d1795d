#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "db/buffer_pool.h"
#include "db/double_write_buffer.h"
#include "db/page.h"
#include "db/wal.h"
#include "host/sim_file.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kPage = 4 * kKiB;

  BufferPoolTest() : dev_(Config()) {
    fs_ = std::make_unique<SimFileSystem>(&dev_, SimFileSystem::Options{});
    wal_ = std::make_unique<Wal>(fs_->Open("wal"), Wal::Options{});
    // 16 frames only: eviction pressure is immediate.
    pool_ = std::make_unique<BufferPool>(
        fs_->Open("data"), wal_.get(), nullptr,
        BufferPool::Options{16 * kPage, kPage, false});
  }

  static SsdConfig Config() {
    SsdConfig c = SsdConfig::Tiny(true);
    c.geometry.blocks_per_plane = 128;
    c.geometry.pages_per_block = 32;
    return c;
  }

  /// Creates page `id` with a recognizable body and unpins it. The cell is
  /// not a B-tree cell, so the page is not typed as a B-tree page.
  void MakePage(PageId id, char fill) {
    auto ref = pool_->Fix(io_, id, /*create=*/true);
    ASSERT_TRUE(ref.ok());
    (*ref)->Format(id, PageType::kOverflow);
    std::string cell;
    cell.resize(2);
    const uint16_t len = 2 + 64;
    memcpy(cell.data(), &len, 2);
    cell.append(std::string(64, fill));
    ASSERT_TRUE((*ref)->InsertCell(0, cell));
    pool_->MarkDirty(id, 1, 0);
  }

  char PageFill(PageId id) {
    auto ref = pool_->Fix(io_, id, /*create=*/false);
    EXPECT_TRUE(ref.ok());
    if (!ref.ok()) return '?';
    return (*ref)->CellAt(0).data()[2];
  }

  IoContext io_;
  SsdDevice dev_;
  std::unique_ptr<SimFileSystem> fs_;
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<BufferPool> pool_;
};

TEST_F(BufferPoolTest, FixCreateThenHit) {
  MakePage(1, 'a');
  EXPECT_EQ(pool_->stats().misses, 1u);
  EXPECT_EQ(PageFill(1), 'a');
  EXPECT_EQ(pool_->stats().hits, 1u);
}

TEST_F(BufferPoolTest, EvictionWritesBackAndReloads) {
  for (PageId id = 0; id < 40; ++id) MakePage(id, 'a' + id % 26);
  EXPECT_GT(pool_->stats().evictions, 0u);
  EXPECT_GT(pool_->stats().dirty_evictions, 0u);
  // Evicted pages reload from the device with intact contents.
  for (PageId id = 0; id < 40; ++id) {
    EXPECT_EQ(PageFill(id), static_cast<char>('a' + id % 26)) << id;
  }
}

TEST_F(BufferPoolTest, PinPreventsEviction) {
  MakePage(0, 'p');
  auto pinned = pool_->Fix(io_, 0, false);
  ASSERT_TRUE(pinned.ok());
  // Flood the pool; page 0 must survive in memory.
  for (PageId id = 1; id < 64; ++id) MakePage(id, 'x');
  EXPECT_EQ((*pinned)->CellAt(0).data()[2], 'p');
  // And it was never evicted: fixing it again is a hit.
  const uint64_t misses = pool_->stats().misses;
  auto again = pool_->Fix(io_, 0, false);
  EXPECT_EQ(pool_->stats().misses, misses);
}

TEST_F(BufferPoolTest, NoStealKeepsTxnPagesResident) {
  MakePage(0, 't');
  pool_->MarkDirty(0, 1, /*txn=*/42);  // Owned by an active transaction.
  const uint64_t writes_before = dev_.stats().host_writes;
  for (PageId id = 1; id < 64; ++id) MakePage(id, 'x');
  // Page 0 was never written out (no-steal)...
  auto ref = pool_->Fix(io_, 0, false);
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ((*ref)->CellAt(0).data()[2], 't');
  ref->Release();
  // ...until the transaction releases it.
  pool_->ClearOwner(0, 42);
  for (PageId id = 64; id < 96; ++id) MakePage(id, 'y');
  (void)writes_before;
  EXPECT_EQ(PageFill(0), 't');
}

TEST_F(BufferPoolTest, WalRuleLogBeforeData) {
  MakePage(0, 'w');
  const Lsn lsn = wal_->Append(WalRecord{WalRecordType::kPut, 1, 1, "k",
                                         "v", false, "", kInvalidLsn});
  pool_->MarkDirty(0, lsn, 0);
  EXPECT_EQ(wal_->written_lsn(), 0u);
  ASSERT_TRUE(pool_->FlushAll(io_).ok());
  // Flushing the page forced the log out first.
  EXPECT_GT(wal_->written_lsn(), 0u);
}

TEST_F(BufferPoolTest, FlushAllCleansEverything) {
  for (PageId id = 0; id < 10; ++id) MakePage(id, 'f');
  ASSERT_TRUE(pool_->FlushAll(io_).ok());
  const uint64_t evictions = pool_->stats().dirty_evictions;
  // After a flush, evictions need no further writes.
  for (PageId id = 10; id < 40; ++id) {
    auto ref = pool_->Fix(io_, id, true);
    ASSERT_TRUE(ref.ok());  // Clean frames reused without write-back.
  }
  EXPECT_EQ(pool_->stats().dirty_evictions, evictions);
}

TEST_F(BufferPoolTest, CorruptPageDetectedOnRead) {
  MakePage(3, 'c');
  ASSERT_TRUE(pool_->FlushAll(io_).ok());
  // A host crash loses the pool's frames; the next pool starts empty over
  // the same files, which keep whatever was flushed.
  pool_ = std::make_unique<BufferPool>(
      fs_->Open("data"), wal_.get(), nullptr,
      BufferPool::Options{16 * kPage, kPage, false});
  // Corrupt the on-device bytes behind the pool's back.
  SimFile* data = fs_->Open("data");
  std::string garbage(kPage, 0x5A);
  ASSERT_TRUE(data->Write(io_.now, 3 * kPage, garbage).status.ok());

  auto ref = pool_->Fix(io_, 3, /*create=*/false);
  EXPECT_FALSE(ref.ok());
  EXPECT_TRUE(ref.status().IsCorruption());
}

TEST_F(BufferPoolTest, FailedReadLeavesNoStaleFrame) {
  // A page read that fails must not leave its recycled frame carrying the
  // page id: evicting that stale frame later would erase the mapping of
  // the page's live frame.
  MakePage(1, 'a');
  for (PageId id = 100; id < 116; ++id) MakePage(id, 'z');  // Evicts page 1.
  // Clean frames only, so the failing fix below recycles a frame without a
  // write-back and fails in the page read itself.
  ASSERT_TRUE(pool_->FlushAll(io_).ok());

  dev_.PowerCut(io_.now);
  EXPECT_FALSE(pool_->Fix(io_, 1, /*create=*/false).ok());
  dev_.PowerOn();

  auto live = pool_->Fix(io_, 1, /*create=*/false);  // Stays pinned.
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ((*live)->CellAt(0).data()[2], 'a');
  // Cycle every unpinned frame, the failed read's included, out of the pool.
  for (PageId id = 200; id < 232; ++id) MakePage(id, 'y');

  const uint64_t hits = pool_->stats().hits;
  auto again = pool_->Fix(io_, 1, /*create=*/false);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(pool_->stats().hits, hits + 1)
      << "the pinned page lost its mapping";
}

TEST_F(BufferPoolTest, DoubleWritePendingImageServesReads) {
  DoubleWriteBuffer dwb(fs_->Open("dwb"), fs_->Open("data"),
                        DoubleWriteBuffer::Options{kPage, 8});
  BufferPool pool(fs_->Open("data"), wal_.get(), &dwb,
                  BufferPool::Options{16 * kPage, kPage, false});
  // Dirty a page, let it go through the (batched, still pending) DWB.
  auto ref = pool.Fix(io_, 5, true);
  ASSERT_TRUE(ref.ok());
  (*ref)->Format(5, PageType::kBTreeLeaf);
  pool.MarkDirty(5, 1, 0);
  ref->Release();
  // Force the frame out: image now sits in the DWB's pending batch.
  for (PageId id = 100; id < 140; ++id) {
    auto r = pool.Fix(io_, id, true);
    ASSERT_TRUE(r.ok());
    (*r)->Format(id, PageType::kBTreeLeaf);
    pool.MarkDirty(id, 1, 0);
  }
  // Reading page 5 back must hit the pending image, not the stale home.
  auto back = pool.Fix(io_, 5, false);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->page_id(), 5u);
  EXPECT_EQ((*back)->type(), PageType::kBTreeLeaf);
}

TEST_F(BufferPoolTest, MissRatioReflectsWorkingSet) {
  for (PageId id = 0; id < 8; ++id) MakePage(id, 'm');
  for (int round = 0; round < 50; ++round) {
    for (PageId id = 0; id < 8; ++id) PageFill(id);
  }
  // Working set fits: the steady-state ratio collapses.
  EXPECT_LT(pool_->stats().MissRatio(), 0.05);
}

}  // namespace
}  // namespace durassd
