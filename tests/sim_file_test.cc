#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "host/sim_file.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

class SimFileTest : public ::testing::Test {
 protected:
  static SsdConfig DeviceConfig() {
    SsdConfig c = SsdConfig::Tiny(true);
    c.geometry.blocks_per_plane = 256;
    c.geometry.pages_per_block = 32;  // ~200 MiB usable.
    return c;
  }
  static SimFileSystem::Options FsOptions() {
    SimFileSystem::Options o;
    o.chunk_sectors = 64;
    return o;
  }

  SimFileTest() : dev_(DeviceConfig()) {
    fs_ = std::make_unique<SimFileSystem>(&dev_, FsOptions());
  }

  SsdDevice dev_;
  std::unique_ptr<SimFileSystem> fs_;
};

TEST_F(SimFileTest, OpenCreatesAndReopensSameFile) {
  SimFile* a = fs_->Open("x");
  SimFile* b = fs_->Open("x");
  EXPECT_EQ(a, b);
  EXPECT_TRUE(fs_->Exists("x"));
  EXPECT_FALSE(fs_->Exists("y"));
}

TEST_F(SimFileTest, WholeSectorWriteReadRoundTrip) {
  SimFile* f = fs_->Open("f");
  const std::string data(8192, 'a');
  const auto w = f->Write(0, 0, data);
  ASSERT_TRUE(w.status.ok());
  EXPECT_EQ(f->size(), 8192u);

  std::string out;
  const auto r = f->Read(w.done, 0, 8192, &out);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(out, data);
}

TEST_F(SimFileTest, UnalignedWriteReadModifyWrites) {
  SimFile* f = fs_->Open("f");
  const std::string base(4096, 'b');
  auto w = f->Write(0, 0, base);
  // Overwrite bytes 100..200 only.
  w = f->Write(w.done, 100, std::string(100, 'X'));
  ASSERT_TRUE(w.status.ok());

  std::string out;
  ASSERT_TRUE(f->Read(w.done, 0, 4096, &out).status.ok());
  EXPECT_EQ(out.substr(0, 100), std::string(100, 'b'));
  EXPECT_EQ(out.substr(100, 100), std::string(100, 'X'));
  EXPECT_EQ(out.substr(200), std::string(4096 - 200, 'b'));
}

TEST_F(SimFileTest, WriteSpanningChunkBoundary) {
  SimFile* f = fs_->Open("f");
  const uint64_t chunk_bytes =
      static_cast<uint64_t>(fs_->options().chunk_sectors) * 4096;
  // Tiny device: make sure the file can span two chunks.
  const std::string data(3 * 4096, 'c');
  const auto w = f->Write(0, chunk_bytes - 4096, data);
  ASSERT_TRUE(w.status.ok());
  std::string out;
  ASSERT_TRUE(
      f->Read(w.done, chunk_bytes - 4096, data.size(), &out).status.ok());
  EXPECT_EQ(out, data);
}

TEST_F(SimFileTest, ReadOfHoleReturnsZeros) {
  SimFile* f = fs_->Open("f");
  std::string out;
  const auto r = f->Read(0, 0, 4096, &out);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(out, std::string(4096, '\0'));
}

TEST_F(SimFileTest, SyncWithBarriersFlushesDevice) {
  SimFile* f = fs_->Open("f");
  const auto w = f->Write(0, 0, std::string(4096, 's'));
  const uint64_t before = dev_.stats().flushes;
  const auto s = f->Sync(w.done);
  ASSERT_TRUE(s.status.ok());
  EXPECT_GT(dev_.stats().flushes, before);
  EXPECT_GT(fs_->stats().flush_cmds, 0u);
}

TEST_F(SimFileTest, SyncWithoutBarriersSkipsFlush) {
  SimFileSystem::Options o = FsOptions();
  o.write_barriers = false;
  SimFileSystem nofs(&dev_, o);
  SimFile* f = nofs.Open("f");
  const auto w = f->Write(0, 0, std::string(4096, 's'));
  const auto s = f->Sync(w.done);
  ASSERT_TRUE(s.status.ok());
  EXPECT_EQ(nofs.stats().flush_cmds, 0u);
  // Nobarrier fsync is orders of magnitude cheaper.
  EXPECT_LT(s.done - w.done, 200 * kMicrosecond);
}

TEST_F(SimFileTest, NobarrierSyncSkipsJournalWhenMetadataClean) {
  SimFileSystem::Options o = FsOptions();
  o.write_barriers = false;
  SimFileSystem nofs(&dev_, o);
  SimFile* f = nofs.Open("f");
  ASSERT_TRUE(f->Allocate(16 * 4096).ok());  // Preallocate (fio-style).
  auto s = f->Sync(0);                       // Journals the allocation.
  const uint64_t journals = nofs.stats().journal_writes;
  // In-place write, no metadata change:
  const auto w = f->Write(s.done, 0, std::string(4096, 'z'));
  s = f->Sync(w.done);
  EXPECT_EQ(nofs.stats().journal_writes, journals);
}

TEST_F(SimFileTest, AllocateExtendsWithoutWrites) {
  SimFile* f = fs_->Open("f");
  ASSERT_TRUE(f->Allocate(64 * 4096).ok());
  EXPECT_EQ(f->size(), 64u * 4096);
  EXPECT_TRUE(f->metadata_dirty());
}

TEST_F(SimFileTest, TruncateShrinksLogicalSize) {
  SimFile* f = fs_->Open("f");
  ASSERT_TRUE(f->Write(0, 0, std::string(8192, 't')).status.ok());
  ASSERT_TRUE(f->Truncate(4096).ok());
  EXPECT_EQ(f->size(), 4096u);
}

TEST_F(SimFileTest, FsyncBatchingSharesDeviceFlushes) {
  SimFile* f = fs_->Open("f");
  // Three syncs whose arrival times overlap a queued flush should produce
  // fewer device flushes than syncs.
  auto w1 = f->Write(0, 0, std::string(4096, '1'));
  auto s1 = f->Sync(w1.done);
  auto w2 = f->Write(w1.done + 1000, 4096, std::string(4096, '2'));
  f->Sync(w2.done);
  auto w3 = f->Write(w1.done + 2000, 8192, std::string(4096, '3'));
  auto s3 = f->Sync(w3.done);
  EXPECT_EQ(fs_->stats().syncs, 3u);
  // s2 and s3 share the second flush window (group commit).
  EXPECT_LE(dev_.stats().flushes, 2u + 1u);
  EXPECT_GE(s3.done, s1.done);
}

TEST_F(SimFileTest, FileSystemFullReported) {
  SimFile* f = fs_->Open("big");
  // ~200 MiB device: allocating 10 GiB must fail.
  EXPECT_TRUE(f->Allocate(10 * kGiB).IsOutOfSpace());
}

}  // namespace
}  // namespace durassd
