#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "db/wal.h"
#include "host/sim_file.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

class WalTest : public ::testing::Test {
 protected:
  WalTest() : dev_(Config()) {
    fs_ = std::make_unique<SimFileSystem>(&dev_, SimFileSystem::Options{});
    wal_ = std::make_unique<Wal>(fs_->Open("wal.log"), Wal::Options{});
  }

  static SsdConfig Config() {
    SsdConfig c = SsdConfig::Tiny(true);
    c.geometry.blocks_per_plane = 128;
    c.geometry.pages_per_block = 32;
    return c;
  }

  WalRecord Put(TxnId txn, const std::string& key, const std::string& value,
                const std::string& old = "", bool has_old = false) {
    WalRecord r;
    r.type = WalRecordType::kPut;
    r.txn = txn;
    r.tree = 1;
    r.key = key;
    r.value = value;
    r.has_old = has_old;
    r.old_value = old;
    return r;
  }

  SsdDevice dev_;
  std::unique_ptr<SimFileSystem> fs_;
  std::unique_ptr<Wal> wal_;
};

TEST_F(WalTest, RecordEncodeDecodeRoundTrip) {
  WalRecord in = Put(7, "the-key", "the-value", "old-value", true);
  const std::string payload = in.Encode();
  WalRecord out;
  ASSERT_TRUE(WalRecord::Decode(payload, &out));
  EXPECT_EQ(out.type, WalRecordType::kPut);
  EXPECT_EQ(out.txn, 7u);
  EXPECT_EQ(out.tree, 1u);
  EXPECT_EQ(out.key, "the-key");
  EXPECT_EQ(out.value, "the-value");
  EXPECT_TRUE(out.has_old);
  EXPECT_EQ(out.old_value, "old-value");
}

TEST_F(WalTest, DecodeRejectsTruncation) {
  const std::string payload = Put(1, "k", "v").Encode();
  for (size_t cut : {0ul, 1ul, 5ul, payload.size() - 1}) {
    WalRecord out;
    EXPECT_FALSE(WalRecord::Decode(Slice(payload.data(), cut), &out))
        << "cut at " << cut;
  }
}

TEST_F(WalTest, AppendAssignsMonotonicLsns) {
  const Lsn a = wal_->Append(Put(1, "a", "1"));
  const Lsn b = wal_->Append(Put(1, "b", "2"));
  EXPECT_EQ(a, 0u);
  EXPECT_GT(b, a);
  EXPECT_GT(wal_->next_lsn(), b);
}

TEST_F(WalTest, SyncThenReadBack) {
  IoContext io;
  wal_->Append(Put(1, "x", "1"));
  wal_->Append(Put(1, "y", "2"));
  ASSERT_TRUE(wal_->SyncTo(io, wal_->next_lsn()).ok());

  std::vector<WalRecord> records;
  ASSERT_TRUE(wal_->ReadFrom(io, 0, wal_->generation(), &records).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].key, "x");
  EXPECT_EQ(records[1].key, "y");
  EXPECT_EQ(records[0].lsn, 0u);
}

TEST_F(WalTest, ReadStopsAtUnwrittenTail) {
  IoContext io;
  wal_->Append(Put(1, "written", "1"));
  ASSERT_TRUE(wal_->WriteOut(io).ok());
  wal_->Append(Put(1, "buffered-only", "2"));  // Never written.

  std::vector<WalRecord> records;
  ASSERT_TRUE(wal_->ReadFrom(io, 0, wal_->generation(), &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "written");
}

TEST_F(WalTest, GenerationFiltersStaleFrames) {
  IoContext io;
  wal_->Append(Put(1, "old-gen", "1"));
  ASSERT_TRUE(wal_->SyncTo(io, wal_->next_lsn()).ok());

  // Recycle: new generation starting at 0; old frames beyond the new tail
  // must not be replayed.
  wal_->ResetTo(0, wal_->generation() + 1);
  wal_->Append(Put(2, "new-gen", "2"));
  ASSERT_TRUE(wal_->SyncTo(io, wal_->next_lsn()).ok());

  std::vector<WalRecord> records;
  ASSERT_TRUE(wal_->ReadFrom(io, 0, wal_->generation(), &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "new-gen");
}

TEST_F(WalTest, TruncateTailPreventsStaleFrameResurrection) {
  IoContext io;
  // The resurrection hazard is independent of sector sealing: the hole is
  // torn *between* surviving frames of one sync.
  Wal wal(fs_->Open("wal2.log"), Wal::Options{});
  Wal* w = &wal;
  // Durable prefix: one frame, sealed into its own sector by SyncTo's pad.
  w->Append(Put(1, "a", "1"));
  ASSERT_TRUE(w->SyncTo(io, w->next_lsn()).ok());

  // Two more frames reach the file; then a crash loses the FIRST of them
  // while the second survives (the volatile-cache hole). Fake the hole by
  // smashing the first frame's CRC in place.
  const Lsn torn = w->Append(Put(2, "victim", "x"));
  const Lsn stale = w->Append(Put(3, "stale", "y"));
  ASSERT_TRUE(w->SyncTo(io, w->next_lsn()).ok());
  SimFile* f = fs_->Open("wal2.log");
  ASSERT_TRUE(f->Write(io.now, torn + 8, std::string(4, '\xFF')).status.ok());

  // Recovery: replay stops at the torn frame.
  std::vector<WalRecord> records;
  Lsn resume = 0;
  ASSERT_TRUE(w->ReadFrom(io, 0, w->generation(), &records, &resume).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "a");
  ASSERT_EQ(resume, torn);
  w->ResumeAt(resume, w->generation());
  ASSERT_TRUE(w->TruncateTail(resume).ok());

  // New life appends a frame of EXACTLY the torn frame's size ("kk"/"zzzzz"
  // matches "victim"/"x") and writes it out without a sync, as the WAL rule
  // does before a page write, so no pad frame seals the sector. Without the
  // truncation the read cursor would land precisely on the stranded intact
  // frame and resurrect "stale".
  const Lsn fresh = w->Append(Put(4, "kk", "zzzzz"));
  ASSERT_TRUE(w->EnsureWritten(io, fresh).ok());
  ASSERT_EQ(w->next_lsn(), stale);  // The dangerous alignment holds.

  std::vector<WalRecord> again;
  ASSERT_TRUE(w->ReadFrom(io, 0, w->generation(), &again).ok());
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[0].key, "a");
  EXPECT_EQ(again[1].key, "kk");
  EXPECT_EQ(again[1].lsn, fresh);
}

TEST_F(WalTest, TruncateTailIsANoOpAtOrPastEof) {
  IoContext io;
  wal_->Append(Put(1, "a", "1"));
  ASSERT_TRUE(wal_->SyncTo(io, wal_->next_lsn()).ok());
  SimFile* f = fs_->Open("wal.log");
  const uint64_t size = f->size();
  ASSERT_TRUE(wal_->TruncateTail(size).ok());
  EXPECT_EQ(f->size(), size);
  ASSERT_TRUE(wal_->TruncateTail(size + 100).ok());
  EXPECT_EQ(f->size(), size);
}

TEST_F(WalTest, EnsureWrittenHonorsWalRule) {
  IoContext io;
  const Lsn lsn = wal_->Append(Put(1, "page-lsn", "v"));
  EXPECT_EQ(wal_->written_lsn(), 0u);
  ASSERT_TRUE(wal_->EnsureWritten(io, lsn).ok());
  EXPECT_GT(wal_->written_lsn(), lsn);
  // Already written: no-op.
  const Lsn before = wal_->written_lsn();
  ASSERT_TRUE(wal_->EnsureWritten(io, lsn).ok());
  EXPECT_EQ(wal_->written_lsn(), before);
}

TEST_F(WalTest, GroupCommitRidesShareSyncs) {
  IoContext io1{0};
  wal_->Append(Put(1, "a", "1"));
  const Lsn l1 = wal_->next_lsn();
  ASSERT_TRUE(wal_->SyncTo(io1, l1).ok());

  // A second committer whose record was already covered and whose clock is
  // before the first sync's completion rides it.
  IoContext io2{io1.now / 2};
  ASSERT_TRUE(wal_->SyncTo(io2, 0).ok());
  EXPECT_EQ(wal_->stats().group_rides, 1u);
  EXPECT_EQ(io2.now, io1.now);
}

TEST_F(WalTest, SurvivesDevicePowerCycleWhenSynced) {
  IoContext io;
  wal_->Append(Put(1, "durable", "yes"));
  ASSERT_TRUE(wal_->SyncTo(io, wal_->next_lsn()).ok());
  const uint32_t gen = wal_->generation();

  dev_.PowerCut(io.now + 1);
  dev_.PowerOn();

  // Fresh Wal object over the same file (host restart).
  Wal reopened(fs_->Open("wal.log"), Wal::Options{});
  std::vector<WalRecord> records;
  IoContext io2;
  ASSERT_TRUE(reopened.ReadFrom(io2, 0, gen, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "durable");
}

TEST_F(WalTest, UnsyncedTailLostOnVolatileDevice) {
  SsdConfig vc = Config();
  vc.durable_cache = false;
  SsdDevice vdev(vc);
  SimFileSystem vfs(&vdev, SimFileSystem::Options{});
  Wal wal(vfs.Open("wal.log"), Wal::Options{});

  IoContext io;
  wal.Append(Put(1, "lost", "1"));
  ASSERT_TRUE(wal.WriteOut(io).ok());  // Written but never flushed.
  const uint32_t gen = wal.generation();

  vdev.PowerCut(io.now + kSecond);
  vdev.PowerOn();

  Wal reopened(vfs.Open("wal.log"), Wal::Options{});
  std::vector<WalRecord> records;
  IoContext io2;
  ASSERT_TRUE(reopened.ReadFrom(io2, 0, gen, &records).ok());
  EXPECT_TRUE(records.empty());  // The durability gap the paper closes.
}

TEST_F(WalTest, SyncPadsTailToSectorBoundary) {
  IoContext io;
  wal_->Append(Put(1, "a", "1"));
  ASSERT_TRUE(wal_->SyncTo(io, wal_->next_lsn()).ok());
  EXPECT_EQ(wal_->next_lsn() % 4096, 0u);
  EXPECT_GT(wal_->stats().pad_bytes, 0u);

  // Re-syncing with nothing new must not grow the log.
  const Lsn sealed = wal_->next_lsn();
  ASSERT_TRUE(wal_->SyncTo(io, wal_->next_lsn()).ok());
  EXPECT_EQ(wal_->next_lsn(), sealed);

  wal_->Append(Put(2, "b", "2"));
  ASSERT_TRUE(wal_->SyncTo(io, wal_->next_lsn()).ok());

  // Pads are consumed by the reader, never replayed; the resume point
  // includes them.
  std::vector<WalRecord> records;
  Lsn end = 0;
  ASSERT_TRUE(
      wal_->ReadFrom(io, 0, wal_->generation(), &records, &end).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].key, "a");
  EXPECT_EQ(records[1].key, "b");
  EXPECT_EQ(end, wal_->next_lsn());
}

// The bug the crash harness found: an append does a read-modify-write of
// the log's tail sector. Without sector sealing, a power cut shearing the
// NAND program of that rewrite destroys previously FSYNCED commit frames
// sharing the sector — acked durability lost on any volatile-cache device
// that exposes torn writes. With padding, synced sectors are never
// rewritten, so a torn later sync can only lose its own (unacked) frames.
TEST_F(WalTest, SectorPaddingShieldsSyncedFramesFromTornRewrites) {
  SsdConfig vc = Config();
  vc.durable_cache = false;
  SsdDevice vdev(vc);
  SimFileSystem::Options fso;
  fso.write_barriers = true;
  SimFileSystem vfs(&vdev, fso);
  Wal wal(vfs.Open("wal.log"), Wal::Options{});

  IoContext io;
  wal.Append(Put(1, "durable", "1"));
  ASSERT_TRUE(wal.SyncTo(io, wal.next_lsn()).ok());
  const uint32_t gen = wal.generation();

  // A later append reaches the file, then power dies inside the fsync:
  // the in-flight destage program is sheared (torn-write exposure). The
  // sealed tail keeps the rewrite out of the synced frame's sector, so
  // the shear can only take down the torn sync's own (unacked) frames.
  wal.Append(Put(2, "torn", "2"));
  ASSERT_TRUE(wal.WriteOut(io).ok());
  vdev.SchedulePowerCut(io.now + 1);
  EXPECT_FALSE(wal.SyncTo(io, wal.next_lsn()).ok());
  vdev.PowerOn();

  Wal reopened(vfs.Open("wal.log"), Wal::Options{});
  std::vector<WalRecord> records;
  IoContext io2;
  ASSERT_TRUE(reopened.ReadFrom(io2, 0, gen, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "durable");
}

TEST_F(WalTest, ManyRecordsReadBackInOrder) {
  IoContext io;
  for (int i = 0; i < 500; ++i) {
    wal_->Append(Put(i, "key" + std::to_string(i), std::string(i % 200, 'v')));
  }
  ASSERT_TRUE(wal_->SyncTo(io, wal_->next_lsn()).ok());
  std::vector<WalRecord> records;
  ASSERT_TRUE(wal_->ReadFrom(io, 0, wal_->generation(), &records).ok());
  ASSERT_EQ(records.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(records[i].key, "key" + std::to_string(i));
    EXPECT_EQ(records[i].txn, static_cast<TxnId>(i));
  }
}

}  // namespace
}  // namespace durassd
