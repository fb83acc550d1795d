#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "flash/flash_array.h"
#include "flash/sector_store.h"
#include "ssd/ftl.h"

namespace durassd {
namespace {

// Programs sectors given as bytes: each goes into a store frame, the page
// takes its own reference, and the caller's are released.
Status ProgramBytes(FlashArray& flash, Ftl& ftl, SimTime now,
                    const std::vector<std::pair<Lpn, std::string>>& sectors,
                    SimTime* start, SimTime* done) {
  std::vector<Ftl::SectorWrite> w;
  for (const auto& [lpn, bytes] : sectors) {
    w.push_back({lpn, flash.store().Put(bytes)});
  }
  const Status s = ftl.ProgramSectors(now, w, start, done);
  for (const Ftl::SectorWrite& x : w) flash.store().Release(x.frame);
  return s;
}

class FtlTest : public ::testing::Test {
 protected:
  FtlTest()
      : flash_(FlashArray::Options{FlashGeometry::Tiny()}),
        ftl_(&flash_, Ftl::Options{.over_provision = 0.25,
                                   .dump_blocks_per_plane = 2}) {}

  std::string SectorData(char fill) const { return std::string(4 * kKiB, fill); }

  Status WriteOne(SimTime now, Lpn lpn, const std::string& data,
                  SimTime* done = nullptr) {
    SimTime start = 0;
    SimTime d = 0;
    Status s = ProgramBytes(flash_, ftl_, now, {{lpn, data}}, &start, &d);
    if (done != nullptr) *done = d;
    return s;
  }

  FlashArray flash_;
  Ftl ftl_;
};

TEST_F(FtlTest, UnmappedSectorReadsZerosInstantly) {
  std::string out;
  SimTime done = 0;
  ASSERT_TRUE(ftl_.ReadSector(123, 5, &out, &done).ok());
  EXPECT_EQ(done, 123);  // No media access for unmapped sectors.
  EXPECT_EQ(out, std::string(4 * kKiB, '\0'));
  EXPECT_FALSE(ftl_.IsMapped(5));
}

TEST_F(FtlTest, WriteReadRoundTrip) {
  const std::string data = SectorData('a');
  SimTime done = 0;
  ASSERT_TRUE(WriteOne(0, 7, data, &done).ok());
  EXPECT_TRUE(ftl_.IsMapped(7));

  std::string out;
  ftl_.ReadSector(done, 7, &out);
  EXPECT_EQ(out, data);
}

TEST_F(FtlTest, PairsTwoSectorsIntoOneProgram) {
  const std::string a = SectorData('a');
  const std::string b = SectorData('b');
  SimTime start = 0, done = 0;
  ASSERT_TRUE(
      ProgramBytes(flash_, ftl_, 0, {{10, a}, {11, b}}, &start, &done).ok());
  EXPECT_EQ(flash_.stats().programs, 1u);  // One 8KB program for both.

  std::string out;
  ftl_.ReadSector(done, 10, &out);
  EXPECT_EQ(out, a);
  ftl_.ReadSector(done, 11, &out);  // Appends to what `out` holds.
  EXPECT_EQ(out, a + b);
}

TEST_F(FtlTest, OverwriteSupersedesOldVersion) {
  ASSERT_TRUE(WriteOne(0, 3, SectorData('1')).ok());
  SimTime done = 0;
  ASSERT_TRUE(WriteOne(kMillisecond, 3, SectorData('2'), &done).ok());
  std::string out;
  ftl_.ReadSector(done, 3, &out);
  EXPECT_EQ(out, SectorData('2'));
}

TEST_F(FtlTest, RejectsLpnBeyondCapacity) {
  SimTime start = 0, done = 0;
  const std::string d = SectorData('x');
  EXPECT_FALSE(ProgramBytes(flash_, ftl_, 0, {{ftl_.logical_sectors(), d}},
                           &start, &done)
                   .ok());
}

TEST_F(FtlTest, RejectsOversizedGroup) {
  const std::string d = SectorData('x');
  SimTime start = 0, done = 0;
  EXPECT_FALSE(
      ProgramBytes(flash_, ftl_, 0, {{0, d}, {1, d}, {2, d}}, &start, &done)
          .ok());
}

TEST_F(FtlTest, GarbageCollectionReclaimsSpaceUnderOverwrites) {
  // Working set far below logical capacity, overwritten many times: the FTL
  // must GC and never run out of space.
  const uint64_t hot = 16;
  SimTime t = 0;
  for (int round = 0; round < 200; ++round) {
    for (uint64_t l = 0; l < hot; ++l) {
      SimTime done = 0;
      ASSERT_TRUE(WriteOne(t, l, SectorData('A' + (round % 26)), &done).ok())
          << "round " << round << " lpn " << l;
      t = done;
    }
  }
  EXPECT_GT(ftl_.stats().gc_runs, 0u);
  EXPECT_GT(ftl_.stats().gc_erases, 0u);

  // All hot sectors still readable with the latest content.
  for (uint64_t l = 0; l < hot; ++l) {
    std::string out;
    ftl_.ReadSector(t, l, &out);
    EXPECT_EQ(out, SectorData('A' + (199 % 26)));
  }
}

TEST_F(FtlTest, GcPreservesEveryLiveSector) {
  // Fill a large fraction of logical space with distinct contents, then
  // overwrite half; verify everything after GC activity.
  const uint64_t n = ftl_.logical_sectors() / 2;
  SimTime t = 0;
  for (uint64_t l = 0; l < n; ++l) {
    SimTime done = 0;
    ASSERT_TRUE(WriteOne(t, l, SectorData('a' + l % 26), &done).ok());
    t = done;
  }
  for (uint64_t l = 0; l < n; l += 2) {
    SimTime done = 0;
    ASSERT_TRUE(WriteOne(t, l, SectorData('A' + l % 26), &done).ok());
    t = done;
  }
  for (uint64_t l = 0; l < n; ++l) {
    std::string out;
    ftl_.ReadSector(t, l, &out);
    EXPECT_EQ(out[0], l % 2 == 0 ? 'A' + static_cast<char>(l % 26)
                                 : 'a' + static_cast<char>(l % 26))
        << "lpn " << l;
  }
}

// --------------------------- Mapping persistence --------------------------

TEST_F(FtlTest, RollbackRevertsUnpersistedWrites) {
  SimTime done = 0;
  ASSERT_TRUE(WriteOne(0, 1, SectorData('o'), &done).ok());
  ftl_.PersistMapping();  // 'o' is now stable.

  ASSERT_TRUE(WriteOne(done, 1, SectorData('n'), &done).ok());
  EXPECT_EQ(ftl_.dirty_mapping_entries(), 1u);

  ftl_.PowerCutRollback(done + kSecond, Ftl::PowerCutExposure::kNone);
  std::string out;
  ftl_.ReadSector(0, 1, &out);
  EXPECT_EQ(out, SectorData('o'));  // Lost write: old data visible.
  EXPECT_EQ(ftl_.dirty_mapping_entries(), 0u);
}

TEST_F(FtlTest, RollbackUnmapsNeverPersistedSector) {
  SimTime done = 0;
  ASSERT_TRUE(WriteOne(0, 9, SectorData('x'), &done).ok());
  ftl_.PowerCutRollback(done + kSecond, Ftl::PowerCutExposure::kNone);
  EXPECT_FALSE(ftl_.IsMapped(9));
  std::string out;
  ftl_.ReadSector(0, 9, &out);
  EXPECT_EQ(out, SectorData('\0'));
}

TEST_F(FtlTest, ExposeStartedKeepsInFlightMapping) {
  SimTime done = 0;
  ASSERT_TRUE(WriteOne(0, 4, SectorData('t'), &done).ok());
  // Cut in the middle of the program with the expose flag (the commodity-SSD
  // anomaly): the mapping keeps pointing at the torn page.
  flash_.PowerCut(done - 10);
  ftl_.PowerCutRollback(done - 10, Ftl::PowerCutExposure::kStarted);

  EXPECT_TRUE(ftl_.IsMapped(4));
  std::string out;
  bool torn = false;
  ftl_.ReadSector(0, 4, &out, nullptr, &torn);
  EXPECT_TRUE(torn);
  // First half new, second half shorn.
  EXPECT_EQ(out.substr(0, 2 * kKiB), std::string(2 * kKiB, 't'));
  EXPECT_EQ(out.substr(2 * kKiB), std::string(2 * kKiB, '\0'));
}

TEST(FtlCutTest, CutAtProgramStartAgreesWithTheArray) {
  // FlashArray::PowerCut and the torn-write rollback share one definition
  // of "the cell program had started by the cut": at the start instant the
  // page is still erased, so the mapping rolls back too; one nanosecond
  // later the page is torn and the mapping stays.
  for (const SimTime after_start : {SimTime{0}, SimTime{1}}) {
    FlashArray flash(FlashArray::Options{FlashGeometry::Tiny()});
    Ftl ftl(&flash, Ftl::Options{.over_provision = 0.25,
                                 .dump_blocks_per_plane = 2});
    const std::string data(4 * kKiB, 'c');
    SimTime start = 0;
    SimTime done = 0;
    ASSERT_TRUE(ProgramBytes(flash, ftl, 0, {{7, data}}, &start, &done).ok());
    ASSERT_GT(start, 0);  // The channel transfer comes first.
    const SimTime cut = start + after_start;
    flash.PowerCut(cut);
    ftl.PowerCutRollback(cut, Ftl::PowerCutExposure::kStarted);

    std::string out;
    bool torn = false;
    ASSERT_TRUE(ftl.ReadSector(0, 7, &out, nullptr, &torn).ok());
    SCOPED_TRACE("cut at start + " + std::to_string(after_start));
    EXPECT_EQ(ftl.IsMapped(7), after_start > 0);
    EXPECT_EQ(torn, after_start > 0);
    if (after_start == 0) {
      EXPECT_EQ(out, std::string(4 * kKiB, '\0'));
    }
  }
}

TEST_F(FtlTest, RollbackAfterOverwriteRestoresPersistedVersion) {
  SimTime done = 0;
  ASSERT_TRUE(WriteOne(0, 2, SectorData('p'), &done).ok());
  ftl_.PersistMapping();
  // Two unpersisted overwrites.
  ASSERT_TRUE(WriteOne(done, 2, SectorData('q'), &done).ok());
  ASSERT_TRUE(WriteOne(done, 2, SectorData('r'), &done).ok());

  ftl_.PowerCutRollback(done + kSecond, Ftl::PowerCutExposure::kNone);
  std::string out;
  ftl_.ReadSector(0, 2, &out);
  EXPECT_EQ(out, SectorData('p'));
}

TEST_F(FtlTest, DeadSlotsReleaseFramesUnlessARollbackCanReadThem) {
  // The page holds the only reference to each sector's frame here, so the
  // store's live count is the number of slots that keep their bytes.
  const SectorStore& store = flash_.store();
  SimTime t = 0;
  ASSERT_TRUE(WriteOne(t, 1, SectorData('a'), &t).ok());
  ASSERT_TRUE(WriteOne(t, 1, SectorData('b'), &t).ok());
  EXPECT_EQ(store.stats().live_frames, 1u);  // 'a' was never persisted.
  ftl_.PersistMapping();
  ASSERT_TRUE(WriteOne(t, 1, SectorData('c'), &t).ok());
  ASSERT_TRUE(WriteOne(t, 1, SectorData('d'), &t).ok());
  // 'b', the rollback target, and 'd'.
  EXPECT_EQ(store.stats().live_frames, 2u);
  ftl_.PersistMapping();
  EXPECT_EQ(store.stats().live_frames, 1u);  // The target went with its record.

  ASSERT_TRUE(WriteOne(t, 1, SectorData('e'), &t).ok());
  EXPECT_EQ(store.stats().live_frames, 2u);
  ftl_.PowerCutRollback(t + kSecond, Ftl::PowerCutExposure::kNone);
  EXPECT_EQ(store.stats().live_frames, 1u);  // The lost write's frame went.
  std::string out;
  ASSERT_TRUE(ftl_.ReadSector(t, 1, &out).ok());
  EXPECT_EQ(out, SectorData('d'));
}

// Sector contents unique per (lpn, version): the first 12 bytes carry
// both, so a read shows which write it returns.
std::string VersionedSector(Lpn lpn, uint32_t version) {
  std::string s(4 * kKiB, static_cast<char>('a' + (lpn + version) % 26));
  EncodeFixed64(s.data(), lpn);
  EncodeFixed32(s.data() + 8, version);
  return s;
}

uint64_t Fnv1a(uint64_t h, const std::string& bytes) {
  for (const char c : bytes) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001B3ull;
  }
  return h;
}

TEST_F(FtlTest, GcForcesPersistenceOfReclaimedRollbackTargets) {
  // Persist version 0 of half the logical space, then overwrite at random
  // with no flush until GC has reclaimed many blocks that hold rollback
  // targets. Those entries must be force-persisted (rollback can no longer
  // reach an erased page); every other entry rolls back. The pinned counts
  // and post-rollback content hash were recorded by scanning every
  // unpersisted entry on each erase; the per-block index must match them.
  const uint64_t n = ftl_.logical_sectors() / 2;
  SimTime t = 0;
  for (Lpn l = 0; l < n; ++l) {
    ASSERT_TRUE(WriteOne(t, l, VersionedSector(l, 0), &t).ok());
  }
  ftl_.PersistMapping();
  Random rng(20240611);
  for (uint32_t v = 1; v <= 3000; ++v) {
    const Lpn l = rng.Uniform(n);
    ASSERT_TRUE(WriteOne(t, l, VersionedSector(l, v), &t).ok());
  }
  EXPECT_EQ(ftl_.stats().gc_runs, 1419u);
  EXPECT_EQ(ftl_.stats().forced_persists, 2699u);

  ftl_.PowerCutRollback(t + kSecond, Ftl::PowerCutExposure::kNone);
  uint64_t hash = 0xCBF29CE484222325ull;
  for (Lpn l = 0; l < ftl_.logical_sectors(); ++l) {
    std::string out;
    ASSERT_TRUE(ftl_.ReadSector(t, l, &out).ok());
    if (l < n) {
      // A persisted or force-persisted version of this sector, never
      // another sector's data or zeros.
      ASSERT_EQ(DecodeFixed64(out.data()), l);
    } else {
      ASSERT_FALSE(ftl_.IsMapped(l));
    }
    hash = Fnv1a(hash, out);
  }
  EXPECT_EQ(hash, 4557906032437595016ull);
}

TEST_F(FtlTest, GcSkipsRollbackEntriesRecordedAfterUnmap) {
  // UnmapIfPointsTo drops a delta entry whose rollback target is still
  // indexed under its old block. The rewrite that follows records a fresh
  // entry for the never-persisted mapping; reclaiming the old block must
  // not force-persist that entry, so rollback still unmaps the sector.
  SimTime t = 0;
  ASSERT_TRUE(WriteOne(t, 0, SectorData('p'), &t).ok());
  ftl_.PersistMapping();
  Ppn persisted_ppn = 0;
  uint32_t persisted_slot = 0;
  for (Ppn p = 0; p < flash_.geometry().total_pages(); ++p) {
    for (uint32_t s = 0; s < ftl_.sectors_per_page(); ++s) {
      if (ftl_.IsMappedTo(0, p, s)) {
        persisted_ppn = p;
        persisted_slot = s;
      }
    }
  }
  ASSERT_TRUE(ftl_.IsMappedTo(0, persisted_ppn, persisted_slot));
  const FlashGeometry& g = flash_.geometry();
  const uint32_t plane = g.PlaneOf(persisted_ppn);
  const uint32_t block = g.BlockOf(persisted_ppn);
  const uint32_t erases_before = flash_.erase_count(plane, block);

  ASSERT_TRUE(WriteOne(t, 0, SectorData('q'), &t).ok());
  bool unmapped = false;
  for (Ppn p = 0; p < g.total_pages() && !unmapped; ++p) {
    for (uint32_t s = 0; s < ftl_.sectors_per_page() && !unmapped; ++s) {
      unmapped = ftl_.UnmapIfPointsTo(0, p, s);
    }
  }
  ASSERT_TRUE(unmapped);
  ASSERT_TRUE(WriteOne(t, 0, SectorData('r'), &t).ok());

  for (int round = 0; round < 600; ++round) {
    ASSERT_TRUE(WriteOne(t, 1 + (round % 20), SectorData('z'), &t).ok());
  }
  ASSERT_GT(flash_.erase_count(plane, block), erases_before)
      << "the churn must reclaim the old block";

  ftl_.PowerCutRollback(t + kSecond, Ftl::PowerCutExposure::kNone);
  EXPECT_FALSE(ftl_.IsMapped(0));
  std::string out;
  ASSERT_TRUE(ftl_.ReadSector(t, 0, &out).ok());
  EXPECT_EQ(out, std::string(4 * kKiB, '\0'));
}

// LPNs beyond the logical space reach the FTL from the host and from log
// recovery (decoded from media); none of them may index the forward map.
TEST_F(FtlTest, LpnsBeyondCapacityAreNeverMapped) {
  SimTime done = 0;
  ASSERT_TRUE(WriteOne(0, 0, SectorData('m'), &done).ok());
  Ppn ppn = kInvalidPpn;
  uint32_t slot = 0;
  for (Ppn p = 0; p < flash_.geometry().total_pages() && ppn == kInvalidPpn;
       ++p) {
    for (uint32_t s = 0; s < ftl_.sectors_per_page(); ++s) {
      if (ftl_.IsMappedTo(0, p, s)) {
        ppn = p;
        slot = s;
        break;
      }
    }
  }
  ASSERT_NE(ppn, kInvalidPpn);

  const Lpn past = ftl_.logical_sectors();
  for (const Lpn lpn : {past, past + 1, kInvalidLpn}) {
    EXPECT_FALSE(ftl_.IsMapped(lpn)) << lpn;
    EXPECT_FALSE(ftl_.IsMappedTo(lpn, ppn, slot)) << lpn;
    // (kInvalidPpn / 4, 3) packs to the all-ones value.
    EXPECT_FALSE(ftl_.IsMappedTo(lpn, kInvalidPpn / 4, 3)) << lpn;
    EXPECT_FALSE(ftl_.UnmapIfPointsTo(lpn, ppn, slot)) << lpn;
    EXPECT_FALSE(ftl_.UnmapIfPointsTo(lpn, kInvalidPpn / 4, 3)) << lpn;
    std::string out;
    EXPECT_EQ(ftl_.ReadSector(done, lpn, &out).code(),
              StatusCode::kInvalidArgument)
        << lpn;
    EXPECT_TRUE(out.empty());
  }
  // An unmapped in-range LPN never matches the all-ones location either.
  EXPECT_FALSE(ftl_.IsMappedTo(1, kInvalidPpn / 4, 3));
  EXPECT_FALSE(ftl_.UnmapIfPointsTo(1, kInvalidPpn / 4, 3));
  EXPECT_TRUE(ftl_.IsMappedTo(0, ppn, slot));
}

// --------------------------- Dump area ------------------------------------

TEST_F(FtlTest, DumpAreaProgramsAndReadsBack) {
  std::string payload = "dump-entry";
  ASSERT_TRUE(ftl_.ProgramDumpPage(0, payload).ok());
  std::string back;
  ASSERT_TRUE(ftl_.ReadDumpPage(0, &back).ok());
  EXPECT_EQ(back.substr(0, payload.size()), payload);

  const SimTime erased = ftl_.EraseDumpArea(0);
  EXPECT_GT(erased, 0);
  EXPECT_TRUE(ftl_.ProgramDumpPage(0, payload).ok());  // Usable again.
}

TEST_F(FtlTest, DumpAreaIsOutsideNormalAllocation) {
  // Writing the whole logical space must never touch dump blocks.
  SimTime t = 0;
  for (uint64_t l = 0; l < ftl_.logical_sectors(); ++l) {
    SimTime done = 0;
    ASSERT_TRUE(WriteOne(t, l, SectorData('d'), &done).ok());
    t = done;
  }
  ASSERT_TRUE(ftl_.ProgramDumpPage(0, "still-clean").ok());
}

TEST_F(FtlTest, DumpAreaExhaustionReported) {
  EXPECT_TRUE(
      ftl_.ProgramDumpPage(ftl_.dump_area_pages(), "x").IsOutOfSpace());
}

}  // namespace
}  // namespace durassd
