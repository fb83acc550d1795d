// NAND fault-injection coverage: scripted program/erase failures, the ECC
// read-retry policy, bad-block retirement, and the zero-rate identity
// guarantee (an injector that never fires must not perturb the simulation).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "flash/fault_model.h"
#include "flash/flash_array.h"
#include "flash/geometry.h"
#include "flash/sector_store.h"
#include "ssd/ftl.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

constexpr uint32_t kSector = 4 * kKiB;

std::string SectorData(char fill) { return std::string(kSector, fill); }

// Programs the page image `image` into `ppn` through store frames.
Status Program(FlashArray& flash, SimTime now, Ppn ppn, Slice image,
               SimTime* done) {
  const PageImage frames(&flash.store(), image);
  return flash.ProgramPage(now, ppn, frames.frames(), done);
}

// One-sector FTL program of `data`; the page keeps the only reference.
Status ProgramSector(FlashArray& flash, Ftl& ftl, SimTime now, Lpn lpn,
                     const std::string& data, SimTime* done) {
  const std::vector<Ftl::SectorWrite> w{{lpn, flash.store().Put(data)}};
  SimTime start = 0;
  const Status s = ftl.ProgramSectors(now, w, &start, done);
  flash.store().Release(w[0].frame);
  return s;
}

// --------------------------- FlashArray level -------------------------------

TEST(FaultInjectionFlashTest, ScriptedProgramFailConsumesPage) {
  FlashArray flash(FlashArray::Options{FlashGeometry::Tiny()});
  const FlashGeometry& g = flash.geometry();

  flash.fault_injector().FailProgramAfter(0);
  SimTime done = 0;
  const Status st = Program(flash, 0, g.MakePpn(0, 0, 0), "x", &done);
  EXPECT_TRUE(st.IsIoError());
  EXPECT_GT(done, 0);  // The failed program still took full program time.
  EXPECT_EQ(flash.stats().program_fails, 1u);
  EXPECT_EQ(flash.page_state(g.MakePpn(0, 0, 0)), PageState::kInvalid);
  // The in-order cursor advanced past the dead page: the next page programs.
  EXPECT_EQ(flash.next_program_page(0, 0), 1u);
  EXPECT_TRUE(Program(flash, done, g.MakePpn(0, 0, 1), "y", &done).ok());
}

TEST(FaultInjectionFlashTest, ScriptedEraseFailGrowsBadBlock) {
  FlashArray flash(FlashArray::Options{FlashGeometry::Tiny()});
  const FlashGeometry& g = flash.geometry();
  SimTime done = 0;
  ASSERT_TRUE(Program(flash, 0, g.MakePpn(0, 0, 0), "a", &done).ok());

  flash.fault_injector().FailEraseAfter(0);
  EXPECT_TRUE(flash.EraseBlock(done, 0, 0).IsIoError());
  EXPECT_EQ(flash.stats().erase_fails, 1u);
  EXPECT_EQ(flash.stats().bad_blocks, 1u);
  EXPECT_TRUE(flash.is_bad_block(0, 0));

  // A bad block refuses programs and further erases.
  EXPECT_TRUE(Program(flash, done, g.MakePpn(0, 0, 1), "b", &done)
                  .IsIoError());
  EXPECT_TRUE(flash.EraseBlock(done, 0, 0).IsIoError());
  EXPECT_EQ(flash.stats().erase_fails, 1u);  // Bad-block guard, not a fail.
}

TEST(FaultInjectionFlashTest, RawReaderSeesFlippedBits) {
  FlashArray flash(FlashArray::Options{FlashGeometry::Tiny()});
  const FlashGeometry& g = flash.geometry();
  const std::string data(g.page_size, 'd');
  SimTime done = 0;
  ASSERT_TRUE(Program(flash, 0, g.MakePpn(0, 0, 0), data, &done).ok());

  // A fault-unaware caller (no raw_bit_errors out-param) gets the flips
  // applied to the returned bytes.
  flash.fault_injector().FlipBitsOnReadAfter(0, 3);
  std::string out;
  flash.ReadPage(done, g.MakePpn(0, 0, 0), &out);
  EXPECT_NE(out, data);

  // An ECC-aware caller gets pristine bytes plus the raw error count.
  flash.fault_injector().FlipBitsOnReadAfter(0, 3);
  uint32_t raw = 0;
  flash.ReadPage(done, g.MakePpn(0, 0, 0), &out, &raw);
  EXPECT_EQ(raw, 3u);
  EXPECT_EQ(out, data);
}

// ------------------------------- Ftl level ----------------------------------

class FaultInjectionFtlTest : public ::testing::Test {
 protected:
  FaultInjectionFtlTest()
      : flash_(FlashArray::Options{FlashGeometry::Tiny()}),
        ftl_(&flash_, Ftl::Options{.over_provision = 0.25,
                                   .dump_blocks_per_plane = 2}) {}

  Status WriteOne(SimTime now, Lpn lpn, const std::string& data,
                  SimTime* done = nullptr) {
    SimTime d = 0;
    Status s = ProgramSector(flash_, ftl_, now, lpn, data, &d);
    if (done != nullptr) *done = d;
    return s;
  }

  FlashArray flash_;
  Ftl ftl_;
};

TEST_F(FaultInjectionFtlTest, ProgramFailIsRetriedAndBlockRetired) {
  SimTime t = 0;
  for (Lpn l = 0; l < 6; ++l) {
    ASSERT_TRUE(WriteOne(t, l, SectorData('a' + l), &t).ok());
  }

  flash_.fault_injector().FailProgramAfter(0);
  ASSERT_TRUE(WriteOne(t, 6, SectorData('x'), &t).ok());  // Transparent.

  EXPECT_EQ(flash_.stats().program_fails, 1u);
  EXPECT_EQ(ftl_.stats().program_retries, 1u);
  EXPECT_EQ(flash_.stats().bad_blocks, 1u);  // Failed block retired.

  // Every acknowledged sector — including those that lived in the retired
  // block and were relocated — reads back exactly.
  for (Lpn l = 0; l <= 6; ++l) {
    std::string out;
    ASSERT_TRUE(ftl_.ReadSector(t, l, &out).ok()) << "lpn " << l;
    EXPECT_EQ(out, SectorData(l == 6 ? 'x' : 'a' + l)) << "lpn " << l;
  }
}

TEST_F(FaultInjectionFtlTest, GcSurvivesEraseFailure) {
  // The first erase this FTL ever issues is a GC erase; script it to fail.
  flash_.fault_injector().FailEraseAfter(0);

  SimTime t = 0;
  for (int round = 0; round < 400; ++round) {
    const Lpn l = round % 12;
    ASSERT_TRUE(WriteOne(t, l, SectorData('a' + l % 26), &t).ok());
  }
  ASSERT_GT(ftl_.stats().gc_runs, 0u);
  EXPECT_EQ(flash_.stats().erase_fails, 1u);
  EXPECT_EQ(flash_.stats().bad_blocks, 1u);

  for (Lpn l = 0; l < 12; ++l) {
    std::string out;
    ASSERT_TRUE(ftl_.ReadSector(t, l, &out).ok());
    EXPECT_EQ(out, SectorData('a' + l % 26)) << "lpn " << l;
  }
}

TEST_F(FaultInjectionFtlTest, EccCorrectsWithinBudget) {
  SimTime t = 0;
  ASSERT_TRUE(WriteOne(0, 3, SectorData('e'), &t).ok());

  flash_.fault_injector().FlipBitsOnReadAfter(0, 5);  // Budget is 8.
  std::string out;
  ASSERT_TRUE(ftl_.ReadSector(t, 3, &out).ok());
  EXPECT_EQ(out, SectorData('e'));
  EXPECT_EQ(ftl_.stats().ecc_corrected, 5u);
  EXPECT_EQ(ftl_.stats().read_retries, 0u);
  EXPECT_EQ(ftl_.stats().uncorrectable_reads, 0u);
}

TEST_F(FaultInjectionFtlTest, ReadRetryRecoversFromBurstErrors) {
  SimTime t = 0;
  ASSERT_TRUE(WriteOne(0, 3, SectorData('r'), &t).ok());

  // First sense returns 20 raw errors (over the budget of 8); the retry
  // senses clean.
  flash_.fault_injector().FlipBitsOnReadAfter(0, 20);
  std::string out;
  SimTime done = 0;
  ASSERT_TRUE(ftl_.ReadSector(t, 3, &out, &done).ok());
  EXPECT_EQ(out, SectorData('r'));
  EXPECT_EQ(ftl_.stats().read_retries, 1u);
  EXPECT_EQ(ftl_.stats().uncorrectable_reads, 0u);
  EXPECT_EQ(flash_.stats().reads, 2u);  // Initial read + one retry.
}

TEST(FaultInjectionEccTest, UncorrectableReadReportsCorruption) {
  FlashArray flash(FlashArray::Options{FlashGeometry::Tiny()});
  // Tight ECC: 2 correctable bits.
  Ftl ftl(&flash, Ftl::Options{.over_provision = 0.25,
                               .dump_blocks_per_plane = 2,
                               .ecc_correctable_bits = 2});

  const std::string data = SectorData('u');
  SimTime done = 0;
  ASSERT_TRUE(ProgramSector(flash, ftl, 0, 7, data, &done).ok());

  // The initial read and every retry come back over budget.
  for (uint32_t i = 0; i <= Ftl::kReadRetryLimit; ++i) {
    flash.fault_injector().FlipBitsOnReadAfter(i, 10);
  }
  std::string out;
  const Status st = ftl.ReadSector(done, 7, &out);
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_EQ(ftl.stats().read_retries, Ftl::kReadRetryLimit);
  EXPECT_EQ(ftl.stats().uncorrectable_reads, 1u);
}

// ----------------------------- Device level ---------------------------------

TEST(FaultInjectionDeviceTest, ScriptedProgramFailsAreInvisibleToHost) {
  SsdConfig cfg = SsdConfig::Tiny(true);
  SsdDevice dev(cfg);

  SimTime t = 0;
  for (Lpn l = 0; l < 8; ++l) {
    const auto w = dev.Write(t, l, SectorData('A' + l));
    ASSERT_TRUE(w.status.ok());
    t = w.done;
  }
  // Fail the next two NAND programs (destages of the writes below).
  dev.fault_injector().FailProgramAfter(0);
  dev.fault_injector().FailProgramAfter(1);
  for (Lpn l = 8; l < 12; ++l) {
    const auto w = dev.Write(t, l, SectorData('A' + l));
    ASSERT_TRUE(w.status.ok());
    t = w.done;
  }
  const auto f = dev.Flush(t);
  ASSERT_TRUE(f.status.ok());
  t = f.done;

  EXPECT_EQ(dev.flash().stats().program_fails, 2u);
  EXPECT_GE(dev.flash().stats().bad_blocks, 1u);

  // Power-cycle so reads come from NAND, not the device cache.
  dev.PowerCut(t + kSecond);
  dev.PowerOn();
  for (Lpn l = 0; l < 12; ++l) {
    std::string got;
    const auto r = dev.Read(0, l, 1, &got);
    ASSERT_TRUE(r.status.ok()) << "lpn " << l;
    EXPECT_EQ(got, SectorData('A' + l)) << "lpn " << l;
  }
  EXPECT_EQ(dev.ftl().stats().uncorrectable_reads, 0u);
}

TEST(FaultInjectionDeviceTest, ArmedButSilentInjectorChangesNothing) {
  // A device whose injector can fire (enabled) but never actually does must
  // produce bit-identical timing and stats to a fault-free device.
  SsdConfig plain_cfg = SsdConfig::Tiny(true);
  SsdDevice plain(plain_cfg);

  SsdConfig armed_cfg = SsdConfig::Tiny(true);
  SsdDevice armed(armed_cfg);
  armed.fault_injector().FailProgramAfter(1u << 30);  // Never reached.

  SimTime tp = 0;
  SimTime ta = 0;
  for (int i = 0; i < 60; ++i) {
    const Lpn lpn = i % 16;
    const auto wp = plain.Write(tp, lpn, SectorData('a' + i % 26));
    const auto wa = armed.Write(ta, lpn, SectorData('a' + i % 26));
    ASSERT_TRUE(wp.status.ok());
    ASSERT_TRUE(wa.status.ok());
    ASSERT_EQ(wp.done, wa.done) << "write " << i;
    tp = wp.done;
    ta = wa.done;
  }
  for (Lpn l = 0; l < 16; ++l) {
    std::string gp;
    std::string ga;
    const auto rp = plain.Read(tp, l, 1, &gp);
    const auto ra = armed.Read(ta, l, 1, &ga);
    ASSERT_TRUE(rp.status.ok());
    ASSERT_TRUE(ra.status.ok());
    EXPECT_EQ(rp.done, ra.done);
    EXPECT_EQ(gp, ga);
  }
  EXPECT_EQ(plain.flash().stats().reads, armed.flash().stats().reads);
  EXPECT_EQ(plain.flash().stats().programs, armed.flash().stats().programs);
  EXPECT_EQ(plain.flash().stats().erases, armed.flash().stats().erases);
  EXPECT_EQ(plain.ftl().stats().ecc_corrected, 0u);
  EXPECT_EQ(armed.ftl().stats().ecc_corrected, 0u);
}

TEST(FaultInjectionDeviceTest, LostDumpHeaderFallsBackToFullScan) {
  // The dump header page is the single point replay trusts for the entry
  // count. Lose it to an uncorrectable read and recovery must degrade to
  // the full self-describing scan — not drop the dump.
  SsdConfig cfg = SsdConfig::Tiny(true);
  cfg.ecc_correctable_bits = 8;  // Budget far below the scripted burst.
  SsdDevice dev(cfg);

  // Enough back-to-back writes to saturate the media: the tail sectors are
  // still pending (never issued) at the cut, so they exist only in the dump.
  SimTime t = 0;
  for (Lpn l = 0; l < 16; ++l) {
    const auto w = dev.Write(t, l, SectorData('H' + l));
    ASSERT_TRUE(w.status.ok());
    t = w.done;
  }
  dev.PowerCut(t);
  ASSERT_GT(dev.stats().dumped_pages, 0u);
  // The first flash reads after the cut are ReplayDump's header read and
  // its retries: flip every attempt.
  for (uint32_t i = 0; i <= Ftl::kReadRetryLimit; ++i) {
    dev.fault_injector().FlipBitsOnReadAfter(i, 4096);
  }
  dev.PowerOn();

  EXPECT_GE(dev.ftl().stats().uncorrectable_reads, 1u);
  EXPECT_GT(dev.stats().replayed_pages, 0u);  // Fallback scan found entries.
  for (Lpn l = 0; l < 16; ++l) {
    std::string got;
    ASSERT_TRUE(dev.Read(0, l, 1, &got).status.ok()) << "lpn " << l;
    EXPECT_EQ(got, SectorData('H' + l)) << "lpn " << l;
  }
}

TEST(FaultInjectionDeviceTest, DumpSurvivesProgramFailDuringCapacitorDump) {
  SsdConfig cfg = SsdConfig::Tiny(true);
  SsdDevice dev(cfg);

  SimTime t = 0;
  for (Lpn l = 0; l < 6; ++l) {
    const auto w = dev.Write(t, l, SectorData('D' + l));
    ASSERT_TRUE(w.status.ok());
    t = w.done;
  }
  // Cut power immediately — the cached sectors go through the capacitor
  // dump, and one dump-page program fails mid-dump.
  dev.fault_injector().FailProgramAfter(2);
  dev.PowerCut(t);
  dev.PowerOn();

  for (Lpn l = 0; l < 6; ++l) {
    std::string got;
    ASSERT_TRUE(dev.Read(0, l, 1, &got).status.ok());
    EXPECT_EQ(got, SectorData('D' + l)) << "lpn " << l;
  }
  EXPECT_EQ(dev.stats().capacitor_overruns, 0u);
}

}  // namespace
}  // namespace durassd
