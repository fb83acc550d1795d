#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

constexpr uint32_t kSector = 4 * kKiB;

std::string SectorData(char fill) { return std::string(kSector, fill); }

// ---------------------------------------------------------------------------
// Functional round trips
// ---------------------------------------------------------------------------

TEST(SsdDeviceTest, WriteThenReadRoundTrips) {
  SsdDevice dev(SsdConfig::Tiny(true));
  const auto w = dev.Write(0, 5, SectorData('a'));
  ASSERT_TRUE(w.status.ok());
  EXPECT_GT(w.done, 0);

  std::string out;
  const auto r = dev.Read(w.done, 5, 1, &out);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(out, SectorData('a'));
}

TEST(SsdDeviceTest, MultiSectorWriteRoundTrips) {
  SsdDevice dev(SsdConfig::Tiny(true));
  std::string data = SectorData('1') + SectorData('2') + SectorData('3');
  const auto w = dev.Write(0, 10, data);
  ASSERT_TRUE(w.status.ok());

  std::string out;
  ASSERT_TRUE(dev.Read(w.done, 10, 3, &out).status.ok());
  EXPECT_EQ(out, data);
}

TEST(SsdDeviceTest, TimingOnlyCachedReadTimesLikeItsRealBytesTwin) {
  // A read that asks for bytes is served by a resident cache entry on a
  // timing-only device (store_data = false) just as on its real-bytes
  // twin: same hit, same completion time. The timing-only entry holds no
  // payload, so its sector reads as the zeros the FTL would return.
  struct Probe {
    BlockDevice::Result read;
    std::string out;
    uint64_t hits;
    uint64_t misses;
  };
  const auto run = [](bool store_data) {
    SsdConfig cfg = SsdConfig::Tiny(true);
    cfg.store_data = store_data;
    SsdDevice dev(cfg);
    const auto w = dev.Write(0, 5, SectorData('t'));
    EXPECT_TRUE(w.status.ok());
    const auto f = dev.Flush(w.done);  // The sector is on NAND and cached.
    EXPECT_TRUE(f.status.ok());
    Probe p;
    p.read = dev.Read(f.done, 5, 1, &p.out);
    p.hits = dev.stats().cache_read_hits;
    p.misses = dev.stats().cache_read_misses;
    return p;
  };
  const Probe real = run(/*store_data=*/true);
  const Probe timing = run(/*store_data=*/false);
  ASSERT_TRUE(real.read.status.ok());
  ASSERT_TRUE(timing.read.status.ok());
  EXPECT_EQ(real.out, SectorData('t'));
  EXPECT_EQ(timing.out, SectorData('\0'));
  EXPECT_EQ(timing.read.done, real.read.done);
  EXPECT_EQ(real.hits, 1u);
  EXPECT_EQ(timing.hits, real.hits);
  EXPECT_EQ(timing.misses, real.misses);
}

TEST(SsdDeviceTest, UnwrittenSectorsReadAsZeros) {
  SsdDevice dev(SsdConfig::Tiny(true));
  std::string out;
  ASSERT_TRUE(dev.Read(0, 42, 1, &out).status.ok());
  EXPECT_EQ(out, SectorData('\0'));
}

TEST(SsdDeviceTest, RejectsMisalignedAndOutOfRange) {
  SsdDevice dev(SsdConfig::Tiny(true));
  EXPECT_FALSE(dev.Write(0, 0, "short").status.ok());
  EXPECT_FALSE(dev.Write(0, dev.num_sectors(), SectorData('x')).status.ok());
  EXPECT_FALSE(dev.Read(0, dev.num_sectors(), 1, nullptr).status.ok());
  EXPECT_FALSE(dev.Read(0, 0, 0, nullptr).status.ok());
}

TEST(SsdDeviceTest, OverwriteReturnsLatestFromCache) {
  SsdDevice dev(SsdConfig::Tiny(true));
  auto w1 = dev.Write(0, 3, SectorData('x'));
  auto w2 = dev.Write(w1.done, 3, SectorData('y'));
  std::string out;
  ASSERT_TRUE(dev.Read(w2.done, 3, 1, &out).status.ok());
  EXPECT_EQ(out, SectorData('y'));
}

TEST(SsdDeviceTest, OfflineDeviceRejectsEverything) {
  SsdDevice dev(SsdConfig::Tiny(true));
  dev.PowerCut(0);
  EXPECT_TRUE(dev.Write(0, 0, SectorData('x')).status.IsDeviceOffline());
  EXPECT_TRUE(dev.Read(0, 0, 1, nullptr).status.IsDeviceOffline());
  EXPECT_TRUE(dev.Flush(0).status.IsDeviceOffline());
}

// ---------------------------------------------------------------------------
// Timing shapes (the physics behind Table 1)
// ---------------------------------------------------------------------------

TEST(SsdDeviceTest, CachedWriteAcksFasterThanWriteThrough) {
  SsdConfig on = SsdConfig::Tiny(true);
  SsdConfig off = SsdConfig::Tiny(true);
  off.cache_enabled = false;
  SsdDevice cached(on);
  SsdDevice through(off);

  const SimTime t_cached = cached.Write(0, 0, SectorData('a')).done;
  const SimTime t_through = through.Write(0, 0, SectorData('a')).done;
  // Cache ack ~ bus+fw (tens of us); write-through pays NAND program +
  // mapping persist (ms).
  EXPECT_LT(t_cached * 5, t_through);
}

TEST(SsdDeviceTest, FlushWaitsForOutstandingDestages) {
  SsdDevice dev(SsdConfig::Tiny(true));
  const auto w = dev.Write(0, 0, SectorData('a'));
  const auto f = dev.Flush(w.done);
  ASSERT_TRUE(f.status.ok());
  // Flush completion covers the NAND program + mapping persist + overhead.
  EXPECT_GT(f.done, w.done + dev.config().geometry.program_latency);
}

TEST(SsdDeviceTest, FlushWithNothingDirtyIsCheap) {
  SsdDevice dev(SsdConfig::Tiny(true));
  const auto w = dev.Write(0, 0, SectorData('a'));
  const auto f1 = dev.Flush(w.done);
  const auto f2 = dev.Flush(f1.done);
  EXPECT_LT(f2.done - f1.done, kMillisecond);  // Second flush: no work.
}

TEST(SsdDeviceTest, PairedSectorsHalveProgramCount) {
  SsdConfig cfg = SsdConfig::Tiny(true);
  SsdDevice dev(cfg);
  // 8 single-sector writes => pending-half pairing => ~4 programs.
  SimTime t = 0;
  for (Lpn l = 0; l < 8; ++l) {
    t = dev.Write(t, l, SectorData('p')).done;
  }
  EXPECT_LE(dev.flash().stats().programs, 4u);
}

TEST(SsdDeviceTest, WriteAmplificationNearOneForSequentialPairs) {
  SsdDevice dev(SsdConfig::Tiny(true));
  SimTime t = 0;
  for (Lpn l = 0; l < 64; ++l) t = dev.Write(t, l, SectorData('s')).done;
  const auto f = dev.Flush(t);
  // 64 x 4KB host = 32 x 8KB programs => WA ~= 1.0 (plus <= one partial).
  EXPECT_NEAR(dev.WriteAmplification(), 1.0, 0.1);
  (void)f;
}

// ---------------------------------------------------------------------------
// Durable cache: atomicity + durability across power failure (Sec. 3.2/3.4)
// ---------------------------------------------------------------------------

TEST(SsdDeviceTest, DurableCacheSurvivesPowerCutWithoutFlush) {
  SsdDevice dev(SsdConfig::Tiny(true));
  const auto w = dev.Write(0, 7, SectorData('D'));
  ASSERT_TRUE(w.status.ok());

  dev.PowerCut(w.done + 1);  // Acked, never flushed, destage in flight.
  dev.PowerOn();

  std::string out;
  ASSERT_TRUE(dev.Read(0, 7, 1, &out).status.ok());
  EXPECT_EQ(out, SectorData('D'));
  EXPECT_EQ(dev.stats().capacitor_overruns, 0u);
}

TEST(SsdDeviceTest, DurableCacheReplaysManyDirtySectors) {
  SsdConfig cfg = SsdConfig::Tiny(true);
  SsdDevice dev(cfg);
  SimTime t = 0;
  for (Lpn l = 0; l < 20; ++l) {
    const auto w = dev.Write(t, l, SectorData('a' + l % 26));
    ASSERT_TRUE(w.status.ok());
    t = w.done;
  }
  dev.PowerCut(t + 1);
  const SimTime recovery = dev.PowerOn();
  EXPECT_GT(recovery, 0);

  for (Lpn l = 0; l < 20; ++l) {
    std::string out;
    ASSERT_TRUE(dev.Read(0, l, 1, &out).status.ok());
    EXPECT_EQ(out, SectorData('a' + l % 26)) << "lpn " << l;
  }
}

TEST(SsdDeviceTest, DurableCacheDiscardsIncompleteCommandWhole) {
  SsdDevice dev(SsdConfig::Tiny(true));
  std::string data = SectorData('1') + SectorData('2');
  const auto w = dev.Write(0, 0, data);
  ASSERT_TRUE(w.status.ok());

  // Cut before the ack: the command never completed; both sectors revert.
  dev.PowerCut(w.done - 1);
  dev.PowerOn();

  std::string out;
  ASSERT_TRUE(dev.Read(0, 0, 2, &out).status.ok());
  EXPECT_EQ(out, SectorData('\0') + SectorData('\0'));
  EXPECT_GE(dev.stats().dropped_incomplete, 1u);
}

TEST(SsdDeviceTest, DurableCacheNeverExposesTornPages) {
  // Overwrite repeatedly and cut mid-destage; the acknowledged version (old
  // or new, depending on the ack boundary) must read back whole.
  for (int cut_us : {10, 50, 100, 400, 800, 1200}) {
    SsdDevice dev(SsdConfig::Tiny(true));
    auto w1 = dev.Write(0, 0, SectorData('A'));
    ASSERT_TRUE(w1.status.ok());
    auto f = dev.Flush(w1.done);
    auto w2 = dev.Write(f.done, 0, SectorData('B'));
    ASSERT_TRUE(w2.status.ok());

    const SimTime cut = f.done + cut_us * kMicrosecond;
    dev.PowerCut(cut);
    dev.PowerOn();

    std::string out;
    ASSERT_TRUE(dev.Read(0, 0, 1, &out).status.ok());
    const bool whole_a = out == SectorData('A');
    const bool whole_b = out == SectorData('B');
    EXPECT_TRUE(whole_a || whole_b) << "cut at +" << cut_us << "us";
    if (cut >= w2.done) {
      // Acked before the cut: durability demands the new version.
      EXPECT_TRUE(whole_b) << "cut at +" << cut_us << "us";
    }
  }
}

TEST(SsdDeviceTest, CoalescedOverwriteRestoresPriorAckedVersion) {
  // A cut before the overwrite's ack restores the prior acknowledged
  // version. The cut may also land before a command the device has already
  // run (the tiered and sweep scenarios cut that way): here a later write
  // to another LPN is serviced past the overwrite's ack, and the overwrite's
  // history must still be there, so it cannot be released once the
  // device's latest command passes the overwrite's ack.
  for (const bool later_write : {false, true}) {
    SsdDevice dev(SsdConfig::Tiny(true));
    const auto w1 = dev.Write(0, 4, SectorData('x'));
    ASSERT_TRUE(w1.status.ok());
    const auto w2 = dev.Write(w1.done, 4, SectorData('y'));
    ASSERT_TRUE(w2.status.ok());
    if (later_write) {
      const auto w3 = dev.Write(w2.done + kMillisecond, 9, SectorData('z'));
      ASSERT_TRUE(w3.status.ok());
    }

    dev.PowerCut(w2.done - 1);  // Second command incomplete.
    dev.PowerOn();

    std::string out;
    ASSERT_TRUE(dev.Read(0, 4, 1, &out).status.ok());
    EXPECT_EQ(out, SectorData('x')) << "later write " << later_write;
    // The later write was submitted after the cut, so it never happened.
    ASSERT_TRUE(dev.Read(0, 9, 1, &out).status.ok());
    EXPECT_EQ(out, SectorData('\0')) << "later write " << later_write;
  }
}

TEST(SsdDeviceTest, CleanShutdownNeedsNoReplay) {
  SsdDevice dev(SsdConfig::Tiny(true));
  const auto w = dev.Write(0, 9, SectorData('c'));
  ASSERT_TRUE(dev.Shutdown(w.done).ok());
  const SimTime boot = dev.PowerOn();
  EXPECT_LT(boot, 10 * kMillisecond);
  EXPECT_EQ(dev.stats().replayed_pages, 0u);

  std::string out;
  ASSERT_TRUE(dev.Read(0, 9, 1, &out).status.ok());
  EXPECT_EQ(out, SectorData('c'));
}

// ---------------------------------------------------------------------------
// Volatile cache: data loss and torn writes (the other 13 of 15 SSDs)
// ---------------------------------------------------------------------------

TEST(SsdDeviceTest, VolatileCacheLosesUnflushedAckedWrites) {
  SsdDevice dev(SsdConfig::Tiny(false));
  ASSERT_FALSE(dev.has_durable_cache());
  const auto w = dev.Write(0, 7, SectorData('L'));
  ASSERT_TRUE(w.status.ok());

  dev.PowerCut(w.done + kSecond);  // Long after ack — still unflushed.
  dev.PowerOn();

  std::string out;
  ASSERT_TRUE(dev.Read(0, 7, 1, &out).status.ok());
  EXPECT_EQ(out, SectorData('\0'));  // Acked data gone.
}

TEST(SsdDeviceTest, VolatileCacheKeepsFlushedWrites) {
  SsdDevice dev(SsdConfig::Tiny(false));
  const auto w = dev.Write(0, 7, SectorData('F'));
  const auto f = dev.Flush(w.done);
  ASSERT_TRUE(f.status.ok());

  dev.PowerCut(f.done + 1);
  dev.PowerOn();

  std::string out;
  ASSERT_TRUE(dev.Read(0, 7, 1, &out).status.ok());
  EXPECT_EQ(out, SectorData('F'));
}

TEST(SsdDeviceTest, VolatileFlushPreservesPrefixProperty) {
  // Writes w0..w9, flush, w10..w19, cut: exactly w0..w9 survive.
  SsdDevice dev(SsdConfig::Tiny(false));
  SimTime t = 0;
  for (Lpn l = 0; l < 10; ++l) t = dev.Write(t, l, SectorData('1')).done;
  t = dev.Flush(t).done;
  for (Lpn l = 10; l < 20; ++l) t = dev.Write(t, l, SectorData('2')).done;

  dev.PowerCut(t + kSecond);
  dev.PowerOn();

  for (Lpn l = 0; l < 10; ++l) {
    std::string out;
    ASSERT_TRUE(dev.Read(0, l, 1, &out).status.ok());
    EXPECT_EQ(out, SectorData('1')) << l;
  }
  for (Lpn l = 10; l < 20; ++l) {
    std::string out;
    ASSERT_TRUE(dev.Read(0, l, 1, &out).status.ok());
    EXPECT_EQ(out, SectorData('\0')) << l;
  }
}

TEST(SsdDeviceTest, WriteThroughCutMidProgramExposesTornPage) {
  SsdConfig cfg = SsdConfig::Tiny(false);
  cfg.cache_enabled = false;  // O_DIRECT-style write-through.
  SsdDevice dev(cfg);

  auto w1 = dev.Write(0, 0, SectorData('O'));
  ASSERT_TRUE(w1.status.ok());
  auto w2 = dev.Write(w1.done, 0, SectorData('N'));
  ASSERT_TRUE(w2.status.ok());

  // Cut while the second (overwrite) program is on the NAND bus.
  dev.PowerCut(w2.done - dev.config().geometry.program_latency / 2 -
               dev.config().geometry.program_latency /* persist cost */);
  dev.PowerOn();

  std::string out;
  ASSERT_TRUE(dev.Read(0, 0, 1, &out).status.ok());
  // Neither whole-old nor whole-new: a shorn page is visible.
  EXPECT_NE(out, SectorData('O'));
  EXPECT_NE(out, SectorData('N'));
}

TEST(SsdDeviceTest, DurableConfigReportsAtomicSupport) {
  SsdDevice dura(SsdConfig::Tiny(true));
  SsdDevice vol(SsdConfig::Tiny(false));
  EXPECT_TRUE(dura.supports_atomic_write());
  EXPECT_TRUE(dura.has_durable_cache());
  EXPECT_FALSE(vol.supports_atomic_write());
}

// ---------------------------------------------------------------------------
// Capacitor budget (Sec. 3.1: "dozens of megabytes")
// ---------------------------------------------------------------------------

TEST(SsdDeviceTest, DumpFitsCapacitorBudgetUnderFullWriteBuffer) {
  SsdConfig cfg = SsdConfig::Tiny(true);
  SsdDevice dev(cfg);
  // Saturate the write buffer, then cut mid-burst.
  SimTime t = 0;
  for (Lpn l = 0; l < cfg.write_buffer_sectors * 2; ++l) {
    const auto w = dev.Write(t, l % dev.num_sectors(), SectorData('b'));
    ASSERT_TRUE(w.status.ok());
    t = w.done;
  }
  dev.PowerCut(t - kMicrosecond);
  EXPECT_EQ(dev.stats().capacitor_overruns, 0u);
  dev.PowerOn();
}

TEST(SsdDeviceTest, ReplayIsIdempotentAcrossDoubleFailure) {
  // Power cut, reboot, immediately cut again before any new I/O: recovery
  // must still produce the same state.
  SsdDevice dev(SsdConfig::Tiny(true));
  const auto w = dev.Write(0, 3, SectorData('R'));
  ASSERT_TRUE(w.status.ok());
  dev.PowerCut(w.done + 1);
  dev.PowerOn();
  dev.PowerCut(1);  // Immediately after boot.
  dev.PowerOn();

  std::string out;
  ASSERT_TRUE(dev.Read(0, 3, 1, &out).status.ok());
  EXPECT_EQ(out, SectorData('R'));
}

TEST(SsdDeviceTest, NextPowerSessionStartsWithIdleNand) {
  // The capacitor dump programs NAND after the cut; those programs belong
  // to the dying session. Reboot recovery must not queue behind them.
  SsdDevice dev(SsdConfig::Tiny(true));
  SimTime t = 0;
  for (Lpn l = 0; l < 24; ++l) {
    const auto w = dev.Write(t, l, SectorData('i'));
    ASSERT_TRUE(w.status.ok());
    t = w.done;
  }
  dev.PowerCut(t + 1);
  ASSERT_GT(dev.stats().dumped_pages, 0u);
  for (uint32_t p = 0; p < dev.flash().geometry().total_planes(); ++p) {
    EXPECT_EQ(dev.flash().plane_ready_time(p), 0) << "plane " << p;
  }
}

// ---------------------------------------------------------------------------
// One sector store: the cache and NAND share reference-counted frames
// ---------------------------------------------------------------------------

// The (ppn, slot) `lpn` maps to, or {kInvalidPpn, 0} when unmapped.
std::pair<Ppn, uint32_t> LocationOf(const SsdDevice& dev, Lpn lpn) {
  const Ftl& ftl = dev.ftl();
  for (Ppn p = 0; p < dev.flash().geometry().total_pages(); ++p) {
    for (uint32_t s = 0; s < ftl.sectors_per_page(); ++s) {
      if (ftl.IsMappedTo(lpn, p, s)) return {p, s};
    }
  }
  return {kInvalidPpn, 0};
}

TEST(SsdDeviceTest, RollbackTargetBytesSurviveTheirSlotsDeath) {
  // A volatile SSD overwrites a page's sectors without a mapping persist:
  // the destage kills the old slots, which are the rollback targets, so
  // they keep their frames and the cut brings the old bytes back.
  SsdDevice dev(SsdConfig::Tiny(false));
  SimTime t = dev.Write(0, 6, SectorData('o') + SectorData('O')).done;
  t = dev.Flush(t).done;
  const auto old_location = LocationOf(dev, 6);
  ASSERT_NE(old_location.first, kInvalidPpn);
  const auto w = dev.Write(t, 6, SectorData('n') + SectorData('N'));
  ASSERT_TRUE(w.status.ok());
  ASSERT_NE(LocationOf(dev, 6), old_location) << "the overwrite destaged";
  ASSERT_EQ(dev.ftl().dirty_mapping_entries(), 2u);

  dev.PowerCut(w.done + kSecond);
  dev.PowerOn();
  std::string out;
  ASSERT_TRUE(dev.Read(0, 6, 2, &out).status.ok());
  EXPECT_EQ(out, SectorData('o') + SectorData('O'));
}

TEST(SsdDeviceTest, CleanCachedSectorReadsItsBytesAfterGcMovesItsPage) {
  // A destaged sector's cache entry shares its frame with its NAND slot.
  // GC moves the slot's frame id to a new page and the old slot dies; the
  // cache's own reference keeps the bytes it serves.
  SsdDevice dev(SsdConfig::Tiny(true));
  SimTime t = dev.Write(0, 100, SectorData('k')).done;
  t = dev.Flush(t).done;
  const auto first = LocationOf(dev, 100);
  ASSERT_NE(first.first, kInvalidPpn);
  // Rewrite a few other sectors until GC relocates sector 100.
  for (int i = 0; i < 5000 && LocationOf(dev, 100) == first; ++i) {
    const auto w = dev.Write(t, (i % 8) * 2,
                             SectorData('a' + i % 26) + SectorData('z'));
    ASSERT_TRUE(w.status.ok());
    t = w.done;
  }
  ASSERT_NE(LocationOf(dev, 100), first) << "GC never moved the sector";
  ASSERT_GT(dev.ftl().stats().gc_runs, 0u);

  const uint64_t hits = dev.stats().cache_read_hits;
  std::string out;
  ASSERT_TRUE(dev.Read(t, 100, 1, &out).status.ok());
  EXPECT_EQ(dev.stats().cache_read_hits, hits + 1);
  EXPECT_EQ(out, SectorData('k'));
  // The relocated NAND copy too, once a clean shutdown empties the cache.
  ASSERT_TRUE(dev.Shutdown(t).ok());
  dev.PowerOn();
  ASSERT_TRUE(dev.Read(0, 100, 1, &out).status.ok());
  EXPECT_EQ(out, SectorData('k'));
}

TEST(SsdDeviceTest, AllZeroHostSectorTakesNoFrame) {
  SsdDevice dev(SsdConfig::Tiny(true));
  const SectorStore& store = dev.flash().store();
  SimTime t = dev.Write(0, 5, SectorData('\0') + SectorData('\0')).done;
  EXPECT_EQ(store.stats().live_frames, 0u);
  t = dev.Flush(t).done;  // Destaged: the page slots name the zero frame.
  EXPECT_EQ(store.stats().live_frames, 0u);
  std::string out;
  ASSERT_TRUE(dev.Read(t, 5, 2, &out).status.ok());
  EXPECT_EQ(out, SectorData('\0') + SectorData('\0'));
  ASSERT_TRUE(dev.Shutdown(t).ok());
  dev.PowerOn();
  ASSERT_TRUE(dev.Read(0, 5, 2, &out).status.ok());
  EXPECT_EQ(out, SectorData('\0') + SectorData('\0'));
}

TEST(SsdDeviceTest, LiveFramesStayBoundedUnderRewrites) {
  // 10,000 rewrites of 64 sectors: a slot that dies hands its frame back,
  // so the store never holds more frames than the cache can plus one per
  // live sector. A cache entry holds at most two: its version and the
  // one-deep history the atomic writer restores when an overwrite turns
  // out incomplete at a cut. Once a clean shutdown empties the cache,
  // exactly one frame per live sector is left.
  const SsdConfig cfg = SsdConfig::Tiny(true);
  SsdDevice dev(cfg);
  constexpr Lpn kLpns = 64;
  Random rng(30);
  SimTime t = 0;
  size_t peak = 0;
  for (uint32_t v = 0; v < 10000; ++v) {
    const Lpn lpn = rng.Uniform(kLpns);
    std::string data = SectorData('a' + v % 26);
    EncodeFixed32(data.data(), v);
    const auto w = dev.Write(t, lpn, data);
    ASSERT_TRUE(w.status.ok()) << v;
    t = w.done;
    peak = std::max(peak, dev.flash().store().stats().live_frames);
  }
  ASSERT_GT(dev.ftl().stats().gc_runs, 0u);
  EXPECT_LE(peak, 2 * cfg.cache_capacity_sectors + kLpns);
  ASSERT_TRUE(dev.Shutdown(t).ok());
  EXPECT_EQ(dev.flash().store().stats().live_frames, kLpns);
}

// ---------------------------------------------------------------------------
// Timing-only twin: a device that keeps no host bytes dumps, replays and
// scans its log through the same code as its real-bytes twin, so the two
// report the same recovery.
// ---------------------------------------------------------------------------

struct TwinCase {
  const char* name;
  bool durable;
  bool log_structured;
};

void PrintTo(const TwinCase& c, std::ostream* os) { *os << c.name; }

struct TwinRecovery {
  SimTime power_on = 0;
  SimTime read_pass_done = 0;
  uint64_t dumped_pages = 0;
  uint64_t replayed_pages = 0;
  uint64_t log_replayed_segments = 0;
  uint64_t log_recovered_sectors = 0;
  uint64_t nand_programs = 0;
  uint64_t nand_erases = 0;
};

/// 150 writes over 90 LPNs, a cut 1 ns after the last ack, a reboot, then
/// one read pass over every LPN.
TwinRecovery RunTwin(const TwinCase& c, bool store_data) {
  SsdConfig cfg = SsdConfig::Tiny(c.durable);
  if (c.log_structured) {
    cfg.destage_mode = SsdConfig::DestageMode::kLogStructured;
  }
  cfg.store_data = store_data;
  SsdDevice dev(cfg);
  EXPECT_EQ(dev.UseLogDestage(), c.log_structured);
  SimTime t = 0;
  for (int i = 0; i < 150; ++i) {
    const auto w = dev.Write(t, static_cast<Lpn>((i * 7) % 90),
                             SectorData(static_cast<char>('a' + i % 26)));
    EXPECT_TRUE(w.status.ok());
    t = w.done;
  }
  dev.PowerCut(t + 1);
  TwinRecovery r;
  r.power_on = dev.PowerOn();
  SimTime tr = r.power_on;
  for (Lpn l = 0; l < 90; ++l) {
    const auto rd = dev.Read(tr, l, 1, nullptr);
    EXPECT_TRUE(rd.status.ok());
    tr = rd.done;
  }
  r.read_pass_done = tr;
  r.dumped_pages = dev.stats().dumped_pages;
  r.replayed_pages = dev.stats().replayed_pages;
  r.log_replayed_segments = dev.stats().log_replayed_segments;
  r.log_recovered_sectors = dev.stats().log_recovered_sectors;
  r.nand_programs = dev.flash().stats().programs;
  r.nand_erases = dev.flash().stats().erases;
  return r;
}

class TimingOnlyTwinTest : public ::testing::TestWithParam<TwinCase> {};

TEST_P(TimingOnlyTwinTest, RecoversLikeItsRealBytesTwin) {
  const TwinRecovery real = RunTwin(GetParam(), /*store_data=*/true);
  const TwinRecovery timing = RunTwin(GetParam(), /*store_data=*/false);
  EXPECT_EQ(timing.power_on, real.power_on);
  EXPECT_EQ(timing.dumped_pages, real.dumped_pages);
  EXPECT_EQ(timing.replayed_pages, real.replayed_pages);
  EXPECT_EQ(timing.log_replayed_segments, real.log_replayed_segments);
  EXPECT_EQ(timing.log_recovered_sectors, real.log_recovered_sectors);
  EXPECT_EQ(timing.nand_programs, real.nand_programs);
  EXPECT_EQ(timing.nand_erases, real.nand_erases);
  EXPECT_EQ(timing.read_pass_done, real.read_pass_done);
  // Each case exercises the recovery it stands for.
  if (GetParam().durable && !GetParam().log_structured) {
    EXPECT_GT(real.dumped_pages, 0u);
  }
  if (GetParam().log_structured) {
    EXPECT_GT(real.log_replayed_segments, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Twins, TimingOnlyTwinTest,
    ::testing::Values(TwinCase{"DuraSsdInPlace", true, false},
                      TwinCase{"DuraSsdLogStructured", true, true},
                      TwinCase{"SsdA", false, false}),
    [](const ::testing::TestParamInfo<TwinCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace durassd
