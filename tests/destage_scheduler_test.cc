// Properties of the parallelism-aware lazy destage scheduler:
//   - idle-aware allocation never programs a busy plane while a fully idle
//     plane (free channel included) exists,
//   - sustained write throughput is monotone in the channel count,
//   - a power cut at any instant recovers every acknowledged sector, even
//     ones whose NAND program was never issued (capacitor dump coverage),
//   - overwrite absorption and multi-plane pairing actually fire,
//   - the destage path reproduces its golden timing bit-for-bit, both in
//     place and log-structured.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "flash/flash_array.h"
#include "ssd/destage_scheduler.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

constexpr uint32_t kSector = 4 * kKiB;

// --- Idle-aware allocation -------------------------------------------------

TEST(NextIdlePlaneTest, NeverPicksBusyPlaneWhileIdlePlaneExists) {
  FlashGeometry g;
  g.channels = 2;
  g.packages_per_channel = 2;
  g.chips_per_package = 1;
  g.planes_per_chip = 2;  // 8 planes.
  g.blocks_per_plane = 8;
  FlashArray flash(FlashArray::Options{g});
  const uint32_t n = g.total_planes();

  Random rng(7);
  SimTime now = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Make a random subset of planes busy by starting erases on them.
    now += g.erase_latency * 2;  // Everything idle again.
    uint32_t busy_mask = static_cast<uint32_t>(rng.Next() % (1u << n));
    for (uint32_t p = 0; p < n; ++p) {
      if (busy_mask & (1u << p)) {
        ASSERT_TRUE(flash
                        .EraseBlock(now, p, static_cast<uint32_t>(
                                                rng.Next() % g.blocks_per_plane))
                        .ok());
      }
    }
    const uint32_t picked = flash.NextIdlePlane(now);
    bool any_idle = false;
    for (uint32_t p = 0; p < n; ++p) {
      if (flash.plane_ready_time(p) <= now) any_idle = true;
    }
    if (any_idle) {
      EXPECT_LE(flash.plane_ready_time(picked), now)
          << "picked busy plane " << picked << " with mask " << busy_mask;
    }
  }
}

TEST(NextIdlePlaneTest, GroupedPickRespectsSiblingBusyTimes) {
  FlashGeometry g;
  g.channels = 2;
  g.packages_per_channel = 2;
  g.chips_per_package = 1;
  g.planes_per_chip = 2;
  g.blocks_per_plane = 8;
  FlashArray flash(FlashArray::Options{g});
  const uint32_t n = g.total_planes();

  Random rng(11);
  SimTime now = 0;
  for (int trial = 0; trial < 300; ++trial) {
    now += g.erase_latency * 2;
    uint32_t busy_mask = static_cast<uint32_t>(rng.Next() % (1u << n));
    for (uint32_t p = 0; p < n; ++p) {
      if (busy_mask & (1u << p)) {
        ASSERT_TRUE(flash.EraseBlock(now, p, 0).ok());
      }
    }
    const uint32_t first = flash.NextIdlePlane(now, 2);
    ASSERT_EQ(first % 2, 0u) << "multi-plane pick must be chip-aligned";
    bool any_idle_pair = false;
    for (uint32_t p = 0; p + 1 < n; p += 2) {
      if (flash.plane_ready_time(p) <= now &&
          flash.plane_ready_time(p + 1) <= now) {
        any_idle_pair = true;
      }
    }
    if (any_idle_pair) {
      EXPECT_LE(flash.plane_ready_time(first), now);
      EXPECT_LE(flash.plane_ready_time(first + 1), now);
    }
  }
}

TEST(NextIdlePlaneTest, StripesRoundRobinWhenAllIdle) {
  FlashArray flash(FlashArray::Options{FlashGeometry::Tiny()});
  const uint32_t n = FlashGeometry::Tiny().total_planes();
  std::vector<uint32_t> picks;
  for (uint32_t i = 0; i < n; ++i) picks.push_back(flash.NextIdlePlane(0));
  for (uint32_t i = 1; i < n; ++i) {
    EXPECT_NE(picks[i], picks[i - 1]) << "all-idle picks must stripe";
  }
}

// --- Channel-count monotonicity --------------------------------------------

SimTime MediaBoundRunEnd(uint32_t channels) {
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.geometry.channels = channels;
  cfg.geometry.packages_per_channel = 2;
  cfg.geometry.chips_per_package = 2;
  cfg.geometry.planes_per_chip = 2;
  cfg.geometry.blocks_per_plane = 256;
  cfg.fw_parallelism = 32;
  cfg.fw_write_base = 10 * kMicrosecond;
  cfg.write_buffer_sectors = 128;
  cfg.cache_capacity_sectors = 256;
  cfg.store_data = false;
  SsdDevice dev(cfg);
  const std::string data(kSector, 'm');
  Random rng(5);
  SimTime t = 0;
  for (int i = 0; i < 2000; ++i) {
    t = dev.Write(t, rng.Uniform(dev.num_sectors()), data).done;
  }
  return dev.Flush(t).done;
}

TEST(DestageSchedulerTest, ThroughputMonotoneInChannelCount) {
  // More channels = more planes = at least as fast. Allow 2% slack for
  // allocation-order noise.
  SimTime prev = MediaBoundRunEnd(1);
  for (uint32_t channels : {2u, 4u, 8u}) {
    const SimTime end = MediaBoundRunEnd(channels);
    EXPECT_LE(end, prev + prev / 50)
        << "channels=" << channels << " slower than half the channels";
    prev = end;
  }
}

// --- Power-cut recovery of acked-but-unissued sectors ----------------------

SsdConfig LazyCutConfig() {
  SsdConfig cfg = SsdConfig::Tiny(true);
  cfg.geometry.blocks_per_plane = 64;
  cfg.geometry.pages_per_block = 16;
  cfg.write_buffer_sectors = 256;  // Large: most sectors stay pending.
  cfg.cache_capacity_sectors = 512;
  cfg.capacitor_budget_bytes = 4 * kMiB;
  cfg.destage_batch_pages = 256;  // Threshold unreachable: fully lazy.
  return cfg;
}

TEST(DestageSchedulerTest, PowerCutRecoversAckedButUnissuedSectors) {
  // Deterministic workload, replayed once per cut instant. Every command
  // acknowledged before the cut must read back intact after recovery — in
  // lazy mode most of them were never issued to NAND and exist only in the
  // capacitor dump.
  constexpr int kWrites = 150;
  auto value = [](int i) {
    std::string v = "sector-" + std::to_string(i) + "-";
    v.resize(kSector, 'p');
    return v;
  };

  // Dry run to learn the ack times and total duration.
  std::vector<SimTime> acks(kWrites, 0);
  SimTime end = 0;
  {
    SsdDevice dev(LazyCutConfig());
    SimTime t = 0;
    for (int i = 0; i < kWrites; ++i) {
      auto r = dev.Write(t, static_cast<Lpn>(i), value(i));
      ASSERT_TRUE(r.status.ok());
      acks[i] = r.done;
      t = r.done;
    }
    end = t;
  }
  ASSERT_GT(end, 0);

  uint64_t total_dumped = 0;
  const int kCuts = 60;  // >= 50 distinct instants.
  for (int c = 1; c <= kCuts; ++c) {
    const SimTime cut = 1 + (end * c) / (kCuts + 1);
    SsdDevice dev(LazyCutConfig());
    SimTime t = 0;
    for (int i = 0; i < kWrites && t < cut; ++i) {
      t = dev.Write(t, static_cast<Lpn>(i), value(i)).done;
    }
    dev.PowerCut(cut);
    dev.PowerOn();
    total_dumped += dev.stats().dumped_pages;
    for (int i = 0; i < kWrites; ++i) {
      if (acks[i] > cut) break;
      std::string got;
      ASSERT_TRUE(dev.Read(0, static_cast<Lpn>(i), 1, &got).status.ok());
      EXPECT_EQ(got, value(i)) << "cut=" << cut << " lost acked write " << i;
    }
  }
  // The sweep must actually have exercised the dump path.
  EXPECT_GT(total_dumped, 0u);
}

// --- Absorption and multi-plane pairing ------------------------------------

TEST(DestageSchedulerTest, OverwriteAbsorptionSavesPrograms) {
  SsdConfig cfg = LazyCutConfig();
  SsdDevice dev(cfg);
  const int kSectors = 64;
  // Burst: submit everything at t=0 so the media saturates and sectors
  // accumulate in the scheduler, then overwrite the same range. Rewrites of
  // pending sectors update the batch in place.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kSectors; ++i) {
      const std::string v(kSector, static_cast<char>('a' + round));
      ASSERT_TRUE(dev.Write(0, static_cast<Lpn>(i), v).status.ok());
    }
  }
  EXPECT_GT(dev.stats().destage_absorbed, 0u);
  SimTime end = dev.Flush(1).done;
  // Absorbed rewrites never cost a program: strictly fewer pages programmed
  // than sectors written / sectors-per-page.
  EXPECT_LT(dev.flash().stats().programs +
                2 * dev.flash().stats().multi_plane_programs,
            static_cast<uint64_t>(3 * kSectors) / 2);
  // And the final contents are the last round's.
  for (int i = 0; i < kSectors; ++i) {
    std::string got;
    ASSERT_TRUE(dev.Read(end, static_cast<Lpn>(i), 1, &got).status.ok());
    EXPECT_EQ(got, std::string(kSector, 'c'));
  }
}

TEST(DestageSchedulerTest, MultiPlaneProgramsPairSiblingPlanes) {
  SsdConfig cfg = LazyCutConfig();
  ASSERT_GE(cfg.geometry.planes_per_chip, 2u);
  {
    SsdDevice dev(cfg);
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(
          dev.Write(0, static_cast<Lpn>(i), std::string(kSector, 'x')).status.ok());
    }
    dev.Flush(1);
    EXPECT_GT(dev.flash().stats().multi_plane_programs, 0u);
  }
  cfg.geometry.planes_per_chip = 1;  // No sibling planes: nothing pairs.
  {
    SsdDevice dev(cfg);
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(
          dev.Write(0, static_cast<Lpn>(i), std::string(kSector, 'x')).status.ok());
    }
    dev.Flush(1);
    EXPECT_EQ(dev.flash().stats().multi_plane_programs, 0u);
  }
}

// --- Drain order -----------------------------------------------------------

// Records every page the scheduler issues, in order.
class RecordingSink : public DestageScheduler::Sink {
 public:
  Status DestagePage(SimTime, const std::vector<Lpn>& group) override {
    pages.push_back(group);
    return Status::OK();
  }
  Status DestagePagePair(SimTime, const std::vector<Lpn>& a,
                         const std::vector<Lpn>& b) override {
    pages.push_back(a);
    pages.push_back(b);
    return Status::OK();
  }
  std::vector<std::vector<Lpn>> pages;
};

TEST(DestageSchedulerTest, ReAddedSectorKeepsItsFirstFifoSlot) {
  // Sector 1 is removed and re-added, so the fifo holds it twice: 1 2 3 4 1.
  // A drain stages it once, at its first slot. Keeping the newer slot
  // instead would issue [2,3] then [4,1].
  RecordingSink sink;
  DestageScheduler sched(&sink, DestageScheduler::Options{
                                    /*sectors_per_page=*/2,
                                    /*batch_pages=*/256,
                                    /*multi_plane=*/false});
  EXPECT_TRUE(sched.Add(1, 0));
  EXPECT_TRUE(sched.Add(2, 0));
  EXPECT_TRUE(sched.Add(3, 0));
  sched.Remove(1);
  EXPECT_TRUE(sched.Add(4, 0));
  EXPECT_TRUE(sched.Add(1, 0));
  ASSERT_TRUE(sched.DrainAll(0).ok());
  EXPECT_EQ(sink.pages,
            (std::vector<std::vector<Lpn>>{{1, 2}, {3, 4}}));
  EXPECT_TRUE(sched.empty());
}

// --- Golden timing ---------------------------------------------------------

// Appends one timing snapshot of `dev` at `t`: the time, then NAND programs,
// multi-plane programs, absorbed rewrites, drain rounds and frame stalls.
void Snapshot(const SsdDevice& dev, SimTime t, std::vector<uint64_t>* f) {
  f->insert(f->end(),
            {static_cast<uint64_t>(t), dev.flash().stats().programs,
             dev.flash().stats().multi_plane_programs,
             dev.stats().destage_absorbed, dev.stats().destage_batches,
             dev.stats().write_stalls});
}

// Timing-only fingerprint of a device config: snapshots after 2,000 random
// writes, after the FLUSH CACHE that follows, and (on a fresh device) after
// 4,096 sequential writes and 2,000 random reads.
std::vector<uint64_t> SerialFingerprint(SsdConfig cfg) {
  cfg.store_data = false;
  std::vector<uint64_t> f;
  {
    SsdDevice dev(cfg);
    const std::string data(kSector, 'w');
    Random rng(3);
    SimTime t = 0;
    for (int i = 0; i < 2000; ++i) {
      t = dev.Write(t, rng.Uniform(dev.num_sectors()), data).done;
    }
    Snapshot(dev, t, &f);
    Snapshot(dev, dev.Flush(t).done, &f);
  }
  {
    SsdDevice dev(cfg);
    const std::string data(kSector, 'r');
    SimTime t = 0;
    for (Lpn l = 0; l < 4096; ++l) t = dev.Write(t, l, data).done;
    Random rng(4);
    for (int i = 0; i < 2000; ++i) {
      t = dev.Read(t, rng.Uniform(4096), 1, nullptr).done;
    }
    Snapshot(dev, t, &f);
  }
  return f;
}

// The serial workload above never outruns the media, so it reaches neither
// frame pressure, absorption nor multi-plane pairing. This one does: 4,000
// writes over a 1,024-sector hot set, all submitted at t=0 through an open
// host interface onto 16 planes with a 256-frame buffer, then FLUSH CACHE.
std::vector<uint64_t> BurstFingerprint(SsdConfig cfg) {
  cfg.store_data = false;
  cfg.geometry.channels = 2;
  cfg.geometry.packages_per_channel = 2;
  cfg.geometry.chips_per_package = 2;
  cfg.geometry.planes_per_chip = 2;
  cfg.geometry.blocks_per_plane = 256;
  cfg.fw_parallelism = 32;
  cfg.fw_write_base = 10 * kMicrosecond;
  cfg.bus_write_bytes_per_ns = 3.2;
  cfg.bus_cmd_overhead = 1 * kMicrosecond;
  cfg.write_buffer_sectors = 256;
  cfg.cache_capacity_sectors = 512;
  std::vector<uint64_t> f;
  SsdDevice dev(cfg);
  const std::string data(kSector, 'b');
  Random rng(5);
  SimTime end = 0;
  for (int i = 0; i < 4000; ++i) {
    end = std::max(end, dev.Write(0, rng.Uniform(1024), data).done);
  }
  Snapshot(dev, end, &f);
  Snapshot(dev, dev.Flush(end).done, &f);
  return f;
}

TEST(DestageSchedulerTest, InPlaceDefaultsReproduceGoldenTiming) {
  // Pins the timing of every drain trigger under the shipped DuraSSD
  // defaults, so a change to the destage path that moves virtual time
  // fails here before it reaches the bench rows.
  const SsdConfig cfg = SsdConfig::DuraSsd();
  EXPECT_EQ(SerialFingerprint(cfg),
            (std::vector<uint64_t>{
                129652000, 1000, 0, 0, 1000, 0,  // 2,000 random writes
                135272480, 1000, 0, 0, 1000, 0,  // FLUSH CACHE
                294421296, 2048, 0, 0, 2048, 0,  // sequential + reads
            }));
  EXPECT_EQ(BurstFingerprint(cfg),
            (std::vector<uint64_t>{
                78244320, 1504, 744, 784, 109, 386,  // burst
                88685280, 1608, 796, 784, 110, 386,  // FLUSH CACHE
            }));
}

TEST(DestageSchedulerTest, LogStructuredReproducesGoldenTiming) {
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.destage_mode = SsdConfig::DestageMode::kLogStructured;
  EXPECT_EQ(SerialFingerprint(cfg),
            (std::vector<uint64_t>{
                129652000, 768, 0, 0, 3, 0,   // 2,000 random writes
                134452000, 768, 0, 0, 3, 0,   // FLUSH CACHE (no drain)
                294421296, 2048, 0, 0, 8, 0,  // sequential + reads
            }));
  EXPECT_EQ(BurstFingerprint(cfg),
            (std::vector<uint64_t>{
                98646800, 2096, 0, 57, 131, 3687,   // burst
                109046800, 2096, 0, 57, 131, 3687,  // FLUSH CACHE
            }));
}

}  // namespace
}  // namespace durassd
