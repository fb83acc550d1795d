// Barrier-enabled I/O stack (epoch-based ordering without waiting):
//
//   - Epoch power-cut property sweep (120 seeded cut instants): with
//     BARRIER commands sealing epochs between bursts, the survivor set
//     after a cut may reorder freely *within* an epoch but never across
//     one — no write of epoch N+1 survives while a write of epoch N is
//     lost — even on the unordered queue, where only the epoch floor
//     provides the guarantee.
//   - Fault-injection interaction: NAND program failures force the
//     destage scheduler to re-drive writes from older epochs; the epoch
//     guarantee and the device's own epoch oracle must hold regardless.
//   - Equivalence: with exactly one write per epoch, the barrier clamp
//     degenerates to the ordered-NCQ ack clamp — acknowledgment times are
//     bit-identical, and so are power-cut survivor sets.
//   - Group commit: replacing the commit fsync with a barrier neither
//     splits acknowledged groups nor loses acked commits across a cut.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "db/database.h"
#include "db/io_context.h"
#include "db/wal.h"
#include "host/sim_file.h"
#include "sim/sim_executor.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

constexpr uint32_t kSector = 4 * kKiB;

std::string Value(uint64_t version, uint32_t nsec) {
  std::string v = "bar-" + std::to_string(version) + "-";
  v.resize(static_cast<size_t>(nsec) * kSector, 'x');
  return v;
}

SsdConfig SmallConfig(bool ordered) {
  SsdConfig cfg = SsdConfig::Tiny(true);
  cfg.geometry.blocks_per_plane = 64;
  cfg.geometry.pages_per_block = 16;
  cfg.ordered_queue = ordered;
  // Roomy buffer so mixed-size commands acknowledge firmware-bound and
  // out of submission order on the unordered queue (see ordered_ncq_test).
  cfg.write_buffer_sectors = 256;
  cfg.cache_capacity_sectors = 512;
  cfg.capacitor_budget_bytes = 4 * kMiB;
  return cfg;
}

struct EpochCmd {
  CmdId id;
  Lpn lpn;
  uint32_t nsec;
  uint64_t version;
  uint64_t epoch;
};

/// Submits bursts of mixed-size writes, sealing an epoch with a BARRIER
/// after each burst *without awaiting the writes* — the barrier orders the
/// stream while bursts keep overlapping inside the device (ordering
/// without waiting). Stops starting bursts at `stop_at` (0 = never).
/// `*end` receives the latest acknowledgment/completion instant.
std::vector<EpochCmd> RunEpochBursts(SsdDevice* dev, uint64_t seed,
                                     SimTime stop_at, SimTime* end) {
  Random rng(seed);
  std::vector<EpochCmd> cmds;
  SimTime t = 0;
  SimTime latest = 0;
  Lpn next_lpn = 0;
  for (uint64_t burst = 0; burst < 12; ++burst) {
    if (stop_at != 0 && t >= stop_at) break;
    for (int i = 0; i < 6; ++i) {
      const uint32_t nsec = (rng.Next() % 2 == 0) ? 8 : 1;
      const uint64_t version = cmds.size();
      const CmdId id = dev->Submit(
          t, BlockDevice::Command::MakeWrite(next_lpn, Value(version, nsec)));
      cmds.push_back({id, next_lpn, nsec, version, burst});
      latest = std::max(latest, dev->Find(id)->done);
      next_lpn += nsec;
    }
    const BlockDevice::Result b = dev->Barrier(t);
    if (!b.status.ok()) break;
    latest = std::max(latest, b.done);
    // The next burst starts when the barrier completes — microseconds
    // later, long before the sealed epoch's writes finish acknowledging.
    t = b.done;
  }
  *end = latest;
  return cmds;
}

/// Classifies a command after the cut: +1 fully readable, 0 fully absent
/// (zeros), -1 torn/garbage (always a violation on a durable device).
int Survived(SsdDevice* dev, const EpochCmd& c) {
  std::string got;
  if (!dev->Read(0, c.lpn, c.nsec, &got).status.ok()) return -1;
  if (got == Value(c.version, c.nsec)) return 1;
  if (got == std::string(static_cast<size_t>(c.nsec) * kSector, '\0')) {
    return 0;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Epoch power-cut property sweep
// ---------------------------------------------------------------------------

TEST(BarrierEpochPowerCut, SurvivorsNeverCrossEpochs) {
  uint64_t total_clamps = 0;
  int instants = 0;
  int intra_epoch_partial = 0;
  for (uint64_t seed : {101u, 202u, 303u}) {
    SimTime total = 0;
    {
      // The unordered queue: only the epoch floor orders anything.
      SsdDevice probe(SmallConfig(false));
      SimTime end = 0;
      RunEpochBursts(&probe, seed, 0, &end);
      total = end;
      EXPECT_GT(probe.stats().barriers, 0u);
    }
    for (int f = 1; f <= 40; ++f) {
      ++instants;
      const SimTime cut = total * f / 41 + f;  // Off-grid instants.
      SsdDevice dev(SmallConfig(false));
      SimTime end = 0;
      const std::vector<EpochCmd> cmds = RunEpochBursts(&dev, seed, cut, &end);
      dev.PowerCut(std::max<SimTime>(cut, 1));
      dev.PowerOn();

      int64_t max_survivor_epoch = -1;
      int64_t min_lost_epoch = static_cast<int64_t>(cmds.size()) + 1;
      std::map<uint64_t, std::pair<bool, bool>> per_epoch;  // (lost, kept)
      for (const EpochCmd& c : cmds) {
        const int s = Survived(&dev, c);
        ASSERT_GE(s, 0) << "torn command " << c.version << " seed " << seed
                        << " cut " << cut;
        if (s == 1) {
          max_survivor_epoch =
              std::max(max_survivor_epoch, static_cast<int64_t>(c.epoch));
          per_epoch[c.epoch].second = true;
        } else {
          min_lost_epoch =
              std::min(min_lost_epoch, static_cast<int64_t>(c.epoch));
          per_epoch[c.epoch].first = true;
        }
      }
      // The epoch property: a loss in epoch N kills every later epoch.
      // Losing and keeping within ONE epoch is legal (and must occur
      // somewhere in the sweep, or the property would be vacuous).
      EXPECT_LE(max_survivor_epoch, min_lost_epoch)
          << "cross-epoch survivor, seed " << seed << " cut " << cut;
      for (const auto& [epoch, lk] : per_epoch) {
        if (lk.first && lk.second) intra_epoch_partial++;
      }
      EXPECT_EQ(dev.stats().epoch_ordering_violations, 0u)
          << "seed " << seed << " cut " << cut;
      EXPECT_EQ(dev.stats().ordering_violations, 0u);
      total_clamps += dev.stats().epoch_ack_clamps;
    }
  }
  EXPECT_GE(instants, 120);
  // The epoch floor really engaged: next-epoch writes would otherwise
  // acknowledge before the previous epoch's stragglers.
  EXPECT_GT(total_clamps, 0u);
  // And some cut landed inside an epoch's inversion window, proving the
  // check distinguishes intra-epoch freedom from cross-epoch order.
  EXPECT_GT(intra_epoch_partial, 0);
}

// ---------------------------------------------------------------------------
// Fault injection: program-failure re-drives from older epochs
// ---------------------------------------------------------------------------

SsdConfig FaultyBarrierConfig(uint64_t seed) {
  SsdConfig cfg = SmallConfig(false);
  cfg.faults.seed = seed * 0x9E3779B97F4A7C15ull + 0xBA881E8ull;
  cfg.faults.read_bit_flip_mean = 1.5;
  cfg.faults.read_bit_flip_per_erase = 0.05;
  cfg.faults.program_fail_rate = 0.05;
  cfg.faults.erase_fail_rate = 0.005;
  cfg.ecc_correctable_bits = 24;
  return cfg;
}

TEST(BarrierRedrive, ProgramFailuresPreserveEpochOrder) {
  uint64_t total_program_fails = 0;
  for (uint64_t seed : {7u, 17u, 27u}) {
    SimTime total = 0;
    {
      SsdDevice probe(FaultyBarrierConfig(seed));
      SimTime end = 0;
      RunEpochBursts(&probe, seed, 0, &end);
      total = end;
      total_program_fails += probe.fault_stats().program_fails;
    }
    for (int f = 1; f <= 10; ++f) {
      const SimTime cut = total * f / 11 + f;
      SsdDevice dev(FaultyBarrierConfig(seed));
      SimTime end = 0;
      const std::vector<EpochCmd> cmds = RunEpochBursts(&dev, seed, cut, &end);
      dev.PowerCut(std::max<SimTime>(cut, 1));
      dev.PowerOn();

      int64_t max_survivor_epoch = -1;
      int64_t min_lost_epoch = static_cast<int64_t>(cmds.size()) + 1;
      for (const EpochCmd& c : cmds) {
        const int s = Survived(&dev, c);
        ASSERT_GE(s, 0) << "torn command " << c.version << " under faults, "
                        << "seed " << seed << " cut " << cut;
        if (s == 1) {
          max_survivor_epoch =
              std::max(max_survivor_epoch, static_cast<int64_t>(c.epoch));
        } else {
          min_lost_epoch =
              std::min(min_lost_epoch, static_cast<int64_t>(c.epoch));
        }
      }
      EXPECT_LE(max_survivor_epoch, min_lost_epoch)
          << "re-driven program broke epoch order, seed " << seed << " cut "
          << cut;
      EXPECT_EQ(dev.stats().epoch_ordering_violations, 0u)
          << "seed " << seed << " cut " << cut;
    }
  }
  // The fault model really fired: re-drives actually happened somewhere.
  EXPECT_GT(total_program_fails, 0u);
}

// ---------------------------------------------------------------------------
// Equivalence: one write per epoch == ordered NCQ, bit for bit
// ---------------------------------------------------------------------------

TEST(BarrierEquivalence, OneWriteEpochsMatchOrderedNcqBitForBit) {
  // Device A: ordered NCQ, no barriers. Device B: unordered queue, a
  // BARRIER after every write (epochs of exactly one write). Identical
  // submission schedule; every acknowledgment must match exactly — the
  // barrier costs nothing on the write path because it acquires no shared
  // resource (no bus slot, no firmware slot, no queue entry).
  SsdDevice a(SmallConfig(true));
  SsdDevice b(SmallConfig(false));
  Random rng(4242);
  std::vector<std::pair<CmdId, CmdId>> ids;
  std::vector<EpochCmd> cmds;  // For the survivor comparison (B's view).
  SimTime t = 0;
  SimTime latest = 0;
  Lpn next_lpn = 0;
  for (int burst = 0; burst < 8; ++burst) {
    SimTime burst_done = t;
    for (int i = 0; i < 6; ++i) {
      const uint32_t nsec = (rng.Next() % 2 == 0) ? 8 : 1;
      const uint64_t version = cmds.size();
      const std::string data = Value(version, nsec);
      const CmdId ia =
          a.Submit(t, BlockDevice::Command::MakeWrite(next_lpn, data));
      const CmdId ib =
          b.Submit(t, BlockDevice::Command::MakeWrite(next_lpn, data));
      const BlockDevice::Result bar = b.Barrier(t);
      ASSERT_TRUE(bar.status.ok());
      ids.push_back({ia, ib});
      cmds.push_back({ib, next_lpn, nsec, version, cmds.size()});
      burst_done = std::max(burst_done, a.Find(ia)->done);
      next_lpn += nsec;
    }
    latest = std::max(latest, burst_done);
    t = burst_done;
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    const BlockDevice::Completion ca = a.Await(ids[i].first);
    const BlockDevice::Completion cb = b.Await(ids[i].second);
    ASSERT_TRUE(ca.status.ok());
    ASSERT_TRUE(cb.status.ok());
    ASSERT_EQ(ca.done, cb.done) << "ack " << i << " diverged";
  }
  // The degenerate-epoch clamp engaged exactly as often as the NCQ clamp.
  EXPECT_GT(a.stats().ordered_ack_clamps, 0u);
  EXPECT_EQ(b.stats().epoch_ack_clamps, a.stats().ordered_ack_clamps);

  // Same cut => bit-identical survivor sets.
  const SimTime cut = latest / 2 + 3;
  a.PowerCut(cut);
  b.PowerCut(cut);
  a.PowerOn();
  b.PowerOn();
  EXPECT_EQ(b.stats().epoch_ordering_violations, 0u);
  for (const EpochCmd& c : cmds) {
    std::string ga, gb;
    const bool ra = a.Read(0, c.lpn, c.nsec, &ga).status.ok();
    const bool rb = b.Read(0, c.lpn, c.nsec, &gb).status.ok();
    ASSERT_EQ(ra, rb) << "survivor set diverged at command " << c.version;
    if (ra) {
      EXPECT_EQ(ga, gb) << "survivor data diverged at " << c.version;
    }
  }
}

// ---------------------------------------------------------------------------
// Group commit interaction
// ---------------------------------------------------------------------------

SsdConfig GroupCommitDeviceConfig() {
  SsdConfig dc = SsdConfig::DuraSsd();
  dc.geometry = FlashGeometry::Tiny();
  dc.geometry.blocks_per_plane = 256;
  dc.geometry.pages_per_block = 32;
  dc.capacitor_budget_bytes = 16 * kMiB;
  return dc;
}

Database::Options BarrierDbOptions() {
  Database::Options dbo;
  dbo.pool_bytes = 2 * kMiB;
  dbo.double_write = false;
  dbo.checkpoint_log_bytes = 4 * kMiB;
  dbo.checkpoint_queue_depth = 8;
  dbo.durability_mode = DurabilityMode::kBarrier;
  return dbo;
}

TEST(BarrierGroupCommit, WalBarrierNeverSplitsAnAckedGroup) {
  SsdDevice dev(GroupCommitDeviceConfig());
  SimFileSystem fs(&dev, {});
  MetricsRegistry metrics;
  Wal::Options wo;
  wo.metrics = &metrics;
  wo.durability_mode = DurabilityMode::kBarrier;
  Wal wal(fs.Open("wal"), wo);
  IoContext io;

  WalRecord rec;
  rec.type = WalRecordType::kCommit;
  rec.txn = 1;

  // Two committers append before either syncs; the first barrier covers
  // both records, so the second rides it: one group of two, exactly as in
  // fsync mode — the barrier lands inside the group without splitting it.
  const Lsn a = wal.Append(rec);
  const Lsn b = wal.Append(rec);
  const SimTime entered = io.now;
  ASSERT_TRUE(wal.SyncTo(io, a).ok());
  IoContext io2;
  io2.now = entered;
  ASSERT_TRUE(wal.SyncTo(io2, b).ok());

  EXPECT_EQ(wal.stats().group_rides, 1u);
  EXPECT_EQ(wal.stats().sync_groups, 1u);
  EXPECT_EQ(wal.stats().max_group_commit, 2u);
  EXPECT_EQ(io2.now, io.now);  // Both durable at the same instant.
  // Only the leader issued a barrier; the rider rode it.
  EXPECT_EQ(wal.stats().barrier_commits, 1u);
  const uint64_t* c = metrics.Counter("wal.barrier_commits");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(*c, 1u);
}

/// Runs `total_ops` single-put transactions from `clients` interleaved
/// committers in barrier mode. Returns the acked key/values; `*end`
/// receives the virtual end time.
std::map<std::string, std::string> RunBarrierCommitters(
    SsdDevice* dev, SimFileSystem* fs, uint32_t clients, uint64_t total_ops,
    SimTime cut, SimTime* end, uint64_t* max_group) {
  IoContext io;
  if (cut > 0) dev->SchedulePowerCut(cut);
  std::map<std::string, std::string> acked;
  auto dbo = Database::Open(io, fs, fs, BarrierDbOptions());
  EXPECT_TRUE(dbo.ok());
  if (!dbo.ok()) return acked;
  std::unique_ptr<Database> db = std::move(*dbo);
  auto tree = db->CreateTree(io, "t");
  EXPECT_TRUE(tree.ok());
  if (!tree.ok()) return acked;

  std::vector<uint32_t> op_count(clients, 0);
  SimTime end_time = io.now;
  bool stopped = false;
  const auto fn = [&](uint32_t client, SimTime now) -> SimTime {
    end_time = std::max(end_time, now);
    if (stopped) return now;
    IoContext cio{now};
    const std::string key =
        "c" + std::to_string(client) + "-" + std::to_string(op_count[client]);
    const std::string value = "v" + key;
    op_count[client]++;
    auto txn = db->Begin(cio);
    if (txn.ok() && db->Put(cio, *txn, *tree, key, value).ok() &&
        db->Commit(cio, *txn).ok()) {
      acked[key] = value;
    } else {
      stopped = true;
    }
    end_time = std::max(end_time, cio.now);
    return cio.now;
  };
  SerialExecutor().Run(clients, total_ops, io.now, fn);
  *end = end_time;
  if (max_group != nullptr) *max_group = db->wal_stats().max_group_commit;
  return acked;
}

TEST(BarrierGroupCommit, AckedCommitsSurviveMidRunPowerCut) {
  SimTime total = 0;
  {
    SsdDevice dev(GroupCommitDeviceConfig());
    SimFileSystem fs(&dev, {});
    uint64_t groups = 0;
    const auto acked =
        RunBarrierCommitters(&dev, &fs, 8, 48, 0, &total, &groups);
    EXPECT_EQ(acked.size(), 48u);
    // Barrier commits are ~100x cheaper than a flush drain, so committers
    // serialize instead of queueing behind a long flush — large groups
    // legitimately disappear (grouping exists to amortize the expensive
    // fsync the barrier just removed). The accounting must still be sane,
    // and the WAL-level test above proves riders share a barrier when
    // clocks do overlap.
    EXPECT_GE(groups, 1u);
    EXPECT_GT(dev.stats().barriers, 0u);
  }

  for (double frac : {0.35, 0.6, 0.85}) {
    SsdDevice dev(GroupCommitDeviceConfig());
    SimFileSystem fs(&dev, {});
    const SimTime cut = static_cast<SimTime>(total * frac) + 7;
    SimTime end = 0;
    const std::map<std::string, std::string> acked =
        RunBarrierCommitters(&dev, &fs, 8, 48, cut, &end, nullptr);

    if (dev.powered()) {
      dev.CancelScheduledPowerCut();
      dev.PowerCut(std::max(cut, end));
    }
    dev.PowerOn();
    EXPECT_EQ(dev.stats().epoch_ordering_violations, 0u) << "cut " << cut;

    IoContext io;
    io.AdvanceTo(end + kMillisecond);
    auto reopened = Database::Open(io, &fs, &fs, BarrierDbOptions());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::unique_ptr<Database> db = std::move(*reopened);
    if (acked.empty()) continue;
    auto tree = db->GetTreeId("t");
    ASSERT_TRUE(tree.ok()) << "schema lost despite acked commits";
    for (const auto& [key, value] : acked) {
      std::string got;
      const Status s = db->Get(io, *tree, key, &got);
      ASSERT_TRUE(s.ok()) << "acked commit lost: " << key << " cut " << cut
                          << ": " << s.ToString();
      EXPECT_EQ(got, value) << "acked commit corrupted: " << key;
    }
  }
}

}  // namespace
}  // namespace durassd
