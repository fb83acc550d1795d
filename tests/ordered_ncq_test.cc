// Asynchronous submit/complete path + ordered NCQ:
//
//   - API semantics: Submit/Poll/Await/Find, queue-depth stalls, power-cut
//     abort of in-flight commands, sync wrappers == submit+await.
//   - Ordered-queue property sweep (>= 50 seeded cut instants per mode):
//     in ordered mode the commands surviving a power cut are always a
//     *prefix* of the submission order; in unordered mode survivors are a
//     sane subset (each command all-or-nothing, never garbage) and at
//     least one cut lands on an acknowledgment inversion (non-prefix).
//   - Group commit: every acknowledged commit survives a power cut that
//     lands with commits in flight, and the WAL's group accounting detects
//     commits sharing one device sync.
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
  std::string v = "cmd-" + std::to_string(version) + "-";
  v.resize(static_cast<size_t>(nsec) * kSector, 'x');
  return v;
}

SsdConfig SmallConfig(bool ordered) {
  SsdConfig cfg = SsdConfig::Tiny(true);
  cfg.geometry.blocks_per_plane = 64;
  cfg.geometry.pages_per_block = 16;
  cfg.ordered_queue = ordered;
  // A roomy write buffer keeps acknowledgments firmware-bound rather than
  // destage-bound, so mixed-size commands really do acknowledge out of
  // submission order on the unordered queue (with Tiny's 32 frames, FIFO
  // frame recycling serializes acks after the first burst and the sweep
  // would never catch an inversion). The capacitor must cover the buffer.
  cfg.write_buffer_sectors = 256;
  cfg.cache_capacity_sectors = 512;
  cfg.capacitor_budget_bytes = 4 * kMiB;
  return cfg;
}

// ---------------------------------------------------------------------------
// API semantics
// ---------------------------------------------------------------------------

TEST(AsyncApi, SyncWrappersMatchSubmitAwait) {
  SsdDevice a(SmallConfig(true));
  SsdDevice b(SmallConfig(true));
  Random rng(7);
  SimTime ta = 0, tb = 0;
  for (int i = 0; i < 40; ++i) {
    const Lpn lpn = rng.Uniform(32);
    const std::string data = Value(i, 1);
    const BlockDevice::Result ra = a.Write(ta, lpn, data);

    const CmdId id =
        b.Submit(tb, BlockDevice::Command::MakeWrite(lpn, data));
    const BlockDevice::Completion cb = b.Await(id);
    ASSERT_EQ(ra.status.ok(), cb.status.ok()) << "op " << i;
    ASSERT_EQ(ra.done, cb.done) << "op " << i;
    ta = ra.done;
    tb = cb.done;
  }
  const BlockDevice::Result fa = a.Flush(ta);
  const CmdId fid = b.Submit(tb, BlockDevice::Command::MakeFlush());
  EXPECT_EQ(fa.done, b.Await(fid).done);
}

TEST(AsyncApi, PollReturnsCompletionsInDoneOrder) {
  SsdDevice dev(SmallConfig(false));
  std::vector<CmdId> ids;
  for (int i = 0; i < 6; ++i) {
    // Mixed sizes submitted at the same instant: completion order differs
    // from submission order on the unordered queue.
    const uint32_t nsec = (i % 2 == 0) ? 8 : 1;
    ids.push_back(dev.Submit(
        0, BlockDevice::Command::MakeWrite(static_cast<Lpn>(i) * 8,
                                           Value(i, nsec))));
  }
  EXPECT_EQ(dev.pending_completions(), 6u);
  EXPECT_TRUE(dev.Poll(0).empty());  // Nothing observable at t=0.
  EXPECT_LT(dev.EarliestPendingDone(), kMaxSimTime);

  const std::vector<BlockDevice::Completion> done = dev.Poll(kMaxSimTime);
  ASSERT_EQ(done.size(), 6u);
  EXPECT_EQ(dev.pending_completions(), 0u);
  for (size_t i = 1; i < done.size(); ++i) {
    EXPECT_LE(done[i - 1].done, done[i].done);
  }
  for (const BlockDevice::Completion& c : done) {
    EXPECT_TRUE(c.status.ok());
    EXPECT_GE(c.done, c.submit);
  }
}

TEST(AsyncApi, QueueDepthLimitStallsSubmission) {
  SsdConfig cfg = SmallConfig(true);
  cfg.host_queue_depth = 1;
  SsdDevice limited(cfg);
  SsdDevice unlimited(SmallConfig(true));

  for (int i = 0; i < 8; ++i) {
    SimTime entered = 0;
    limited.Submit(
        0, BlockDevice::Command::MakeWrite(static_cast<Lpn>(i), Value(i, 1)),
        &entered);
    unlimited.Submit(
        0, BlockDevice::Command::MakeWrite(static_cast<Lpn>(i), Value(i, 1)));
    if (i > 0) {
      EXPECT_GT(entered, 0) << "submission " << i << " not stalled";
    }
  }
  EXPECT_GT(limited.submit_stalls(), 0u);
  EXPECT_GT(limited.submit_stall_time(), 0);
  EXPECT_EQ(unlimited.submit_stalls(), 0u);

  // The QD histogram saw every submission, never above the limit + 1.
  const Histogram* h = limited.metrics().GetHistogram("ssd.qd");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 8u);
}

TEST(AsyncApi, FindPeeksWithoutConsumingAndUnknownAwaitFails) {
  SsdDevice dev(SmallConfig(true));
  const CmdId id = dev.Submit(0, BlockDevice::Command::MakeWrite(0, Value(1, 1)));
  const BlockDevice::Completion* peek = dev.Find(id);
  ASSERT_NE(peek, nullptr);
  EXPECT_TRUE(peek->status.ok());
  EXPECT_EQ(dev.pending_completions(), 1u);  // Find consumed nothing.

  const BlockDevice::Completion c = dev.Await(id);
  EXPECT_TRUE(c.status.ok());
  EXPECT_EQ(dev.Find(id), nullptr);
  EXPECT_FALSE(dev.Await(id).status.ok());  // Unknown id.
}

TEST(AsyncApi, PowerCutAbortsInFlightCommands) {
  SsdDevice dev(SmallConfig(true));
  std::vector<CmdId> ids;
  SimTime max_ack = 0;
  for (int i = 0; i < 8; ++i) {
    const CmdId id = dev.Submit(
        0, BlockDevice::Command::MakeWrite(static_cast<Lpn>(i) * 8,
                                           Value(i, 8)));
    ids.push_back(id);
    max_ack = std::max(max_ack, dev.Find(id)->done);
  }
  const SimTime cut = max_ack / 2;
  dev.PowerCut(cut);

  bool any_aborted = false;
  for (CmdId id : ids) {
    const BlockDevice::Completion c = dev.Await(id);
    if (c.status.ok()) {
      EXPECT_LE(c.done, cut);  // Completed before the lights went out.
    } else {
      any_aborted = true;
      EXPECT_TRUE(c.status.IsDeviceOffline()) << c.status.ToString();
      EXPECT_EQ(c.done, cut);  // Aborted at the cut instant.
    }
  }
  EXPECT_TRUE(any_aborted);
}

TEST(AsyncApi, SimFileAsyncWriteMatchesSyncWrite) {
  SsdDevice da(SmallConfig(true));
  SsdDevice db(SmallConfig(true));
  SimFileSystem fa(&da, {});
  SimFileSystem fb(&db, {});
  SimFile* sync_file = fa.Open("f");
  SimFile* async_file = fb.Open("f");

  Random rng(99);
  SimTime ta = 0, tb = 0;
  for (int i = 0; i < 20; ++i) {
    // Unaligned sizes exercise the read-modify-write edges too.
    const uint64_t offset = rng.Uniform(64) * 1024;
    const std::string data((rng.Next() % 3 + 1) * 5000, 'a' + i % 26);
    const SimFile::IoResult r = sync_file->Write(ta, offset, data);
    ASSERT_TRUE(r.status.ok());

    const CmdId id = async_file->SubmitWrite(tb, offset, data);
    const SimFile::Completion c = async_file->Await(id);
    ASSERT_TRUE(c.status.ok());
    ASSERT_EQ(r.done, c.done) << "op " << i;
    ta = r.done;
    tb = c.done;
  }
  EXPECT_EQ(sync_file->size(), async_file->size());
  std::string sa, sb;
  ASSERT_TRUE(sync_file->Read(ta, 0, sync_file->size(), &sa).status.ok());
  ASSERT_TRUE(async_file->Read(tb, 0, async_file->size(), &sb).status.ok());
  EXPECT_EQ(sa, sb);
}

// ---------------------------------------------------------------------------
// Ordered-NCQ power-cut prefix property
// ---------------------------------------------------------------------------

struct SubmittedCmd {
  CmdId id;
  Lpn lpn;
  uint32_t nsec;
  uint64_t version;
};

/// Submits bursts of mixed-size writes to distinct LPN ranges without
/// awaiting them (bursts overlap inside the device). Stops *starting*
/// bursts at `stop_at` (0 = never), so a cut shortly after the last burst
/// began lands with commands genuinely in flight.
std::vector<SubmittedCmd> RunBursts(SsdDevice* dev, uint64_t seed,
                                    SimTime stop_at, SimTime* end) {
  Random rng(seed);
  std::vector<SubmittedCmd> cmds;
  SimTime t = 0;
  Lpn next_lpn = 0;
  for (int burst = 0; burst < 10; ++burst) {
    if (stop_at != 0 && t >= stop_at) break;
    SimTime burst_done = t;
    for (int i = 0; i < 6; ++i) {
      const uint32_t nsec = (rng.Next() % 2 == 0) ? 8 : 1;
      const uint64_t version = cmds.size();
      const CmdId id = dev->Submit(
          t, BlockDevice::Command::MakeWrite(next_lpn, Value(version, nsec)));
      cmds.push_back({id, next_lpn, nsec, version});
      burst_done = std::max(burst_done, dev->Find(id)->done);
      next_lpn += nsec;
    }
    t = burst_done;
  }
  *end = t;
  return cmds;
}

/// Classifies each command after the cut: +1 fully readable, 0 fully
/// absent (zeros), -1 torn/garbage (always a violation on a durable
/// device).
int Survived(SsdDevice* dev, const SubmittedCmd& c) {
  std::string got;
  if (!dev->Read(0, c.lpn, c.nsec, &got).status.ok()) return -1;
  if (got == Value(c.version, c.nsec)) return 1;
  if (got == std::string(static_cast<size_t>(c.nsec) * kSector, '\0')) {
    return 0;
  }
  return -1;
}

TEST(OrderedNcqPowerCut, SurvivorsAreAlwaysAPrefixOfSubmissionOrder) {
  uint64_t total_clamps = 0;
  int instants = 0;
  for (uint64_t seed : {11u, 22u, 33u}) {
    SimTime total = 0;
    {
      SsdDevice probe(SmallConfig(true));
      SimTime end = 0;
      RunBursts(&probe, seed, 0, &end);
      total = end;
    }
    for (int f = 1; f <= 20; ++f) {
      ++instants;
      const SimTime cut = total * f / 21 + f;  // Off-grid instants.
      SsdDevice dev(SmallConfig(true));
      SimTime end = 0;
      const std::vector<SubmittedCmd> cmds =
          RunBursts(&dev, seed, cut, &end);
      dev.PowerCut(std::max<SimTime>(cut, 1));
      dev.PowerOn();

      int last_survivor = -1;
      int first_lost = static_cast<int>(cmds.size());
      for (size_t i = 0; i < cmds.size(); ++i) {
        const int s = Survived(&dev, cmds[i]);
        ASSERT_GE(s, 0) << "torn command " << i << " seed " << seed
                        << " cut " << cut;
        if (s == 1) {
          last_survivor = static_cast<int>(i);
        } else {
          first_lost = std::min(first_lost, static_cast<int>(i));
        }
      }
      // The prefix property: nothing may survive beyond the first loss.
      EXPECT_LT(last_survivor, first_lost)
          << "non-prefix survivors, seed " << seed << " cut " << cut;
      EXPECT_EQ(dev.stats().ordering_violations, 0u);
      total_clamps += dev.stats().ordered_ack_clamps;
    }
  }
  EXPECT_GE(instants, 50);
  // The clamp really engaged somewhere: without it these mixed-size bursts
  // acknowledge out of order (the unordered sweep below proves that).
  EXPECT_GT(total_clamps, 0u);
}

TEST(UnorderedNcqPowerCut, SurvivorsAreSaneSubsetAndInversionsHappen) {
  int instants = 0;
  int non_prefix_cuts = 0;
  for (uint64_t seed : {11u, 22u, 33u}) {
    SimTime total = 0;
    {
      SsdDevice probe(SmallConfig(false));
      SimTime end = 0;
      RunBursts(&probe, seed, 0, &end);
      total = end;
    }
    for (int f = 1; f <= 20; ++f) {
      ++instants;
      const SimTime cut = total * f / 21 + f;
      SsdDevice dev(SmallConfig(false));
      SimTime end = 0;
      const std::vector<SubmittedCmd> cmds =
          RunBursts(&dev, seed, cut, &end);
      dev.PowerCut(std::max<SimTime>(cut, 1));
      dev.PowerOn();

      int last_survivor = -1;
      int first_lost = static_cast<int>(cmds.size());
      for (size_t i = 0; i < cmds.size(); ++i) {
        // Still all-or-nothing per command (durable cache), but order is
        // not guaranteed.
        const int s = Survived(&dev, cmds[i]);
        ASSERT_GE(s, 0) << "torn command " << i << " seed " << seed
                        << " cut " << cut;
        if (s == 1) {
          last_survivor = static_cast<int>(i);
        } else {
          first_lost = std::min(first_lost, static_cast<int>(i));
        }
      }
      if (last_survivor > first_lost) non_prefix_cuts++;
      EXPECT_EQ(dev.stats().ordered_ack_clamps, 0u);
    }
  }
  EXPECT_GE(instants, 50);
  // The unordered queue really does acknowledge out of submission order:
  // some cut must land inside an inversion window.
  EXPECT_GT(non_prefix_cuts, 0);
}

// ---------------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------------

SsdConfig GroupCommitDeviceConfig() {
  SsdConfig dc = SsdConfig::DuraSsd();
  dc.geometry = FlashGeometry::Tiny();
  dc.geometry.blocks_per_plane = 256;
  dc.geometry.pages_per_block = 32;
  dc.capacitor_budget_bytes = 16 * kMiB;
  return dc;
}

Database::Options GroupCommitDbOptions() {
  Database::Options dbo;
  dbo.pool_bytes = 2 * kMiB;
  dbo.double_write = false;
  dbo.checkpoint_log_bytes = 4 * kMiB;
  dbo.checkpoint_queue_depth = 8;  // Exercise the async destage path.
  return dbo;
}

/// Runs `total_ops` single-put transactions from `clients` interleaved
/// committers. Returns the set of acknowledged (committed-OK) key/values;
/// `*end` receives the virtual end time. Stops issuing once a commit
/// fails (the scheduled power cut tripped).
std::map<std::string, std::string> RunCommitters(
    SsdDevice* dev, SimFileSystem* fs, uint32_t clients, uint64_t total_ops,
    SimTime cut, SimTime* end, uint64_t* max_group) {
  IoContext io;
  if (cut > 0) dev->SchedulePowerCut(cut);
  std::map<std::string, std::string> acked;
  auto dbo = Database::Open(io, fs, fs, GroupCommitDbOptions());
  EXPECT_TRUE(dbo.ok());
  if (!dbo.ok()) return acked;
  std::unique_ptr<Database> db = std::move(*dbo);
  auto tree = db->CreateTree(io, "t");
  EXPECT_TRUE(tree.ok());
  if (!tree.ok()) return acked;

  std::vector<uint32_t> op_count(clients, 0);
  SimTime end_time = io.now;
  bool stopped = false;
  // Per-operation IoContext seeded from the client's local clock (the
  // TPC-C idiom): concurrent committers really do share device syncs.
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
      stopped = true;  // The cut (or degradation) interrupted this commit.
    }
    end_time = std::max(end_time, cio.now);
    return cio.now;
  };
  SerialExecutor().Run(clients, total_ops, io.now, fn);
  *end = end_time;
  if (max_group != nullptr) *max_group = db->wal_stats().max_group_commit;
  return acked;
}

TEST(GroupCommit, EveryAckedCommitSurvivesMidRunPowerCut) {
  // Probe: learn the cut-free duration of the committer workload.
  // Barriers stay ON: the commit fsync issues a real FLUSH, whose long
  // completion window is what concurrent committers coalesce into — the
  // cut can then land with a multi-commit group in flight. (The nobarrier
  // durable-cache deployment is covered by the crash-torture sweep.)
  SimTime total = 0;
  {
    SsdDevice dev(GroupCommitDeviceConfig());
    SimFileSystem fs(&dev, {});
    uint64_t groups = 0;
    const auto acked =
        RunCommitters(&dev, &fs, 8, 48, 0, &total, &groups);
    EXPECT_EQ(acked.size(), 48u);
    // Real grouping occurred: at least one device sync carried 2+ commits.
    EXPECT_GE(groups, 2u) << "no group commit formed in the probe run";
  }

  for (double frac : {0.35, 0.6, 0.85}) {
    SsdDevice dev(GroupCommitDeviceConfig());
    SimFileSystem fs(&dev, {});
    const SimTime cut = static_cast<SimTime>(total * frac) + 7;
    SimTime end = 0;
    const std::map<std::string, std::string> acked =
        RunCommitters(&dev, &fs, 8, 48, cut, &end, nullptr);

    if (dev.powered()) {
      dev.CancelScheduledPowerCut();
      dev.PowerCut(std::max(cut, end));
    }
    dev.PowerOn();

    IoContext io;
    io.AdvanceTo(end + kMillisecond);
    auto reopened = Database::Open(io, &fs, &fs, GroupCommitDbOptions());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::unique_ptr<Database> db = std::move(*reopened);
    if (acked.empty()) continue;  // The cut beat even the first commit.
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

TEST(GroupCommit, WalAccountingDetectsSharedSyncs) {
  SsdDevice dev(GroupCommitDeviceConfig());
  SimFileSystem fs(&dev, {});  // Barriers on: syncs really flush.
  MetricsRegistry metrics;
  Wal::Options wo;
  wo.metrics = &metrics;
  Wal wal(fs.Open("wal"), wo);
  IoContext io;

  WalRecord rec;
  rec.type = WalRecordType::kCommit;
  rec.txn = 1;

  // Two committers append before either syncs; the first sync covers both
  // records, so the second rides it: one group of two.
  const Lsn a = wal.Append(rec);
  const Lsn b = wal.Append(rec);
  const SimTime entered = io.now;
  ASSERT_TRUE(wal.SyncTo(io, a).ok());
  IoContext io2;
  io2.now = entered;  // The second committer's clock is still at the start.
  ASSERT_TRUE(wal.SyncTo(io2, b).ok());

  EXPECT_EQ(wal.stats().group_rides, 1u);
  EXPECT_EQ(wal.stats().sync_groups, 1u);
  EXPECT_EQ(wal.stats().max_group_commit, 2u);
  EXPECT_EQ(io2.now, io.now);  // Both durable at the same instant.

  // A later, separate commit opens a new group and closes the old one
  // into the histogram.
  const Lsn c = wal.Append(rec);
  ASSERT_TRUE(wal.SyncTo(io, c).ok());
  EXPECT_EQ(wal.stats().sync_groups, 2u);
  const Histogram* h = metrics.GetHistogram("wal.group_commit_size");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);  // The closed group of size 2.
}

}  // namespace
}  // namespace durassd
