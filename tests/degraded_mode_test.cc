// Graceful degradation: FTL spare-block exhaustion flips the device into a
// sticky read-only mode (Status::ResourceExhausted on writes); engines abort
// their in-flight transaction cleanly, keep serving reads, and a reboot of
// the degraded device still recovers a consistent (read-only) state.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/trace.h"
#include "db/database.h"
#include "host/sim_file.h"
#include "kv/kvstore.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

// Drives the device into degraded mode from the outside: scripts every
// upcoming NAND program to fail, then writes two scratch LPNs, each write
// followed by a FLUSH CACHE that drains it to NAND, until block retirement
// has consumed every spare block and the FTL gives up. The acknowledged
// scratch sectors stay in the durable cache (they can no longer reach
// NAND), so any engine files living on lower LPNs are untouched.
void ExhaustSpares(SsdDevice& dev, IoContext& io) {
  for (uint64_t i = 0; i < (1u << 14); ++i) {
    dev.fault_injector().FailProgramAfter(i);
  }
  const std::string sector(dev.sector_size(), 'x');
  const Lpn a = dev.num_sectors() - 1;
  const Lpn b = dev.num_sectors() - 2;
  for (int i = 0; i < (1 << 12) && !dev.degraded(); ++i) {
    io.AdvanceTo(dev.Write(io.now, (i % 2) ? a : b, sector).done);
    io.AdvanceTo(dev.Flush(io.now).done);
  }
  ASSERT_TRUE(dev.degraded()) << "spare exhaustion did not trip";
  // Return the media to health: degradation is an FTL state now, and the
  // leftover scripted failures must not sabotage the capacitor dump at a
  // later power cut.
  dev.fault_injector().ClearScripts();
}

// --------------------------- Device level ---------------------------------

TEST(DegradedDeviceTest, SpareExhaustionEntersStickyReadOnly) {
  SsdDevice dev(SsdConfig::Tiny(true));
  Tracer tracer;
  dev.set_tracer(&tracer);
  IoContext io;

  // Some data makes it to stable media before the spares run out.
  const std::string before(dev.sector_size(), 'd');
  ASSERT_TRUE(dev.Write(io.now, 0, before).status.ok());
  ASSERT_TRUE(dev.Write(io.now, 1, std::string(dev.sector_size(), 'e'))
                  .status.ok());
  io.AdvanceTo(dev.Flush(io.now).done);

  ExhaustSpares(dev, io);

  // Writes are refused with the dedicated (permanent) status code.
  const std::string payload(dev.sector_size(), 'z');
  auto w = dev.Write(io.now, 2, payload);
  EXPECT_TRUE(w.status.IsResourceExhausted()) << w.status.ToString();
  EXPECT_GE(dev.stats().degraded_write_rejects, 1u);
  // FLUSH CACHE reports the failure for as long as an acknowledged sector
  // (here the last scratch write) cannot reach NAND.
  auto f = dev.Flush(io.now);
  EXPECT_TRUE(f.status.IsResourceExhausted()) << f.status.ToString();

  // Reads of previously flushed data keep working.
  std::string got;
  auto r = dev.Read(io.now, 0, 1, &got);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(got, before);

  // The transition was observable: the sticky flag + trace event.
  EXPECT_TRUE(dev.degraded());
  bool saw_degraded_event = false;
  for (const TraceEvent& e : tracer.Events()) {
    saw_degraded_event |= (e.type == TraceEventType::kDegraded);
  }
  EXPECT_TRUE(saw_degraded_event);

  // Sticky: a power cycle does not resurrect write service, but the data
  // survives it.
  dev.PowerCut(io.now + 1);
  dev.PowerOn();
  io.now = 0;
  EXPECT_TRUE(dev.degraded());
  EXPECT_TRUE(dev.Write(io.now, 2, payload).status.IsResourceExhausted());
  got.clear();
  ASSERT_TRUE(dev.Read(io.now, 0, 1, &got).status.ok());
  EXPECT_EQ(got, before);
}

TEST(DegradedDeviceTest, AckedSectorsSurviveDegradedPowerCycles) {
  // Degradation strands acknowledged sectors in the durable cache: their
  // programs fail and the read-only FTL refuses every retry. The dump
  // replay at reboot fails the same way, so the sectors must stay cached
  // (and be dumped again at the next cut) instead of being dropped with
  // the erased dump area.
  SsdDevice dev(SsdConfig::Tiny(true));
  IoContext io;
  for (uint64_t i = 0; i < (1u << 14); ++i) {
    dev.fault_injector().FailProgramAfter(i);
  }
  const Lpn scratch[2] = {dev.num_sectors() - 1, dev.num_sectors() - 2};
  std::string acked[2];
  for (int i = 0; i < 64 && !dev.degraded(); ++i) {
    const std::string sector(dev.sector_size(),
                             static_cast<char>('a' + i % 26));
    const auto w = dev.Write(io.now, scratch[i % 2], sector);
    io.AdvanceTo(w.done);
    if (w.status.ok()) acked[i % 2] = sector;
    io.AdvanceTo(dev.Flush(io.now).done);
  }
  ASSERT_TRUE(dev.degraded());
  ASSERT_FALSE(acked[0].empty() && acked[1].empty());
  dev.fault_injector().ClearScripts();

  for (int cycle = 0; cycle < 3; ++cycle) {
    if (cycle > 0) {
      dev.PowerCut(io.now + 1);
      dev.PowerOn();
      io.now = 0;
      ASSERT_TRUE(dev.degraded());
    }
    for (int k = 0; k < 2; ++k) {
      if (acked[k].empty()) continue;
      std::string got;
      ASSERT_TRUE(dev.Read(io.now, scratch[k], 1, &got).status.ok());
      EXPECT_TRUE(got == acked[k]) << "acked sector " << scratch[k]
                                   << " lost after " << cycle
                                   << " power cycle(s)";
    }
    // The sectors still cannot reach NAND, and FLUSH CACHE says so.
    EXPECT_TRUE(dev.Flush(io.now).status.IsResourceExhausted());
  }
}

TEST(DegradedDeviceTest, AsyncSubmitPollAwaitSurfaceDegradedErrors) {
  // Degradation must be visible to commands in flight together too: each
  // command issued at one instant gets its own final status, so a
  // rejected write's ResourceExhausted is not swallowed inside the queue,
  // an interleaved read still completes fine, and the rejected writes
  // leave no trace on the device.
  SsdDevice dev(SsdConfig::Tiny(true));
  IoContext io;
  const std::string before(dev.sector_size(), 'd');
  ASSERT_TRUE(dev.Write(io.now, 0, before).status.ok());
  io.AdvanceTo(dev.Flush(io.now).done);

  ExhaustSpares(dev, io);
  const uint64_t rejects = dev.stats().degraded_write_rejects;

  // Two doomed writes around a good read, all issued at one instant.
  const std::string payload(dev.sector_size(), 'z');
  std::string got;
  const BlockDevice::Result w1 =
      dev.Submit(io.now, BlockDevice::Command::MakeWrite(2, Slice(payload)));
  const BlockDevice::Result r1 =
      dev.Submit(io.now, BlockDevice::Command::MakeRead(0, 1, &got));
  const BlockDevice::Result w2 =
      dev.Submit(io.now, BlockDevice::Command::MakeWrite(3, Slice(payload)));
  EXPECT_TRUE(w1.status.IsResourceExhausted()) << w1.status.ToString();
  EXPECT_TRUE(w2.status.IsResourceExhausted()) << w2.status.ToString();
  ASSERT_TRUE(r1.status.ok()) << r1.status.ToString();
  EXPECT_GE(r1.done, io.now);
  EXPECT_EQ(got, before);

  // The device counted both rejections and wrote neither sector.
  EXPECT_EQ(dev.stats().degraded_write_rejects, rejects + 2);
  for (const Lpn lpn : {Lpn{2}, Lpn{3}}) {
    std::string back;
    ASSERT_TRUE(dev.Read(io.now, lpn, 1, &back).status.ok());
    EXPECT_EQ(back, std::string(dev.sector_size(), '\0')) << lpn;
  }
}

// --------------------------- Database -------------------------------------

struct DbStack {
  DbStack() {
    SsdConfig dc = SsdConfig::DuraSsd();
    dc.geometry = FlashGeometry::Tiny();
    dc.geometry.blocks_per_plane = 64;
    dc.geometry.pages_per_block = 32;
    dc.capacitor_budget_bytes = 16 * kMiB;
    device = std::make_unique<SsdDevice>(dc);
    device->set_tracer(&tracer);
    SimFileSystem::Options fso;
    fso.write_barriers = true;
    fs = std::make_unique<SimFileSystem>(device.get(), fso);
    options.pool_bytes = 2 * kMiB;
    options.double_write = true;
    options.checkpoint_log_bytes = 2 * kMiB;
  }

  Status Open() {
    auto d = Database::Open(io, fs.get(), fs.get(), options);
    if (!d.ok()) return d.status();
    db = std::move(*d);
    db->set_tracer(&tracer);
    return Status::OK();
  }

  IoContext io;
  Tracer tracer;
  std::unique_ptr<SsdDevice> device;
  std::unique_ptr<SimFileSystem> fs;
  std::unique_ptr<Database> db;
  Database::Options options;
};

TEST(DegradedDatabaseTest, AbortsInFlightTxnKeepsServingReadsAndReboots) {
  DbStack s;
  ASSERT_TRUE(s.Open().ok());
  auto tree = s.db->CreateTree(s.io, "t");
  ASSERT_TRUE(tree.ok());

  // Committed history that must survive everything below.
  for (int i = 0; i < 20; ++i) {
    auto txn = s.db->Begin(s.io);
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(s.db->Put(s.io, *txn, *tree, "k" + std::to_string(i),
                          "v" + std::to_string(i))
                    .ok());
    ASSERT_TRUE(s.db->Commit(s.io, *txn).ok());
  }
  // Persist the mapping + home pages so the later capacitor dump and the
  // reboot recovery have nothing dirty left to write.
  ASSERT_TRUE(s.db->Checkpoint(s.io).ok());

  ExhaustSpares(*s.device, s.io);

  // The next transaction dies at commit (the WAL fsync hits the degraded
  // device); the database must abort it cleanly and flip read-only.
  auto txn = s.db->Begin(s.io);
  ASSERT_TRUE(txn.ok());
  Status put = s.db->Put(s.io, *txn, *tree, "doomed", "never");
  Status commit =
      put.ok() ? s.db->Commit(s.io, *txn) : put;
  ASSERT_TRUE(commit.IsResourceExhausted()) << commit.ToString();
  EXPECT_TRUE(s.db->read_only());
  EXPECT_EQ(s.db->stats().degraded_aborts, 1u);

  // The aborted mutation is invisible; committed data keeps serving.
  std::string got;
  EXPECT_TRUE(s.db->Get(s.io, *tree, "doomed", &got).IsNotFound());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        s.db->Get(s.io, *tree, "k" + std::to_string(i), &got).ok())
        << i;
    EXPECT_EQ(got, "v" + std::to_string(i));
  }

  // Every mutating entry point is refused with the same status.
  EXPECT_TRUE(s.db->Begin(s.io).status().IsResourceExhausted());
  EXPECT_TRUE(s.db->Checkpoint(s.io).IsResourceExhausted());
  EXPECT_TRUE(s.db->CreateTree(s.io, "u").status().IsResourceExhausted());

  // The abort showed up in the trace.
  bool saw_abort = false;
  for (const TraceEvent& e : s.tracer.Events()) {
    saw_abort |= (e.type == TraceEventType::kTxnAbort);
  }
  EXPECT_TRUE(saw_abort);

  // Reboot the degraded device: recovery must still produce a consistent
  // database — read-only, with all committed data intact.
  s.db.reset();
  s.device->PowerCut(s.io.now + 1);
  s.device->PowerOn();
  s.io.now = 0;
  ASSERT_TRUE(s.device->degraded());
  ASSERT_TRUE(s.Open().ok()) << "recovery of a degraded device must succeed";
  EXPECT_TRUE(s.db->read_only());
  auto tid = s.db->GetTreeId("t");
  ASSERT_TRUE(tid.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        s.db->Get(s.io, *tid, "k" + std::to_string(i), &got).ok())
        << i;
    EXPECT_EQ(got, "v" + std::to_string(i));
  }
  EXPECT_TRUE(s.db->Get(s.io, *tid, "doomed", &got).IsNotFound());
}

// --------------------------- KvStore ---------------------------------------

TEST(DegradedKvStoreTest, RollsBackInFlightBatchAndStaysReadable) {
  SsdConfig dc = SsdConfig::DuraSsd();
  dc.geometry = FlashGeometry::Tiny();
  dc.geometry.blocks_per_plane = 64;
  dc.geometry.pages_per_block = 32;
  dc.capacitor_budget_bytes = 16 * kMiB;
  SsdDevice dev(dc);
  Tracer tracer;
  dev.set_tracer(&tracer);
  SimFileSystem::Options fso;
  fso.write_barriers = true;
  SimFileSystem fs(&dev, fso);

  IoContext io;
  KvStore::Options ko;
  ko.batch_size = 4;
  auto opened = KvStore::Open(io, &fs, "s.couch", ko);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<KvStore> kv = std::move(*opened);
  kv->set_tracer(&tracer);

  // Two full committed batches.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        kv->Put(io, "k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_EQ(kv->stats().commits, 2u);
  ASSERT_EQ(kv->doc_count(), 8u);

  ExhaustSpares(dev, io);

  // Three puts buffer in the tail; the fourth fills the batch, triggers the
  // header write, hits the degraded device, and the whole batch rolls back.
  ASSERT_TRUE(kv->Put(io, "t0", "x").ok());
  ASSERT_TRUE(kv->Put(io, "t1", "x").ok());
  ASSERT_TRUE(kv->Put(io, "t2", "x").ok());
  Status st = kv->Put(io, "t3", "x");
  ASSERT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_TRUE(kv->read_only());
  EXPECT_EQ(kv->stats().degraded_aborts, 1u);

  // State rolled back to the last durable header: the committed eight docs,
  // none of the in-flight batch.
  EXPECT_EQ(kv->doc_count(), 8u);
  std::string got;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(kv->Get(io, "k" + std::to_string(i), &got).ok()) << i;
    EXPECT_EQ(got, "v" + std::to_string(i));
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(kv->Get(io, "t" + std::to_string(i), &got).IsNotFound()) << i;
  }

  // Further mutations are refused; reads keep working.
  EXPECT_TRUE(kv->Put(io, "more", "x").IsResourceExhausted());
  EXPECT_TRUE(kv->Delete(io, "k0").IsResourceExhausted());
  ASSERT_TRUE(kv->Get(io, "k0", &got).ok());

  bool saw_abort = false;
  for (const TraceEvent& e : tracer.Events()) {
    saw_abort |= (e.type == TraceEventType::kTxnAbort);
  }
  EXPECT_TRUE(saw_abort);

  // Reboot: the store recovers to the same committed state.
  kv.reset();
  dev.PowerCut(io.now + 1);
  dev.PowerOn();
  io.now = 0;
  ASSERT_TRUE(dev.degraded());
  auto reopened = KvStore::Open(io, &fs, "s.couch", ko);
  ASSERT_TRUE(reopened.ok())
      << "recovery of a degraded device must succeed: "
      << reopened.status().ToString();
  kv = std::move(*reopened);
  EXPECT_EQ(kv->doc_count(), 8u);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(kv->Get(io, "k" + std::to_string(i), &got).ok()) << i;
    EXPECT_EQ(got, "v" + std::to_string(i));
  }
}

}  // namespace
}  // namespace durassd
