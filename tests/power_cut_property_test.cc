// Property-style sweeps: power is cut at MANY different virtual instants
// spread across a random workload's execution, and for every cut instant
// the device-level ACID-ish invariants are checked:
//
//   Durable cache (DuraSSD):
//     P1  every sector whose write command was acknowledged before the cut
//         reads back exactly as written (durability),
//     P2  every other sector reads back as its previous acknowledged value
//         or zeros (atomicity — never torn, never garbage),
//     P3  recovery is idempotent under an immediate second failure.
//
//   Volatile cache (SSD-A model):
//     P4  flushed prefixes survive,
//     P5  anything can be missing after the last flush — but what *is*
//         readable is either an acknowledged value or zeros or (only in
//         exposure windows) a detectably-torn page.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

constexpr uint32_t kSector = 4 * kKiB;
constexpr uint32_t kLpns = 24;  // Small space => frequent overwrites.

// Every third version keeps data only in a prefix and is zero after it, as
// engines pad their durable writes, so recovery and every read after a cut
// also run over short store frames.
std::string Value(uint64_t version) {
  std::string v = "ver-" + std::to_string(version) + "-";
  const size_t data =
      version % 3 == 0 ? v.size() + version * 37 % kSector : kSector;
  v.resize(std::min<size_t>(data, kSector), 'q');
  v.resize(kSector, '\0');
  return v;
}

struct AckEvent {
  SimTime ack;
  Lpn lpn;
  uint64_t version;
};

/// Replays a deterministic random single-sector write history on a fresh
/// device, stopping at the first op issued at or after `stop_issuing_at`
/// (0 = run everything). Power can only be cut at the execution frontier —
/// never "in the past" — like in the physical world.
std::vector<AckEvent> RunHistory(SsdDevice* dev, uint64_t seed, int ops,
                                 SimTime stop_issuing_at, SimTime* end) {
  Random rng(seed);
  std::vector<AckEvent> events;
  SimTime t = 0;
  for (int i = 0; i < ops; ++i) {
    if (stop_issuing_at != 0 && t >= stop_issuing_at) break;
    const Lpn lpn = rng.Uniform(kLpns);
    const auto w = dev->Write(t, lpn, Value(i));
    EXPECT_TRUE(w.status.ok());
    t = w.done;
    events.push_back({w.done, lpn, static_cast<uint64_t>(i)});
  }
  *end = t;
  return events;
}

/// Latest acknowledged version of each LPN strictly before `cut`.
std::map<Lpn, uint64_t> AckedStateAt(const std::vector<AckEvent>& events,
                                     SimTime cut) {
  std::map<Lpn, uint64_t> state;
  for (const AckEvent& e : events) {
    if (e.ack <= cut) state[e.lpn] = e.version;
  }
  return state;
}

class DurablePowerCutSweep : public ::testing::TestWithParam<int> {};

// 16 cut points spread across the run (fractional positions 1/17..16/17).
INSTANTIATE_TEST_SUITE_P(CutPoints, DurablePowerCutSweep,
                         ::testing::Range(1, 17));

TEST_P(DurablePowerCutSweep, AckedWritesDurableAndAtomic) {
  SsdConfig cfg = SsdConfig::Tiny(true);
  cfg.geometry.blocks_per_plane = 64;
  cfg.geometry.pages_per_block = 16;
  SsdDevice dev(cfg);

  // Dry run to learn the total duration, then a real run that stops
  // issuing at the cut fraction.
  SimTime total = 0;
  {
    SsdDevice probe(cfg);
    RunHistory(&probe, 1234, 120, 0, &total);
  }
  const SimTime cut = total * GetParam() / 17 + GetParam();  // Off-grid.
  SimTime end = 0;
  const std::vector<AckEvent> events =
      RunHistory(&dev, 1234, 120, cut, &end);

  dev.PowerCut(std::max(cut, end > 0 ? events.back().ack - 1 : cut));
  dev.PowerOn();

  const std::map<Lpn, uint64_t> expected = AckedStateAt(events, cut);
  for (Lpn lpn = 0; lpn < kLpns; ++lpn) {
    std::string got;
    ASSERT_TRUE(dev.Read(0, lpn, 1, &got).status.ok());
    auto it = expected.find(lpn);
    if (it != expected.end()) {
      // P1: exactly the last acknowledged value.
      EXPECT_EQ(got, Value(it->second))
          << "lpn " << lpn << " cut " << cut << " (durability)";
    } else {
      // P2: never written before the cut (or only un-acked): zeros.
      EXPECT_EQ(got, std::string(kSector, '\0'))
          << "lpn " << lpn << " cut " << cut << " (atomicity)";
    }
  }
  EXPECT_EQ(dev.stats().capacitor_overruns, 0u);
}

TEST_P(DurablePowerCutSweep, RecoveryIdempotentUnderSecondFailure) {
  SsdConfig cfg = SsdConfig::Tiny(true);
  cfg.geometry.blocks_per_plane = 64;
  cfg.geometry.pages_per_block = 16;
  SsdDevice dev(cfg);

  SimTime total = 0;
  {
    SsdDevice probe(cfg);
    RunHistory(&probe, 77, 100, 0, &total);
  }
  const SimTime cut = total * GetParam() / 17 + 3;
  SimTime end = 0;
  const std::vector<AckEvent> events = RunHistory(&dev, 77, 100, cut, &end);

  dev.PowerCut(cut);
  dev.PowerOn();
  dev.PowerCut(1);  // P3: fail again immediately after boot.
  dev.PowerOn();

  const std::map<Lpn, uint64_t> expected = AckedStateAt(events, cut);
  for (const auto& [lpn, version] : expected) {
    std::string got;
    ASSERT_TRUE(dev.Read(0, lpn, 1, &got).status.ok());
    EXPECT_EQ(got, Value(version)) << "lpn " << lpn << " cut " << cut;
  }
}

// --------------------------- Faulty-media sweep -----------------------------

/// Same P1-P3 invariants, but the NAND now misbehaves: every read carries
/// raw bit errors (mean 1.5 + wear), and programs/erases fail with nonzero
/// probability. The ECC budget is sized so an uncorrectable read is
/// essentially impossible; everything else (read retries, program retries,
/// grown bad blocks, dump-page failures) must be fully absorbed by the
/// device without losing a single acknowledged write.
SsdConfig FaultyTinyConfig() {
  SsdConfig cfg = SsdConfig::Tiny(true);
  cfg.geometry.blocks_per_plane = 64;
  cfg.geometry.pages_per_block = 16;
  cfg.faults.seed = 0xFA171E5ull;
  cfg.faults.read_bit_flip_mean = 1.5;
  cfg.faults.read_bit_flip_per_erase = 0.05;
  cfg.faults.program_fail_rate = 0.01;
  cfg.faults.erase_fail_rate = 0.005;
  cfg.ecc_correctable_bits = 24;  // P(Poisson(~1.5) > 24) ~ 0.
  return cfg;
}

class FaultyDurablePowerCutSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(CutPoints, FaultyDurablePowerCutSweep,
                         ::testing::Range(1, 17));

TEST_P(FaultyDurablePowerCutSweep, AckedWritesDurableUnderMediaFaults) {
  const SsdConfig cfg = FaultyTinyConfig();
  SsdDevice dev(cfg);

  SimTime total = 0;
  {
    SsdDevice probe(cfg);
    RunHistory(&probe, 1234, 120, 0, &total);
  }
  const SimTime cut = total * GetParam() / 17 + GetParam();
  SimTime end = 0;
  const std::vector<AckEvent> events =
      RunHistory(&dev, 1234, 120, cut, &end);

  dev.PowerCut(std::max(cut, end > 0 ? events.back().ack - 1 : cut));
  dev.PowerOn();

  const std::map<Lpn, uint64_t> expected = AckedStateAt(events, cut);
  for (Lpn lpn = 0; lpn < kLpns; ++lpn) {
    std::string got;
    ASSERT_TRUE(dev.Read(0, lpn, 1, &got).status.ok());
    auto it = expected.find(lpn);
    if (it != expected.end()) {
      EXPECT_EQ(got, Value(it->second))
          << "lpn " << lpn << " cut " << cut << " (durability under faults)";
    } else {
      EXPECT_EQ(got, std::string(kSector, '\0'))
          << "lpn " << lpn << " cut " << cut << " (atomicity under faults)";
    }
  }
  EXPECT_EQ(dev.stats().capacitor_overruns, 0u);
  EXPECT_EQ(dev.ftl().stats().uncorrectable_reads, 0u);
  // The fault model really was active.
  EXPECT_GT(dev.ftl().stats().ecc_corrected, 0u);
}

TEST_P(FaultyDurablePowerCutSweep, RecoveryIdempotentUnderMediaFaults) {
  const SsdConfig cfg = FaultyTinyConfig();
  SsdDevice dev(cfg);

  SimTime total = 0;
  {
    SsdDevice probe(cfg);
    RunHistory(&probe, 77, 100, 0, &total);
  }
  const SimTime cut = total * GetParam() / 17 + 3;
  SimTime end = 0;
  const std::vector<AckEvent> events = RunHistory(&dev, 77, 100, cut, &end);

  dev.PowerCut(cut);
  dev.PowerOn();
  dev.PowerCut(1);  // Second failure right after boot, faults still live.
  dev.PowerOn();

  const std::map<Lpn, uint64_t> expected = AckedStateAt(events, cut);
  for (const auto& [lpn, version] : expected) {
    std::string got;
    ASSERT_TRUE(dev.Read(0, lpn, 1, &got).status.ok());
    EXPECT_EQ(got, Value(version)) << "lpn " << lpn << " cut " << cut;
  }
  EXPECT_EQ(dev.ftl().stats().uncorrectable_reads, 0u);
}

class VolatilePowerCutSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(CutPoints, VolatilePowerCutSweep,
                         ::testing::Range(1, 9));

TEST_P(VolatilePowerCutSweep, FlushedPrefixSurvivesRestIsSane) {
  SsdConfig cfg = SsdConfig::Tiny(false);
  cfg.geometry.blocks_per_plane = 64;
  cfg.geometry.pages_per_block = 16;
  SsdDevice dev(cfg);

  // Write a batch, flush, write another batch, cut at a param-dependent
  // point after the flush.
  Random rng(GetParam());
  std::map<Lpn, uint64_t> flushed;
  SimTime t = 0;
  for (int i = 0; i < 40; ++i) {
    const Lpn lpn = rng.Uniform(kLpns);
    const auto w = dev.Write(t, lpn, Value(i));
    ASSERT_TRUE(w.status.ok());
    t = w.done;
    flushed[lpn] = i;
  }
  const auto f = dev.Flush(t);
  ASSERT_TRUE(f.status.ok());
  t = f.done;

  std::map<Lpn, uint64_t> after;
  for (int i = 40; i < 70; ++i) {
    const Lpn lpn = rng.Uniform(kLpns);
    const auto w = dev.Write(t, lpn, Value(i));
    t = w.done;
    after[lpn] = i;
  }
  const SimTime cut = f.done + (t - f.done) * GetParam() / 9 + 1;
  dev.PowerCut(cut);
  dev.PowerOn();

  for (const auto& [lpn, version] : flushed) {
    std::string got;
    ASSERT_TRUE(dev.Read(0, lpn, 1, &got).status.ok());
    // P4/P5: the flushed value survives unless a post-flush overwrite of
    // this lpn... which on this volatile model rolls back to the flushed
    // value. Either way we must read an acknowledged value, never garbage.
    bool acceptable = got == Value(version);
    if (!acceptable) {
      auto it = after.find(lpn);
      if (it != after.end()) acceptable = got == Value(it->second);
    }
    EXPECT_TRUE(acceptable) << "lpn " << lpn << " cut " << cut;
  }
}

// --------------------------- Write-amplification property ------------------

class WriteAmpSweep : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, WriteAmpSweep, ::testing::Values(1, 2, 3));

TEST_P(WriteAmpSweep, PairingKeepsAmplificationBounded) {
  // Random single-sector writes over a bounded space: the 4KB pairing
  // (two sectors per 8KB program) must keep WA near 1 before GC, and
  // bounded (< 3) even with heavy GC churn.
  SsdConfig cfg = SsdConfig::Tiny(true);
  cfg.geometry.blocks_per_plane = 48;
  cfg.geometry.pages_per_block = 16;
  cfg.over_provision = 0.2;
  cfg.store_data = false;
  SsdDevice dev(cfg);

  Random rng(GetParam());
  const uint64_t span = dev.num_sectors() / 2;
  const std::string payload(kSector, 'w');
  SimTime t = 0;
  for (int i = 0; i < 12000; ++i) {
    const auto w = dev.Write(t, rng.Uniform(span), payload);
    ASSERT_TRUE(w.status.ok());
    t = w.done;
  }
  EXPECT_GT(dev.ftl().stats().gc_runs, 0u);  // Churn really happened.
  EXPECT_LT(dev.WriteAmplification(), 3.0);
  EXPECT_GE(dev.WriteAmplification(), 0.95);
}

}  // namespace
}  // namespace durassd
