// Crash-consistency torture sweeps: the CrashHarness oracle across the
// configuration matrix (durable vs volatile cache x barriers x double-write
// x engine), fsync-mode sweeps, nested cuts during recovery, and cuts with
// NAND fault injection live.
//
// ctest runs every TEST in its own process, so coverage arithmetic cannot
// rely on cross-test state: the sweep lists below are file-scope constants
// shared by the sweep tests AND the pure-arithmetic coverage test, which
// asserts the acceptance floor of >= 200 (seed x cut x config) combos.
#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "sim/crash_harness.h"

namespace durassd {
namespace {

using Engine = CrashHarness::Engine;

// --------------------------- Shared sweep lists ----------------------------

constexpr uint64_t kSeeds[] = {1, 7, 13};
constexpr double kCuts[] = {0.15, 0.35, 0.55, 0.8};

struct DbConfig {
  bool durable;
  bool barriers;
  bool dwb;
};
constexpr DbConfig kDbConfigs[] = {
    {true, true, true},   {true, true, false},  {true, false, true},
    {true, false, false}, {false, true, true},  {false, true, false},
    {false, false, true}, {false, false, false},
};

struct KvConfig {
  bool durable;
  bool barriers;
  uint32_t batch;
};
constexpr KvConfig kKvConfigs[] = {
    {true, true, 1},  {true, true, 8},  {true, false, 1},  {true, false, 8},
    {false, true, 1}, {false, true, 8}, {false, false, 1}, {false, false, 8},
};

constexpr uint64_t kSyncSeeds[] = {3, 9};
constexpr double kSyncCuts[] = {0.2, 0.5, 0.85};

constexpr double kNestedCuts[] = {0.3, 0.7};   // x2 engines x durable/volatile
constexpr uint64_t kFaultSeeds[] = {5, 11, 17};  // x2 engines

constexpr uint64_t kBarrierSeeds[] = {2, 8, 19};
constexpr double kBarrierCuts[] = {0.2, 0.45, 0.7, 0.9};

constexpr size_t kDbMatrixCombos =
    std::size(kDbConfigs) * std::size(kSeeds) * std::size(kCuts);
constexpr size_t kKvMatrixCombos =
    std::size(kKvConfigs) * std::size(kSeeds) * std::size(kCuts);
constexpr size_t kSyncModeCombos =
    2 * std::size(kSyncSeeds) * std::size(kSyncCuts);  // durable x volatile
constexpr size_t kNestedCombos = 2 * 2 * std::size(kNestedCuts);
constexpr size_t kFaultCombos = 2 * std::size(kFaultSeeds);
// Barrier commit mode: engines x durable/volatile x seeds x cuts.
constexpr size_t kBarrierModeCombos =
    2 * 2 * std::size(kBarrierSeeds) * std::size(kBarrierCuts);
// Boundary-snapped cut instants: 2 modes x engines x seeds x cuts.
constexpr size_t kBoundaryCombos =
    2 * 2 * std::size(kBarrierSeeds) * std::size(kBarrierCuts);
constexpr size_t kBarrierFaultCombos = 2 * std::size(kBarrierSeeds);

TEST(CrashHarnessCoverage, SweepsAtLeastTwoHundredCombos) {
  constexpr size_t total = kDbMatrixCombos + kKvMatrixCombos +
                           kSyncModeCombos + kNestedCombos + kFaultCombos +
                           kBarrierModeCombos + kBoundaryCombos +
                           kBarrierFaultCombos;
  static_assert(total >= 200, "torture coverage shrank below the floor");
  EXPECT_GE(total, 200u) << "db=" << kDbMatrixCombos
                         << " kv=" << kKvMatrixCombos
                         << " sync=" << kSyncModeCombos
                         << " nested=" << kNestedCombos
                         << " fault=" << kFaultCombos
                         << " barrier=" << kBarrierModeCombos
                         << " boundary=" << kBoundaryCombos
                         << " barrier_fault=" << kBarrierFaultCombos;
}

// --------------------------- Helpers ---------------------------------------

CrashHarness::Options Quick() {
  CrashHarness::Options o;
  o.ops = 48;
  o.keyspace = 32;
  return o;
}

void ExpectClean(const CrashHarness::Options& o) {
  const CrashHarness::Report rep = CrashHarness::Run(o);
  std::string all;
  for (const std::string& v : rep.violations) all += "\n  " + v;
  EXPECT_TRUE(rep.ok) << o.ToString() << all;
}

// --------------------------- Database matrix -------------------------------

class DbMatrix : public ::testing::TestWithParam<int> {};

TEST_P(DbMatrix, SurvivesRandomizedCuts) {
  const DbConfig& c = kDbConfigs[GetParam()];
  for (uint64_t seed : kSeeds) {
    for (double cut : kCuts) {
      CrashHarness::Options o = Quick();
      o.engine = Engine::kDatabase;
      o.durable_cache = c.durable;
      o.write_barriers = c.barriers;
      o.double_write = c.dwb;
      o.seed = seed;
      o.cut_fraction = cut;
      ExpectClean(o);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, DbMatrix,
                         ::testing::Range(0, static_cast<int>(
                                                 std::size(kDbConfigs))));

// --------------------------- KvStore matrix --------------------------------

class KvMatrix : public ::testing::TestWithParam<int> {};

TEST_P(KvMatrix, SurvivesRandomizedCuts) {
  const KvConfig& c = kKvConfigs[GetParam()];
  for (uint64_t seed : kSeeds) {
    for (double cut : kCuts) {
      CrashHarness::Options o = Quick();
      o.engine = Engine::kKvStore;
      o.durable_cache = c.durable;
      o.write_barriers = c.barriers;
      o.kv_batch_size = c.batch;
      o.seed = seed;
      o.cut_fraction = cut;
      ExpectClean(o);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, KvMatrix,
                         ::testing::Range(0, static_cast<int>(
                                                 std::size(kKvConfigs))));

// --------------------------- fsync-mode sweep ------------------------------

// Commercial-RDBMS O_DSYNC mode (Sec. 4.3.2): fsync after every page write.
TEST(DbSyncModeSweep, SyncEveryPageWriteSurvivesCuts) {
  for (bool durable : {true, false}) {
    for (uint64_t seed : kSyncSeeds) {
      for (double cut : kSyncCuts) {
        CrashHarness::Options o = Quick();
        o.engine = Engine::kDatabase;
        o.durable_cache = durable;
        o.write_barriers = true;
        o.double_write = true;
        o.sync_every_page_write = true;
        o.seed = seed;
        o.cut_fraction = cut;
        ExpectClean(o);
      }
    }
  }
}

// --------------------------- Nested cuts -----------------------------------

// A second power cut lands in the middle of recovering from the first.
TEST(NestedCutSweep, RecoveryItselfIsCrashSafe) {
  for (Engine engine : {Engine::kDatabase, Engine::kKvStore}) {
    for (bool durable : {true, false}) {
      for (double cut : kNestedCuts) {
        CrashHarness::Options o = Quick();
        o.engine = engine;
        o.durable_cache = durable;
        o.write_barriers = true;
        o.double_write = true;
        o.kv_batch_size = 4;
        o.seed = 21;
        o.cut_fraction = cut;
        o.nested_cut = true;
        ExpectClean(o);
      }
    }
  }
}

// --------------------------- Fault injection -------------------------------

// Power cuts with the NAND fault model live: bit errors within the ECC
// budget plus occasional program/erase failures. Invariants are unchanged —
// the device must absorb the faults.
TEST(FaultInjectionSweep, CutsUnderNandFaults) {
  for (Engine engine : {Engine::kDatabase, Engine::kKvStore}) {
    for (uint64_t seed : kFaultSeeds) {
      CrashHarness::Options o = Quick();
      o.engine = engine;
      o.durable_cache = true;
      o.write_barriers = true;
      o.double_write = true;
      o.kv_batch_size = 4;
      o.seed = seed;
      o.cut_fraction = 0.45;
      o.inject_faults = true;
      ExpectClean(o);
    }
  }
}

// --------------------------- Barrier commit mode ---------------------------

// Engines committing via BARRIER submission instead of fsync. On the
// durable device the epoch machinery provides ordering (and the epoch
// oracle audits every cut); on the volatile device the barrier degenerates
// to a full fsync and the usual tier invariants apply unchanged.
TEST(BarrierModeSweep, SurvivesRandomizedCuts) {
  for (Engine engine : {Engine::kDatabase, Engine::kKvStore}) {
    for (bool durable : {true, false}) {
      for (uint64_t seed : kBarrierSeeds) {
        for (double cut : kBarrierCuts) {
          CrashHarness::Options o = Quick();
          o.engine = engine;
          o.durable_cache = durable;
          o.write_barriers = true;
          o.double_write = true;
          o.kv_batch_size = 4;
          o.durability_mode = DurabilityMode::kBarrier;
          o.seed = seed;
          o.cut_fraction = cut;
          ExpectClean(o);
        }
      }
    }
  }
}

// Cuts snapped to barrier-seal / flush-completion instants enumerated from
// the probe-pass device trace — the exact moments the epoch changes hands,
// where an ordering bug would surface. Swept in both commit modes so flush
// boundaries are exercised too.
TEST(BarrierBoundarySweep, CutsAtEpochEdges) {
  for (DurabilityMode mode :
       {DurabilityMode::kDurableOrderedNcq, DurabilityMode::kBarrier}) {
    for (Engine engine : {Engine::kDatabase, Engine::kKvStore}) {
      for (uint64_t seed : kBarrierSeeds) {
        for (double cut : kBarrierCuts) {
          CrashHarness::Options o = Quick();
          o.engine = engine;
          o.durable_cache = true;
          o.write_barriers = true;
          o.double_write = true;
          o.kv_batch_size = 4;
          o.durability_mode = mode;
          o.cut_at_barrier_boundary = true;
          o.seed = seed;
          o.cut_fraction = cut;
          ExpectClean(o);
        }
      }
    }
  }
}

// Barrier mode with the NAND fault model live: program failures force the
// destage scheduler to re-drive writes from already-sealed epochs; the
// epoch guarantee must hold regardless.
TEST(BarrierFaultSweep, CutsUnderNandFaults) {
  for (Engine engine : {Engine::kDatabase, Engine::kKvStore}) {
    for (uint64_t seed : kBarrierSeeds) {
      CrashHarness::Options o = Quick();
      o.engine = engine;
      o.durable_cache = true;
      o.write_barriers = true;
      o.double_write = true;
      o.kv_batch_size = 4;
      o.durability_mode = DurabilityMode::kBarrier;
      o.inject_faults = true;
      o.seed = seed;
      o.cut_fraction = 0.55;
      ExpectClean(o);
    }
  }
}

// Negative self-test: forge a cross-epoch reordering into the recovered
// state and require the oracle to reject it. A clean report here would
// mean the oracle is blind to exactly the corruption barriers prevent.
TEST(BarrierOracleSelfTest, PlantedCrossEpochReorderIsRejected) {
  for (Engine engine : {Engine::kDatabase, Engine::kKvStore}) {
    Tracer tracer;
    CrashHarness::Options o = Quick();
    o.engine = engine;
    o.durable_cache = true;
    o.write_barriers = true;
    o.double_write = true;
    o.kv_batch_size = 4;
    o.durability_mode = DurabilityMode::kBarrier;
    o.plant_epoch_reorder = true;
    o.seed = 23;
    o.cut_fraction = 0.9;  // Plenty of sealed commits to revert one of.
    o.tracer = &tracer;
    const CrashHarness::Report rep = CrashHarness::Run(o);
    EXPECT_FALSE(rep.ok) << o.ToString()
                         << "\n  oracle accepted a forged cross-epoch "
                            "reordering";
    EXPECT_FALSE(rep.violations.empty());
    bool traced = false;
    for (const TraceEvent& e : tracer.Events()) {
      if (e.type == TraceEventType::kInvariantViolation) traced = true;
    }
    EXPECT_TRUE(traced) << "violation not recorded in the tracer";
  }
}

// --------------------------- Report plumbing -------------------------------

TEST(CrashHarnessReport, IsDeterministicAndSelfDescribing) {
  CrashHarness::Options o = Quick();
  o.engine = Engine::kDatabase;
  o.seed = 42;
  o.cut_fraction = 0.5;
  const CrashHarness::Report a = CrashHarness::Run(o);
  const CrashHarness::Report b = CrashHarness::Run(o);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.cuts, b.cuts);
  EXPECT_EQ(a.recovery_attempts, b.recovery_attempts);
  EXPECT_EQ(a.commits_acked, b.commits_acked);
  EXPECT_EQ(a.snapshot_matched, b.snapshot_matched);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_GE(a.cuts, 1);
  // The reproducer string names every knob.
  const std::string repro = o.ToString();
  EXPECT_NE(repro.find("seed=42"), std::string::npos) << repro;
  EXPECT_NE(repro.find("cut_fraction="), std::string::npos) << repro;
}

TEST(CrashHarnessReport, ReproStringRoundTripsThroughFromString) {
  // Flip every representable knob away from its default, serialize, parse
  // back, and re-serialize: the two strings must be identical — this is
  // what makes a printed DURASSD_TORTURE_REPRO line trustworthy.
  CrashHarness::Options o;
  o.engine = Engine::kKvStore;
  o.durable_cache = false;
  o.write_barriers = false;
  o.double_write = false;
  o.sync_every_page_write = true;
  o.ordered_queue = false;
  o.log_structured_destage = true;
  o.checkpoint_queue_depth = 8;
  o.kv_batch_size = 16;
  o.seed = 987654321;
  o.ops = 37;
  o.ops_per_txn = 5;
  o.keyspace = 17;
  o.cut_fraction = 0.375;
  o.nested_cut = true;
  o.inject_faults = true;
  o.durability_mode = DurabilityMode::kBarrier;
  o.cut_at_barrier_boundary = true;
  o.plant_epoch_reorder = true;
  const std::string line = o.ToString();
  const CrashHarness::Options back = CrashHarness::Options::FromString(line);
  EXPECT_EQ(back.ToString(), line);

  // And parsing the defaults' string gives back the defaults.
  const CrashHarness::Options d;
  EXPECT_EQ(CrashHarness::Options::FromString(d.ToString()).ToString(),
            d.ToString());
  // A parsed scenario runs identically to the original Options.
  CrashHarness::Options q = Quick();
  q.seed = 31;
  const auto a = CrashHarness::Run(q);
  const auto b = CrashHarness::Run(CrashHarness::Options::FromString(
      q.ToString()));
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.commits_acked, b.commits_acked);
  EXPECT_EQ(a.snapshot_matched, b.snapshot_matched);
}

TEST(CrashHarnessReport, RecordsViolationsInAttachedTracer) {
  // A healthy run records no kInvariantViolation events.
  Tracer tracer;
  CrashHarness::Options o = Quick();
  o.engine = Engine::kKvStore;
  o.seed = 4;
  o.cut_fraction = 0.6;
  o.tracer = &tracer;
  const CrashHarness::Report rep = CrashHarness::Run(o);
  EXPECT_TRUE(rep.ok);
  for (const TraceEvent& e : tracer.Events()) {
    EXPECT_NE(e.type, TraceEventType::kInvariantViolation);
  }
}

}  // namespace
}  // namespace durassd
