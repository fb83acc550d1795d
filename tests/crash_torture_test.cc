// CI torture entry point: a seed-range sweep of the crash harness meant to
// run long under sanitizers. The range is injected by the environment so CI
// can scale it without a rebuild:
//
//   DURASSD_TORTURE_SEEDS=lo:hi   inclusive seed range   (default 100:105)
//   DURASSD_TORTURE_FAIL_FILE=p   append one reproducer line per violation
//                                 (uploaded as a CI artifact on failure)
//   DURASSD_TORTURE_REPRO="..."   run EXACTLY this one scenario instead of
//                                 the sweep (paste a printed repro line)
//
// Every violation string is self-contained: each failure also prints a
// single copy-pasteable `DURASSD_TORTURE_REPRO="..."` line that re-runs
// that exact scenario via CrashHarness::Options::FromString.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/crash_harness.h"

namespace durassd {
namespace {

using Engine = CrashHarness::Engine;

void ParseSeedRange(uint64_t* lo, uint64_t* hi) {
  *lo = 100;
  *hi = 105;
  const char* env = std::getenv("DURASSD_TORTURE_SEEDS");
  if (env == nullptr) return;
  uint64_t a = 0, b = 0;
  if (std::sscanf(env, "%llu:%llu", reinterpret_cast<unsigned long long*>(&a),
                  reinterpret_cast<unsigned long long*>(&b)) == 2 &&
      a <= b) {
    *lo = a;
    *hi = b;
  }
}

void AppendFailures(const std::vector<std::string>& violations) {
  const char* path = std::getenv("DURASSD_TORTURE_FAIL_FILE");
  if (path == nullptr || violations.empty()) return;
  std::FILE* f = std::fopen(path, "a");
  if (f == nullptr) return;
  for (const std::string& v : violations) {
    std::fprintf(f, "%s\n", v.c_str());
  }
  std::fclose(f);
}

void TortureOne(const CrashHarness::Options& o, int* failures) {
  const CrashHarness::Report rep = CrashHarness::Run(o);
  if (rep.ok) return;
  ++*failures;
  AppendFailures(rep.violations);
  for (const std::string& v : rep.violations) {
    ADD_FAILURE() << v;
  }
  ADD_FAILURE() << "repro: DURASSD_TORTURE_REPRO=\"" << o.ToString() << "\"";
}

/// If DURASSD_TORTURE_REPRO is set, runs that single pasted scenario and
/// returns true (the sweep is skipped — this is the debugging mode).
bool MaybeRunRepro() {
  const char* repro = std::getenv("DURASSD_TORTURE_REPRO");
  if (repro == nullptr) return false;
  int failures = 0;
  TortureOne(CrashHarness::Options::FromString(repro), &failures);
  EXPECT_EQ(failures, 0) << "pasted repro still violates";
  return true;
}

TEST(CrashTorture, SeedRangeSweep) {
  if (MaybeRunRepro()) return;
  uint64_t lo = 0, hi = 0;
  ParseSeedRange(&lo, &hi);
  int failures = 0;
  uint64_t ran = 0;
  for (uint64_t seed = lo; seed <= hi; ++seed) {
    // Per seed: both engines across the three durability deployments
    // (volatile + flush, durable + ordered NCQ, barrier-enabled), two cut
    // points each, plus a nested-cut and a fault-injection scenario on
    // alternating seeds.
    for (Engine engine : {Engine::kDatabase, Engine::kKvStore}) {
      for (DurabilityMode mode :
           {DurabilityMode::kVolatileFlush, DurabilityMode::kDurableOrderedNcq,
            DurabilityMode::kBarrier}) {
        for (double cut : {0.25, 0.65}) {
          CrashHarness::Options o;
          o.engine = engine;
          o.durable_cache = mode != DurabilityMode::kVolatileFlush;
          o.write_barriers = true;
          o.double_write = true;
          o.kv_batch_size = 4;
          o.ops = 48;
          o.keyspace = 32;
          o.seed = seed;
          o.cut_fraction = cut;
          o.durability_mode = mode;
          // Barrier scenarios snap half their cuts to epoch edges, where
          // a cross-epoch ordering bug would surface.
          o.cut_at_barrier_boundary =
              mode == DurabilityMode::kBarrier && cut >= 0.5;
          o.nested_cut = (seed % 2 == 0) && cut < 0.5;
          o.inject_faults = (seed % 2 == 1) && cut >= 0.5;
          // Alternate the queue mode, so cuts land in both ordered and
          // unordered modes across the range.
          o.ordered_queue = (seed % 2 == 0);
          // Rotate the destage placement too: durable-cache scenarios on
          // alternating seed+cut parity run the log-structured segment
          // path, so checksummed replay faces the same oracle.
          o.log_structured_destage =
              o.durable_cache && ((seed + (cut < 0.5 ? 0 : 1)) % 2 == 0);
          TortureOne(o, &failures);
          ++ran;
        }
      }

      // Tiered stack (flash extended cache over HDD): host acks are flash-
      // journal acks, so the kStrict oracle applies. Rotate warmth and
      // admission across the range; tiny destage batches keep a group
      // destage in flight at most cut instants.
      CrashHarness::Options t;
      t.engine = engine;
      t.tiered = true;
      t.ops = 48;
      t.keyspace = 32;
      t.seed = seed;
      t.cut_fraction = engine == Engine::kDatabase ? 0.4 : 0.7;
      t.tier_destage_batch = 8;
      t.tier_admission = seed % 2;
      t.tier_warm = (seed + (engine == Engine::kDatabase ? 0 : 1)) % 2 == 0;
      t.nested_cut = seed % 2 == 0;
      TortureOne(t, &failures);
      ++ran;
    }
  }
  EXPECT_EQ(failures, 0);
  // 14 scenarios per seed (12 raw-stack + 2 tiered); the default range
  // keeps local runs quick.
  EXPECT_EQ(ran, (hi - lo + 1) * 14);
}

}  // namespace
}  // namespace durassd
