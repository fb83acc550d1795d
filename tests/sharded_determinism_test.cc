// Determinism regression: independent stacks run through RunParallel must
// produce bit-identical results regardless of the host thread count. Each
// stack runs a full crash-torture scenario (CrashHarness with a nested
// power cut, on a raw DuraSSD or on a tiered device) from inside its own
// serial client loop, so the heavyweight work really lands on whichever
// host worker took the stack — and the composite of every stack's Report,
// schedule log, and loop result must not change across {1, 2, 4, 8}
// threads.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/crash_harness.h"
#include "sim/run_parallel.h"
#include "sim/sim_executor.h"

namespace durassd {
namespace {

/// Deterministic pseudo-random service time for (client, now).
SimTime Service(uint32_t client, SimTime now, uint64_t salt) {
  uint64_t h = now ^ (client * 0x9E3779B97F4A7C15ull) ^ salt;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return 1 + (h % (2 * kMicrosecond));
}

std::string Format(const CrashHarness::Report& r) {
  std::string s = "ok=" + std::to_string(r.ok) +
                  " cuts=" + std::to_string(r.cuts) +
                  " attempts=" + std::to_string(r.recovery_attempts) +
                  " recovered=" + std::to_string(r.recovered) +
                  " in_flight=" + std::to_string(r.commit_in_flight) +
                  " acked=" + std::to_string(r.commits_acked) +
                  " snapshot=" + std::to_string(r.snapshot_matched) +
                  " degraded=" + std::to_string(r.degraded);
  for (const std::string& v : r.violations) s += " V[" + v + "]";
  return s;
}

CrashHarness::Options TortureOptions(uint32_t stack) {
  CrashHarness::Options o;
  o.engine = stack % 2 == 0 ? CrashHarness::Engine::kDatabase
                            : CrashHarness::Engine::kKvStore;
  o.seed = 7000 + stack;
  o.ops = 60;
  o.keyspace = 48;
  o.cut_fraction = 0.35 + 0.1 * stack;
  o.nested_cut = true;
  o.tiered = stack >= 2;
  return o;
}

std::string RunOnce(uint32_t threads) {
  constexpr uint32_t kStacks = 4;
  std::vector<std::string> reports(kStacks);
  std::vector<std::string> logs(kStacks);
  std::vector<SerialExecutor::RunResult> results(kStacks);
  RunParallel(kStacks, threads, [&](uint32_t s) {
    results[s] = SerialExecutor().Run(
        /*num_clients=*/2, /*total_ops=*/40, /*start_time=*/0,
        [s, &reports, &logs](uint32_t client, SimTime now) {
          if (reports[s].empty()) {
            reports[s] = Format(CrashHarness::Run(TortureOptions(s)));
          }
          const SimTime done = now + Service(client, now, 11 + s);
          logs[s] += std::to_string(client) + "@" + std::to_string(now) + ";";
          return done;
        });
  });

  std::string composite;
  for (uint32_t s = 0; s < kStacks; ++s) {
    composite += "[stack " + std::to_string(s) +
                 " ops=" + std::to_string(results[s].ops) +
                 " makespan=" + std::to_string(results[s].makespan) + " " +
                 reports[s] + "]" + logs[s] + "\n";
  }
  return composite;
}

TEST(ShardedDeterminismTest, TortureStacksIdenticalAcrossThreads) {
  const std::string golden = RunOnce(1);
  ASSERT_NE(golden.find("recovered=1"), std::string::npos) << golden;
  ASSERT_EQ(golden.find("V["), std::string::npos) << golden;
  for (const uint32_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(golden, RunOnce(threads)) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace durassd
