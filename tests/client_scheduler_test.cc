// SerialExecutor determinism: (local clock, FIFO) resume order and the
// degenerate zero-result cases.
#include <gtest/gtest.h>

#include <vector>

#include "sim/sim_executor.h"

namespace durassd {
namespace {

TEST(ClientScheduler, FifoTieBreakAmongEqualClocks) {
  // Every operation takes exactly 10 time units, so after the first round
  // all clients' clocks collide at 10, then 20, ... The FIFO rule says the
  // client that became runnable first resumes first: the resume order must
  // be round-robin in the order of the *previous* round, never reshuffled
  // by index or heap layout.
  std::vector<uint32_t> resumed;
  const auto fn = [&](uint32_t client, SimTime now) -> SimTime {
    resumed.push_back(client);
    return now + 10;
  };
  const SerialExecutor::RunResult r = SerialExecutor().Run(3, 9, 0, fn);
  EXPECT_EQ(r.ops, 9u);
  EXPECT_EQ(r.makespan, 30);
  const std::vector<uint32_t> want = {0, 1, 2, 0, 1, 2, 0, 1, 2};
  EXPECT_EQ(resumed, want);
}

TEST(ClientScheduler, FifoOrderFollowsBecameRunnableNotIndex) {
  // Engineer a collision where the *higher*-index client became runnable
  // first: client 0 runs two quick ops (0→3, 3→20) while client 1 runs one
  // long op (0→20). Client 1's re-enqueue (when its op completes) happens
  // before client 0's second re-enqueue, so at the t=20 collision FIFO
  // must resume client 1 first. An index tie-break would pick client 0 —
  // this pins the documented FIFO guarantee.
  std::vector<uint32_t> resumed;
  std::vector<uint32_t> op_count(2, 0);
  const auto fn = [&](uint32_t client, SimTime now) -> SimTime {
    resumed.push_back(client);
    const uint32_t op = op_count[client]++;
    if (client == 0 && op == 0) return now + 3;
    if (client == 0 && op == 1) return now + 17;  // 3 -> 20.
    if (client == 1 && op == 0) return now + 20;
    return now + 10;  // Later rounds: everyone collides again.
  };
  const SerialExecutor::RunResult r = SerialExecutor().Run(2, 6, 0, fn);
  EXPECT_EQ(r.ops, 6u);
  // t=0: 0 then 1 (index order at start). t=3: 0 again (lowest clock).
  // t=20: both runnable, client 1 enqueued first -> 1 then 0. t=30: same.
  const std::vector<uint32_t> want = {0, 1, 0, 1, 0, 1};
  EXPECT_EQ(resumed, want);
}

TEST(ClientScheduler, DeterministicAcrossRuns) {
  const auto run = [] {
    std::vector<uint32_t> resumed;
    const auto fn = [&](uint32_t client, SimTime now) -> SimTime {
      resumed.push_back(client);
      return now + 7 + (client * 3) % 5;
    };
    SerialExecutor().Run(4, 24, 0, fn);
    return resumed;
  };
  EXPECT_EQ(run(), run());
}

TEST(ClientScheduler, ZeroClientsReturnsZeroResult) {
  bool called = false;
  const auto fn = [&](uint32_t, SimTime now) -> SimTime {
    called = true;
    return now;
  };
  const SerialExecutor::RunResult r = SerialExecutor().Run(0, 100, 50, fn);
  EXPECT_FALSE(called);
  EXPECT_EQ(r.ops, 0u);
  EXPECT_EQ(r.makespan, 0);
  EXPECT_EQ(r.OpsPerSecond(), 0.0);
}

TEST(ClientScheduler, ZeroOpsReturnsZeroResult) {
  bool called = false;
  const auto fn = [&](uint32_t, SimTime now) -> SimTime {
    called = true;
    return now;
  };
  const SerialExecutor::RunResult r = SerialExecutor().Run(8, 0, 50, fn);
  EXPECT_FALSE(called);
  EXPECT_EQ(r.ops, 0u);
  EXPECT_EQ(r.makespan, 0);
  EXPECT_EQ(r.OpsPerSecond(), 0.0);
}

}  // namespace
}  // namespace durassd
