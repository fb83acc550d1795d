#ifndef DURASSD_SIM_SIM_EXECUTOR_H_
#define DURASSD_SIM_SIM_EXECUTOR_H_

#include <cstdint>
#include <functional>

#include "common/types.h"

namespace durassd {

/// Closed-loop multi-client execution in virtual time: N logical clients
/// each repeatedly run one operation (a transaction) that advances their
/// local clock; contention happens inside the shared device/engine resource
/// timelines. Clients are always resumed in local-time order, which keeps
/// causality across shared state tight at transaction granularity. This
/// replaces the paper's 128 real benchmark threads: deterministic,
/// seedable, and a few orders of magnitude faster than wall-clock runs.
///
/// Determinism guarantee: the resume order is a pure function of the
/// inputs. Clients are popped in (local clock, FIFO) order — among clients
/// whose clocks are equal, the one that became runnable *first* resumes
/// first (ties never depend on client index, container layout, or hash
/// order). Given the same (num_clients, total_ops, start_time, fn), every
/// run produces the identical operation schedule.
///
/// The loop runs on the calling thread. Independent stacks, each driven by
/// its own loop, can run on several host threads through RunParallel
/// (sim/run_parallel.h); see DESIGN.md §12.
class SerialExecutor {
 public:
  /// Runs one operation for `client` starting at local time `now`; returns
  /// the operation's completion time (>= now).
  using ClientFn = std::function<SimTime(uint32_t client, SimTime now)>;

  struct RunResult {
    uint64_t ops = 0;
    SimTime makespan = 0;  ///< Virtual time when the last client finished.

    double OpsPerSecond() const {
      return makespan <= 0
                 ? 0.0
                 : static_cast<double>(ops) /
                       (static_cast<double>(makespan) / kSecond);
    }
  };

  /// Runs `total_ops` operations spread across `num_clients` clients
  /// starting at `start_time`. Each pop resumes the runnable client with
  /// the smallest local clock (FIFO among equals). Degenerate inputs (no
  /// clients or no ops) return a zero result.
  RunResult Run(uint32_t num_clients, uint64_t total_ops, SimTime start_time,
                const ClientFn& fn) const;
};

}  // namespace durassd

#endif  // DURASSD_SIM_SIM_EXECUTOR_H_
