#ifndef DURASSD_SIM_RUN_PARALLEL_H_
#define DURASSD_SIM_RUN_PARALLEL_H_

#include <cstdint>
#include <functional>

namespace durassd {

/// Runs job(0) .. job(num_jobs - 1), each exactly once, and returns when
/// all have finished. The calling thread and up to `threads - 1` helper
/// threads take job indices from one atomic counter; `threads` <= 1 runs
/// every job on the calling thread. An exception a job throws is rethrown
/// here after every thread has joined.
///
/// Each job must own everything it touches — typically one simulation
/// stack driven by its own SerialExecutor loop (DESIGN.md §12). Then no
/// result depends on `threads` or on which thread ran which job.
void RunParallel(uint32_t num_jobs, uint32_t threads,
                 const std::function<void(uint32_t job)>& job);

}  // namespace durassd

#endif  // DURASSD_SIM_RUN_PARALLEL_H_
