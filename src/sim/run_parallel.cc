#include "sim/run_parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace durassd {

void RunParallel(uint32_t num_jobs, uint32_t threads,
                 const std::function<void(uint32_t job)>& job) {
  const uint32_t workers = std::max(1u, std::min(threads, num_jobs));
  std::atomic<uint32_t> next{0};
  // One slot per worker, so a helper's exception reaches the caller
  // instead of ending the program.
  std::vector<std::exception_ptr> errors(workers);
  const auto work = [&](uint32_t worker) {
    try {
      for (uint32_t i = next++; i < num_jobs; i = next++) job(i);
    } catch (...) {
      errors[worker] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(workers - 1);
    for (uint32_t w = 1; w < workers; ++w) helpers.emplace_back(work, w);
    work(0);
  }  // Every helper joins here.
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace durassd
