#include "sim/sim_executor.h"

#include <queue>
#include <vector>

namespace durassd {

SerialExecutor::RunResult SerialExecutor::Run(uint32_t num_clients,
                                              uint64_t total_ops,
                                              SimTime start_time,
                                              const ClientFn& fn) const {
  RunResult result;
  if (num_clients == 0 || total_ops == 0) return result;
  struct Entry {
    SimTime at;
    uint64_t seq;  ///< Enqueue order: the FIFO tie-break among equal clocks.
    uint32_t client;
  };
  const auto later = [](const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(later)> heap(later);
  uint64_t seq = 0;
  for (uint32_t c = 0; c < num_clients; ++c) {
    heap.push(Entry{start_time, seq++, c});
  }
  SimTime latest = start_time;
  while (result.ops < total_ops && !heap.empty()) {
    const Entry e = heap.top();
    heap.pop();
    const SimTime done = fn(e.client, e.at);
    latest = done > latest ? done : latest;
    result.ops++;
    heap.push(Entry{done, seq++, e.client});
  }
  result.makespan = latest - start_time;
  return result;
}

}  // namespace durassd
