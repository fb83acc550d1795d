#ifndef DURASSD_COMMON_RESOURCE_H_
#define DURASSD_COMMON_RESOURCE_H_

#include <algorithm>
#include <cassert>
#include <queue>
#include <vector>

#include "common/types.h"

namespace durassd {

/// Virtual-time reservation of a resource with `capacity` parallel service
/// slots (a bus, a firmware pipeline, a pool of DMA engines). A request
/// arriving at time t occupies the earliest-free slot for `duration`,
/// modelling both queueing (capacity busy => wait) and pipelining.
class ResourceTimeline {
 public:
  struct Grant {
    SimTime start;
    SimTime done;
  };

  explicit ResourceTimeline(uint32_t capacity = 1) {
    assert(capacity > 0);
    for (uint32_t i = 0; i < capacity; ++i) slots_.push(0);
  }

  /// Reserves one slot for `duration` starting no earlier than `t`.
  Grant Acquire(SimTime t, SimTime duration) {
    const SimTime free_at = slots_.top();
    slots_.pop();
    const SimTime start = std::max(t, free_at);
    const SimTime done = start + duration;
    slots_.push(done);
    return {start, done};
  }

  /// Time at which all current reservations have drained.
  SimTime AllFree() const {
    // The max of a min-heap: scan a copy. Capacity is small (<= hundreds).
    auto copy = slots_;
    SimTime latest = 0;
    while (!copy.empty()) {
      latest = std::max(latest, copy.top());
      copy.pop();
    }
    return latest;
  }

 private:
  std::priority_queue<SimTime, std::vector<SimTime>, std::greater<SimTime>>
      slots_;
};

}  // namespace durassd

#endif  // DURASSD_COMMON_RESOURCE_H_
