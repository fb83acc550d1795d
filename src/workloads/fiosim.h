#ifndef DURASSD_WORKLOADS_FIOSIM_H_
#define DURASSD_WORKLOADS_FIOSIM_H_

#include <cstdint>

#include "common/histogram.h"
#include "common/types.h"
#include "host/block_device.h"

namespace durassd {

/// fio-style micro-benchmark driver: N logical threads issuing random
/// block-aligned reads or writes through a file on a SimFileSystem, with a
/// configurable fsync interval. Reproduces the methodology behind the
/// paper's Tables 1 and 2.
struct FioJob {
  enum class Mode { kRandWrite, kRandRead };
  Mode mode = Mode::kRandWrite;
  uint32_t block_bytes = 4 * kKiB;
  uint32_t threads = 1;
  uint64_t ops = 20000;
  /// fsync after every N writes per thread; 0 = never.
  uint32_t fsync_every = 0;
  /// Submission window (fio's iodepth) for write jobs: a single submitter
  /// keeps up to this many writes in flight, issuing the next one at the
  /// earliest completion whenever the window is full, and keeps only their
  /// completion times; `threads` is ignored. <= 1 = the synchronous closed
  /// loop over `threads` clients. `fsync_every` then counts writes and
  /// waits for the whole window before each fsync.
  uint32_t iodepth = 1;
  /// Host write barriers (fsync => FLUSH CACHE) — the "NoBarrier" row.
  bool write_barriers = true;
  /// File size the random offsets span.
  uint64_t working_set_bytes = 256 * kMiB;
  uint64_t seed = 42;
  /// Replace each fsync with a barrier submission (fbarrier) — the
  /// barrier-enabled I/O stack row of the durability-mode ablation. Falls
  /// back to a full fsync on devices without barrier support.
  bool barrier_sync = false;
};

struct FioResult {
  double iops = 0;
  SimTime duration = 0;
  Histogram latency;
};

/// Runs the job against the device. Reads ask for no bytes, so large jobs
/// usually run on a timing-only device (`SsdConfig::store_data = false`,
/// or `MakeDevice`), which keeps no host bytes and recovers like its
/// real-bytes twin.
FioResult RunFio(BlockDevice* device, const FioJob& job);

}  // namespace durassd

#endif  // DURASSD_WORKLOADS_FIOSIM_H_
