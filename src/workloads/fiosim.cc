#include "workloads/fiosim.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "common/random.h"
#include "host/sim_file.h"
#include "sim/sim_executor.h"

namespace durassd {

FioResult RunFio(BlockDevice* device, const FioJob& job) {
  SimFileSystem::Options fso;
  fso.write_barriers = job.write_barriers;
  SimFileSystem fs(device, fso);
  SimFile* file = fs.Open("fio.dat");

  const uint64_t span = std::min<uint64_t>(
      job.working_set_bytes,
      device->capacity_bytes() / 2);
  const uint64_t blocks = std::max<uint64_t>(1, span / job.block_bytes);
  file->Allocate(blocks * job.block_bytes);

  const std::string payload(job.block_bytes, 'f');

  // Read jobs precondition the file first (otherwise reads hit unmapped
  // sectors, which cost no media time); the preconditioning writes are
  // excluded from the measurement by starting the clock after a drain.
  SimTime start_time = 0;
  if (job.mode == FioJob::Mode::kRandRead) {
    // Large sequential writes amortize per-command cost.
    const uint32_t batch = 8;
    const std::string big(static_cast<size_t>(job.block_bytes) * batch, 'p');
    SimTime t = 0;
    for (uint64_t b = 0; b + batch <= blocks; b += batch) {
      const SimFile::IoResult w =
          file->Write(t, b * job.block_bytes, big);
      if (!w.status.ok()) break;
      t = w.done;
    }
    const BlockDevice::Result f = device->Flush(t);
    start_time = f.status.ok() ? f.done : t;
  }

  // Windowed submission (fio iodepth > 1): one submitter keeps up to
  // `iodepth` writes in flight. A write's result is final when it is
  // issued, so its latency is recorded then and the window holds only
  // completion times; a full window advances the submitter to its earliest
  // completion.
  if (job.mode == FioJob::Mode::kRandWrite && job.iodepth > 1) {
    FioResult result;
    Random rng(job.seed);
    SimTime now = start_time;
    uint32_t since_fsync = 0;
    std::priority_queue<SimTime, std::vector<SimTime>, std::greater<SimTime>>
        window;
    const auto drain = [&] {
      for (; !window.empty(); window.pop()) now = std::max(now, window.top());
    };
    for (uint64_t i = 0; i < job.ops; ++i) {
      if (window.size() >= job.iodepth) {
        now = std::max(now, window.top());
        while (!window.empty() && window.top() <= now) window.pop();
      }
      const uint64_t offset = rng.Uniform(blocks) * job.block_bytes;
      const SimFile::IoResult w = file->Write(now, offset, payload);
      result.latency.Record(w.done - now);
      window.push(w.done);
      if (job.fsync_every != 0 && ++since_fsync >= job.fsync_every) {
        since_fsync = 0;
        drain();
        const SimFile::IoResult s =
            job.barrier_sync ? file->Barrier(now) : file->Sync(now);
        if (s.status.ok()) now = std::max(now, s.done);
      }
    }
    drain();
    const BlockDevice::Result flush = device->Flush(now);
    const SimTime duration =
        (flush.status.ok() ? flush.done : now) - start_time;
    result.duration = duration;
    result.iops = duration <= 0
                      ? 0
                      : static_cast<double>(job.ops) /
                            (static_cast<double>(duration) / kSecond);
    return result;
  }

  std::vector<Random> rngs;
  std::vector<uint32_t> since_fsync(job.threads, 0);
  rngs.reserve(job.threads);
  for (uint32_t t = 0; t < job.threads; ++t) {
    rngs.emplace_back(job.seed + t * 7919);
  }

  FioResult result;
  const auto client_fn = [&](uint32_t client, SimTime now) -> SimTime {
    Random& rng = rngs[client];
    const uint64_t offset = rng.Uniform(blocks) * job.block_bytes;
    SimTime done = now;
    if (job.mode == FioJob::Mode::kRandWrite) {
      const SimFile::IoResult w = file->Write(now, offset, payload);
      done = w.done;
      if (job.fsync_every != 0 &&
          ++since_fsync[client] >= job.fsync_every) {
        since_fsync[client] = 0;
        const SimFile::IoResult s =
            job.barrier_sync ? file->Barrier(done) : file->Sync(done);
        done = s.done;
      }
    } else {
      const SimFile::IoResult r =
          file->Read(now, offset, job.block_bytes, nullptr);
      done = r.done;
    }
    result.latency.Record(done - now);
    return done;
  };

  const SerialExecutor::RunResult run =
      SerialExecutor().Run(job.threads, job.ops, start_time, client_fn);
  // Drain the device cache so the reported rate is sustained steady-state
  // (without this a short write burst "completes" into the cache at bus
  // speed and never pays for the media).
  SimTime duration = run.makespan;
  if (job.mode == FioJob::Mode::kRandWrite) {
    const BlockDevice::Result flush =
        device->Flush(start_time + run.makespan);
    if (flush.status.ok()) duration = flush.done - start_time;
  }
  result.duration = duration;
  result.iops = duration <= 0 ? 0
                              : static_cast<double>(run.ops) /
                                    (static_cast<double>(duration) / kSecond);
  return result;
}

}  // namespace durassd
