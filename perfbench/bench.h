#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the workloads: arguments, the metric
// report one process prints, exact percentiles, seeded payloads, the
// device + file-system stack (with the tracing decorator in the traced
// run), and timed-phase deltas of the stack's counters.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "host/sim_file.h"
#include "spans.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  std::string spans_path;    ///< Where the traced run writes its spans.
  std::string samples_path;  ///< Where the latency samples are written.
};

/// Everything one process reports: named metrics with units, echo lines
/// (seed, sizes, flush policy) and failed checks.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Info(const std::string& line) { info_.push_back(line); }
  /// Records a failed correctness or self-check; the run is then wrong.
  void Fail(const std::string& why) { failures_.push_back(why); }
  bool ok() const { return failures_.empty(); }

  uint64_t attempted = 0;  ///< Operations attempted (timed phase + checks).
  uint64_t failed = 0;     ///< Failed or wrong-result operations.

  /// Prints the echo lines, then one "RESULT {json}" line.
  void Print(const Args& args) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> info_;
  std::vector<std::string> failures_;
};

/// Exact percentile (linear interpolation between order statistics) of
/// `v`, which is sorted in place. 0 for an empty sample.
double Percentile(std::vector<int64_t>* v, double p);

/// Deals operation kinds in exact proportions: `deck` holds each kind as
/// many times as its share, and every pass deals a fresh seeded shuffle.
/// A run whose length is a multiple of the deck has the same mix on every
/// seed, so seeds differ only in which keys and which order.
class MixDeck {
 public:
  MixDeck(std::vector<int> deck, uint64_t seed)
      : deck_(std::move(deck)), pos_(deck_.size()), rng_(seed) {}
  /// 100 cards, `share` of them 1 (e.g. writes) and the rest 0.
  static MixDeck TwoKinds(double share, uint64_t seed);
  int Next();

 private:
  std::vector<int> deck_;
  size_t pos_;
  durassd::Random rng_;
};

/// Latency samples (virtual ns) and outcome counts of the timed phase.
struct OpLog {
  std::vector<int64_t> read_ns;
  std::vector<int64_t> write_ns;
  uint64_t attempted = 0;
  uint64_t bad_status = 0;   ///< Non-OK status the generator did not expect.
  uint64_t wrong_bytes = 0;  ///< Reads that returned other than the model.
  uint64_t user_bytes = 0;   ///< Payload bytes of acknowledged writes.
  std::string first_error;

  void Error(const std::string& what) {
    if (first_error.empty()) first_error = what;
  }
  uint64_t failed() const { return bad_status + wrong_bytes; }
};

/// Deterministic payload for (key hash, version): `len` bytes that differ
/// for every version of every key, so a stale or foreign read is caught.
void FillPayload(uint64_t key_hash, uint64_t version, size_t len,
                 std::string* out);
uint64_t HashBytes(const char* data, size_t len);
inline uint64_t HashBytes(const std::string& s) {
  return HashBytes(s.data(), s.size());
}

/// One SsdDevice with its file system. In the traced run a TracingDevice
/// sits between the two.
struct DeviceStack {
  std::unique_ptr<durassd::SsdDevice> ssd;
  std::unique_ptr<TracingDevice> tracing;
  std::unique_ptr<durassd::SimFileSystem> fs;

  /// The device the file system submits to.
  durassd::BlockDevice* top() {
    return tracing ? static_cast<durassd::BlockDevice*>(tracing.get())
                   : ssd.get();
  }
};
std::unique_ptr<DeviceStack> MakeStack(const durassd::SsdConfig& cfg,
                                       bool write_barriers,
                                       SpanRecorder* traced);

/// Counters of one stack, read at the start and end of the timed phase;
/// the per-layer metrics are the differences, summed over stacks.
struct StackCounters {
  uint64_t host_writes = 0;
  uint64_t host_written_sectors = 0;
  uint64_t cache_read_hits = 0;
  uint64_t cache_read_misses = 0;
  uint64_t write_stalls = 0;
  SimTime write_stall_time = 0;
  uint64_t reads_stalled_by_flush = 0;
  uint64_t destage_absorbed = 0;
  uint64_t destage_batches = 0;
  uint64_t gc_runs = 0;
  uint64_t gc_programs = 0;
  uint64_t gc_erases = 0;
  uint64_t degraded_rejects = 0;
  uint64_t nand_programs = 0;
  uint64_t nand_bytes = 0;
  uint64_t nand_reads = 0;
  uint64_t nand_erases = 0;
  uint64_t multi_plane_programs = 0;
  SimTime submit_stall_time = 0;
  uint64_t failed_cmds = 0;
  uint64_t fs_syncs = 0;
  uint64_t fs_batched_syncs = 0;
  uint64_t fs_journal_writes = 0;
  uint64_t fs_flush_cmds = 0;

  static StackCounters Read(DeviceStack& s);
  static StackCounters Sum(const std::vector<DeviceStack*>& stacks);
  StackCounters operator-(const StackCounters& base) const;
  StackCounters& operator+=(const StackCounters& o);
};

/// Wall and virtual bounds of the timed phase.
struct TimedPhase {
  int64_t process_start_ns = 0;
  int64_t timed_start_ns = 0;
  int64_t timed_end_ns = 0;
  uint64_t ops = 0;
  SimTime makespan = 0;  ///< Virtual time from timed start to last ack.

  void Start() { timed_start_ns = WallNs(); }
  void Stop() { timed_end_ns = WallNs(); }
};

/// Zeroes the devices' metric registries so that their histograms cover
/// the timed phase only.
void ResetDeviceMetrics(const std::vector<DeviceStack*>& stacks);

/// Emits the end-to-end metrics every workload reports (peak RSS is added
/// by main once the process is done), writes the latency samples to
/// args.samples_path, and fails the run on any failed op or on fewer than
/// 1,000 samples in a latency class.
void ReportEndToEnd(const Args& args, const TimedPhase& tp, const OpLog& log,
                    const StackCounters& delta, double recovery_sim_ms,
                    Report* rep);

/// Emits sim/host/ssd/flash per-layer metrics from the counter deltas and,
/// in the traced run, from the spans (which it writes to args.spans_path).
/// Workloads add db.* / kv.* and the self times of their engine layer from
/// the same span summary.
void ReportStackLayers(const Args& args, const TimedPhase& tp,
                       const StackCounters& d,
                       const std::vector<DeviceStack*>& stacks,
                       const SpanRecorder& rec, const SpanSummary& spans,
                       Report* rep);

/// Peak resident set of this process, MiB.
double PeakRssMb();

int RunLinkbenchInPool(const Args& args, int64_t process_start_ns,
                       Report* rep);
int RunLinkbenchOffOff(const Args& args, int64_t process_start_ns,
                       Report* rep);
int RunYcsbBarrier(const Args& args, int64_t process_start_ns, Report* rep);
int RunDeviceGc(const Args& args, int64_t process_start_ns, Report* rep);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
