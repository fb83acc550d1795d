#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// Span recording for the traced run. Spans are recorded only from the
// benchmark's own files: around each public engine / SimFile call the
// benchmark makes, and at the BlockDevice boundary through TracingDevice.
// Recording reads the wall clock and the caller's virtual clock; it never
// advances virtual time, so a traced run must reproduce the untraced run's
// virtual-time results exactly (run.py checks this).

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "host/block_device.h"

namespace perfbench {

using durassd::SimTime;

inline int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The src/ modules a span is attributed to. kSim covers the closed-loop
/// scheduler plus the benchmark's own input generation and result checks.
enum class Layer : uint8_t { kSim, kDb, kKv, kHost, kSsd, kCount };
constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);
const char* LayerName(Layer layer);

struct Span {
  const char* name = "";  ///< Static string, e.g. "db.get".
  Layer layer = Layer::kSim;
  bool ok = true;
  int32_t parent = -1;    ///< Index of the enclosing span; -1 at the root.
  uint64_t request = 0;   ///< Operation sequence number in the timed phase.
  int64_t wall_start = 0;
  int64_t wall_end = 0;
  SimTime v_issue = 0;
  SimTime v_done = 0;
};

/// In-memory span store for one process. Disabled (the default) it records
/// nothing and each Begin/End is one predictable branch.
class SpanRecorder {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_request(uint64_t id) { request_ = id; }

  int32_t Begin(const char* name, Layer layer, SimTime v_issue);
  void End(int32_t idx, SimTime v_done, bool ok);

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes every span as one tab-separated line (with a header row).
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_ = false;
  uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// Times one public engine call whose virtual clock lives in `io`
/// (an IoContext): the span runs from io.now before the call to io.now
/// after it.
template <typename Io, typename Fn>
durassd::Status Traced(SpanRecorder& rec, const char* name, Layer layer,
                       Io& io, Fn&& fn) {
  if (!rec.enabled()) return fn();
  const int32_t idx = rec.Begin(name, layer, io.now);
  durassd::Status s = fn();
  rec.End(idx, io.now, s.ok());
  return s;
}

/// Forwarding BlockDevice placed between a SimFileSystem and its device in
/// the traced run. Every command becomes one "ssd" span; the inner device
/// runs it through its public synchronous API at the same virtual instant,
/// so timing and state are those of a direct submission.
class TracingDevice : public durassd::BlockDevice {
 public:
  TracingDevice(durassd::BlockDevice* inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}

  uint32_t sector_size() const override { return inner_->sector_size(); }
  uint64_t num_sectors() const override { return inner_->num_sectors(); }
  void PowerCut(SimTime t) override {
    AbortInFlight(t);
    inner_->PowerCut(t);
  }
  SimTime PowerOn() override { return inner_->PowerOn(); }
  bool supports_atomic_write() const override {
    return inner_->supports_atomic_write();
  }
  bool has_durable_cache() const override {
    return inner_->has_durable_cache();
  }
  bool ordered_writes() const override { return inner_->ordered_writes(); }
  bool supports_barrier() const override {
    return inner_->supports_barrier();
  }

  /// Commands the inner device completed with a non-OK status.
  uint64_t failed_cmds() const { return failed_cmds_; }

 protected:
  Result Execute(SimTime t, const Command& cmd) override;

 private:
  durassd::BlockDevice* inner_;
  SpanRecorder* rec_;
  uint64_t failed_cmds_ = 0;
};

/// Per-layer wall-time attribution computed from the recorded spans.
struct SpanSummary {
  /// Span time minus the time its direct children cover, per layer (ns).
  std::array<int64_t, kNumLayers> self_ns{};
  /// Inclusive wall time and call count per span name.
  struct PerName {
    const char* name;
    uint64_t calls = 0;
    int64_t wall_ns = 0;
  };
  std::vector<PerName> by_name;

  /// Mean inclusive wall microseconds per call of `name` (0 if never called).
  double MeanUs(const char* name) const;
};
SpanSummary Summarize(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
