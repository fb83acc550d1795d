#ifndef DURASSD_COMMON_TRACE_H_
#define DURASSD_COMMON_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace durassd {

/// Typed simulation events. The two argument slots carry event-specific
/// payloads (an LPN, a plane index, a count, a duration) — see the
/// per-event comments. Keeping the record POD-sized (24 bytes) is what
/// makes tracing cheap enough to leave on in timing-only bench runs.
enum class TraceEventType : uint8_t {
  kCmdStart = 0,     ///< Host write command issued. a0=lpn, a1=sectors.
  kCmdAck,           ///< Host write acknowledged. a0=lpn, a1=sectors.
  kReadStart,        ///< Host read command issued. a0=lpn, a1=sectors.
  kReadDone,         ///< Host read completed. a0=lpn, a1=sectors.
  kDestageDone,      ///< Cache destage program completed. a0=lpn, a1=sectors.
  kFlushStart,       ///< FLUSH CACHE began draining. a0=outstanding.
  kFlushDone,        ///< FLUSH CACHE completed. a0=duration_ns.
  kGcStart,          ///< Garbage collection started. a0=plane.
  kGcEnd,            ///< Garbage collection finished. a0=plane, a1=moved.
  kPowerCut,         ///< Power failed. a0=durable_cache (0/1).
  kPowerOn,          ///< Power restored. a0=recovery_duration_ns.
  kDump,             ///< Capacitor dump. a0=pages_dumped, a1=overruns.
  kReplay,           ///< Reboot dump replay. a0=pages_replayed.
  kTxnCommit,        ///< Database transaction committed. a0=txn, a1=dur_ns.
  kFsync,            ///< File sync on the commit path. a0=duration_ns.
  kWalAppend,        ///< WAL record appended. a0=lsn, a1=bytes.
  kDoubleWrite,      ///< Double-write batch flushed. a0=pages, a1=dur_ns.
  kKvCommit,         ///< KvStore batch commit. a0=seq, a1=dur_ns.
  kDegraded,         ///< Device entered sticky read-only degraded mode.
                     ///< a0=plane, a1=bad_blocks at entry.
  kTxnAbort,         ///< Engine aborted an in-flight transaction.
                     ///< a0=txn/seq, a1=reason (StatusCode).
  kInvariantViolation,  ///< Crash-harness oracle check failed.
                        ///< a0=invariant id, a1=detail.
  kDestageBatch,     ///< Lazy destage drain issued. a0=pending_sectors,
                     ///< a1=trigger (0=batch, 1=idle, 2=pressure, 3=flush).
  kBarrier,          ///< BARRIER sealed an epoch. a0=epoch, a1=writes sealed.
};

const char* TraceEventTypeName(TraceEventType type);

struct TraceEvent {
  SimTime t = 0;
  TraceEventType type = TraceEventType::kCmdStart;
  uint64_t a0 = 0;
  uint64_t a1 = 0;
};

/// Bounded ring-buffer event recorder. Recording is a branch + three stores
/// when enabled and a single branch when not, and it never touches virtual
/// time, so it can stay attached during timing-only benchmark runs without
/// perturbing results. When the ring wraps, the oldest events are dropped
/// (and counted), keeping memory constant on arbitrarily long runs.
class Tracer {
 public:
  explicit Tracer(size_t capacity = 1 << 16);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  void Record(SimTime t, TraceEventType type, uint64_t a0 = 0,
              uint64_t a1 = 0) {
    if (!enabled_) return;
    TraceEvent& e = buf_[next_ % buf_.size()];
    e.t = t;
    e.type = type;
    e.a0 = a0;
    e.a1 = a1;
    ++next_;
  }

  size_t capacity() const { return buf_.size(); }
  /// Events currently retained (<= capacity).
  size_t size() const {
    return static_cast<size_t>(std::min<uint64_t>(next_, buf_.size()));
  }
  /// Total events ever recorded (retained + dropped).
  uint64_t recorded() const { return next_; }
  /// Events lost to ring wrap-around.
  uint64_t dropped() const { return next_ - size(); }

  /// Retained events, oldest first.
  std::vector<TraceEvent> Events() const;

  /// Appends the retained events as JSONL: one
  /// {"t":..,"type":"..","a0":..,"a1":..} object per line.
  void AppendJsonl(std::string* out) const;

  /// Drops all retained events.
  void Reset() { next_ = 0; }

 private:
  std::vector<TraceEvent> buf_;
  uint64_t next_ = 0;
  bool enabled_ = true;
};

}  // namespace durassd

#endif  // DURASSD_COMMON_TRACE_H_
