#ifndef DURASSD_HOST_BLOCK_DEVICE_H_
#define DURASSD_HOST_BLOCK_DEVICE_H_

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace durassd {

/// True when sectors [lpn, lpn + nsec) all lie below `capacity`. Written
/// so that an LBA near 2^64 cannot wrap `lpn + nsec` back into range.
inline bool SectorRangeFits(Lpn lpn, uint64_t nsec, uint64_t capacity) {
  return nsec <= capacity && lpn <= capacity - nsec;
}

/// Host-visible block storage interface. Sector addressing is in logical
/// pages of `sector_size()` bytes (4KB by default — the paper's recommended
/// unit of I/O). All calls carry the caller's virtual issue time and report
/// the virtual completion time, so N logical clients can share one device
/// and contend realistically.
///
/// One completion model: a command's effects and completion time are
/// computed when it is issued (virtual time makes this sound), so its
/// `Result` is final the moment `Submit` returns. A host keeps several
/// commands in flight by issuing them at the same virtual instant; the
/// device overlaps them on the bus, in the firmware and across NAND
/// channels — the queue-depth behaviour the paper's throughput claims
/// depend on (Sec. 3.3). A per-device queue-depth limit
/// (`set_queue_depth_limit`) models the host's submission window: when the
/// limit is reached, Submit stalls (in virtual time) until a slot frees.
///
/// Submit is the device front end, and the host-visible power contract
/// lives there once for every device (DESIGN.md §7): the scheduled-cut trip
/// at service entry, rejection while unpowered, the sector-alignment and
/// range checks, BARRIER as FLUSH on devices without epochs, and the
/// completion-causality guard after Execute.
class BlockDevice {
 public:
  struct Result {
    Status status;
    SimTime done = 0;  ///< Virtual completion time of the command.
  };

  /// One command. `data` (writes) and `out` (reads) need only stay alive
  /// for the duration of the Submit call.
  struct Command {
    enum class Op : uint8_t { kWrite, kRead, kFlush, kBarrier };
    Op op = Op::kFlush;
    Lpn lpn = 0;
    uint32_t nsec = 0;          ///< Sector count (reads).
    Slice data;                 ///< Payload (writes).
    std::string* out = nullptr; ///< Destination (reads); may be null.

    static Command MakeWrite(Lpn lpn, Slice data) {
      Command c;
      c.op = Op::kWrite;
      c.lpn = lpn;
      c.data = data;
      return c;
    }
    static Command MakeRead(Lpn lpn, uint32_t nsec, std::string* out) {
      Command c;
      c.op = Op::kRead;
      c.lpn = lpn;
      c.nsec = nsec;
      c.out = out;
      return c;
    }
    static Command MakeFlush() { return Command{}; }
    static Command MakeBarrier() {
      Command c;
      c.op = Op::kBarrier;
      return c;
    }
  };

  virtual ~BlockDevice() = default;

  virtual uint32_t sector_size() const = 0;
  virtual uint64_t num_sectors() const = 0;

  /// Issues `cmd` at virtual time `now` and returns its final result. If
  /// the number of commands in flight has reached `queue_depth_limit()`,
  /// service entry first waits (in virtual time) until a slot frees.
  Result Submit(SimTime now, const Command& cmd);

  /// Host submission-window size. 0 (the default) means unlimited: no
  /// command ever waits for a slot.
  void set_queue_depth_limit(uint32_t depth) { qd_limit_ = depth; }
  uint32_t queue_depth_limit() const { return qd_limit_; }

  /// Submissions that stalled on the queue-depth limit, and the total
  /// virtual time spent stalled.
  uint64_t submit_stalls() const { return submit_stalls_; }
  SimTime submit_stall_time() const { return submit_stall_time_; }

  // --- One call per command kind (each is Submit) ---

  /// Writes `data` (a multiple of sector_size) starting at `lpn`. With a
  /// durable cache the command is atomic and durable once acknowledged
  /// (Sec. 3.2); on volatile devices it is neither until a Flush.
  Result Write(SimTime now, Lpn lpn, Slice data) {
    return Submit(now, Command::MakeWrite(lpn, data));
  }

  /// Reads `nsec` sectors into `out` (may be nullptr for timing-only runs);
  /// `out` is resized to nsec * sector_size. Never-written sectors read as
  /// zeros.
  Result Read(SimTime now, Lpn lpn, uint32_t nsec, std::string* out) {
    return Submit(now, Command::MakeRead(lpn, nsec, out));
  }

  /// FLUSH CACHE: returns once all previously acknowledged writes are on
  /// stable media (and device metadata is persisted). Generated by fsync
  /// when write barriers are enabled (Fig. 2).
  Result Flush(SimTime now) { return Submit(now, Command::MakeFlush()); }

  /// BARRIER: seals the current write epoch (Won et al., "Barrier Enabled
  /// IO Stack"). The device guarantees that after a power cut the surviving
  /// writes form an epoch-consistent cut — every write of a surviving epoch's
  /// predecessors survives too. Unlike Flush this neither drains the cache
  /// nor waits on media; it is an ordering point, not a durability point.
  /// Only meaningful when supports_barrier(); Submit hands it to other
  /// devices as a FLUSH.
  Result Barrier(SimTime now) { return Submit(now, Command::MakeBarrier()); }

  /// True while the device has power: PowerCut (or a tripped scheduled
  /// cut) turns it off, and every command is then rejected with
  /// DeviceOffline until PowerOn.
  bool powered() const { return powered_; }

  /// Arms a power cut at virtual time `t`. A command whose service entry
  /// is at or after `t` runs PowerCut(t) instead of executing, and a
  /// command whose completion would land after `t` runs it too (power
  /// died mid-command, so the completion cannot have been delivered).
  /// Either command fails DeviceOffline with `done` equal to `t`. This is
  /// how the crash harness cuts power inside an engine call, recovery
  /// included. One-shot; a manual PowerCut disarms it.
  void SchedulePowerCut(SimTime t) {
    scheduled_cut_ = t;
    cut_armed_ = true;
  }
  void CancelScheduledPowerCut() { cut_armed_ = false; }
  bool scheduled_cut_armed() const { return cut_armed_; }
  /// Scheduled cuts that fired, at service entry or by the guard.
  uint64_t scheduled_cuts_tripped() const { return scheduled_cuts_tripped_; }

  /// Simulated power failure at virtual time `t`. Volatile caches lose
  /// unflushed data; an in-flight media write leaves a torn sector; DuraSSD
  /// dumps its durable cache to the dump area on capacitor power. Overrides
  /// start with CutPower.
  virtual void PowerCut(SimTime t) = 0;

  /// Re-powers the device, running its recovery (Sec. 3.4.2). Returns the
  /// virtual recovery duration. The device clock restarts at zero.
  /// Overrides start with RestorePower.
  virtual SimTime PowerOn() = 0;

  /// True when an acknowledged write can never be observed torn.
  virtual bool supports_atomic_write() const = 0;
  /// True when acknowledged writes survive power failure without Flush.
  virtual bool has_durable_cache() const = 0;
  /// True when submission order is a durability-order guarantee: after a
  /// power cut, the surviving write stream is a prefix of the submitted
  /// write stream (the paper's ordered NCQ, Sec. 3.3). Implies
  /// has_durable_cache() in practice — ordering without durability of the
  /// acknowledged prefix would guarantee nothing.
  virtual bool ordered_writes() const { return false; }
  /// True when the device implements the BARRIER command natively: epochs
  /// sealed by Barrier() persist in order across power cuts. File systems
  /// fall back to a full fsync on devices without it.
  virtual bool supports_barrier() const { return false; }

  virtual uint64_t capacity_bytes() const {
    return num_sectors() * sector_size();
  }

 protected:
  /// Executes one command at time `t` (which already reflects any
  /// submission stall) and returns its status + completion time. Implemented
  /// by each device; this is where all timing and state modelling lives.
  /// Submit calls it only on a powered device, with a valid command, and
  /// never with a BARRIER unless supports_barrier().
  virtual Result Execute(SimTime t, const Command& cmd) = 0;

  /// Ends the front end's power session, its in-flight window: the queue
  /// dies with the power at `t`, and the clock restarts at zero on PowerOn.
  void AbortInFlight(SimTime /*t*/) { inflight_done_ = {}; }

  /// The start of every PowerCut override: disarms a scheduled cut and,
  /// when the device has power, turns it off and empties the in-flight
  /// window. Returns false when the device was already off, in which case
  /// the override has nothing more to do.
  bool CutPower(SimTime t);
  /// The start of every PowerOn override: returns false when the device
  /// already has power (PowerOn then returns 0), else turns it on.
  bool RestorePower();
  /// Turns the device off at `t` and ends its power session, cut or clean
  /// (a clean shutdown calls it once its drain is done).
  void ShutOff(SimTime t) {
    powered_ = false;
    AbortInFlight(t);
  }

  /// Mid-command causality guard, for a device that must stop before
  /// state the cut could not roll back (a mapping persist, ack-order
  /// bookkeeping): when an armed cut lies before `done`, fires it and
  /// returns true. The device then returns any result; Submit reports the
  /// command as DeviceOffline at the cut instant.
  bool CutBeforeCompletion(SimTime done);

  /// Optional histogram receiving the in-flight command count observed at
  /// each submission (the `ssd.qd` metric).
  void set_qd_histogram(Histogram* h) { h_qd_ = h; }

 private:
  /// Submit's service step at entry time `t`: the power contract around
  /// Execute.
  Result Service(SimTime t, const Command& cmd);
  /// Fires the armed cut: disarms it, counts it and runs PowerCut.
  void TripScheduledCut();

  // Everything but the in-flight window crosses a power cycle.
  bool powered_ = true;  ///< The power state itself.
  /// The harness's armed cut and its instant; firing or a cut disarms it.
  bool cut_armed_ = false;
  SimTime scheduled_cut_ = 0;
  uint64_t scheduled_cuts_tripped_ = 0;  ///< A statistic.
  uint32_t qd_limit_ = 0;  ///< The host's setting; 0 = unlimited.
  /// The power session: completion times of in-flight commands, the
  /// queue-depth window and the only per-command state the front end keeps.
  std::priority_queue<SimTime, std::vector<SimTime>, std::greater<SimTime>>
      inflight_done_;
  uint64_t submit_stalls_ = 0;  ///< A statistic, as is the next.
  SimTime submit_stall_time_ = 0;
  Histogram* h_qd_ = nullptr;  ///< A statistic's sink.
};

}  // namespace durassd

#endif  // DURASSD_HOST_BLOCK_DEVICE_H_
