#ifndef DURASSD_ARRAY_ARRAY_DEVICE_H_
#define DURASSD_ARRAY_ARRAY_DEVICE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "host/block_device.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {

/// Whole-device fault injector for a multi-device array: the member-level
/// analogue of the NAND FaultInjector (same scripted one-shot style, keyed
/// by per-member command ordinals). Inert by default — with nothing
/// scripted the array's routing is bit-for-bit identical to a build without
/// injection. All fault times are in the current power epoch: a reboot
/// (PowerOn) re-enumerates the bus and drops every unfired script.
class ArrayFaultInjector {
 public:
  /// Whole-device death at virtual time `t`: every command routed to member
  /// `m` at now >= t fails fatally and the member is declared dead (sticky;
  /// only a rebuild onto a spare brings the slot back).
  void KillMemberAt(uint32_t m, SimTime t) { members_[m].kill_at = t; }

  /// One-shot hung I/O: the `n`-th command issued to member `m` from now
  /// (0 = the very next) has its completion withheld `extra` ns past the
  /// normal completion time — the device does the work but never answers
  /// (a firmware stall). kMaxSimTime hangs it forever; only a supervisor
  /// deadline gets the host unstuck.
  void HangCommandAfter(uint32_t m, uint64_t n, SimTime extra) {
    members_[m].hangs[members_[m].commands_seen + n] = extra;
  }

  /// Transient unavailability window [from, until): commands routed to the
  /// member are rejected with retryable Busy; the member recovers by itself
  /// at `until` (a link reset / firmware hiccup).
  void TransientOutage(uint32_t m, SimTime from, SimTime until) {
    members_[m].outages.emplace_back(from, until);
  }

  bool enabled() const {
    for (const auto& [m, f] : members_) {
      if (f.kill_at != kMaxSimTime || !f.hangs.empty() || !f.outages.empty()) {
        return true;
      }
    }
    return false;
  }

  /// Drops every pending scripted fault (command ordinals keep counting).
  void Clear() {
    for (auto& [m, f] : members_) {
      f.kill_at = kMaxSimTime;
      f.hangs.clear();
      f.outages.clear();
    }
  }

 private:
  friend class ArrayDevice;

  struct MemberFaults {
    SimTime kill_at = kMaxSimTime;
    std::map<uint64_t, SimTime> hangs;  ///< Command ordinal -> withheld ns.
    std::vector<std::pair<SimTime, SimTime>> outages;  ///< [from, until).
    uint64_t commands_seen = 0;
  };

  MemberFaults& ForMember(uint32_t m) { return members_[m]; }

  std::map<uint32_t, MemberFaults> members_;
};

/// Configuration of an ArrayDevice: layout, the host-side I/O supervisor
/// (deadline / bounded-backoff retry), and online-rebuild rate limiting.
struct ArrayConfig {
  enum class Layout {
    /// RAID-0-style sector-range sharding: stripe units of
    /// `stripe_unit_sectors` round-robin across members. No redundancy —
    /// a member death fails the array (sticky, writes rejected with
    /// ResourceExhausted; reads on surviving members keep working).
    kStriped,
    /// Mirrored durable-cache pair (or N-way): every write replicates to
    /// all live members, reads are served by the primary (lowest-index
    /// live member) and fail over to a survivor on member death.
    kMirrored,
  };
  Layout layout = Layout::kStriped;

  /// Striped layout: contiguous sectors per member before the mapping
  /// advances to the next member (the RAID chunk size).
  uint32_t stripe_unit_sectors = 256;

  // --- I/O supervisor ---
  /// Per-member-command virtual-time deadline. A command whose completion
  /// would land past issue + deadline is declared timed out (typed
  /// retryable kTimedOut) at the deadline instant and retried. 0 disables
  /// the deadline entirely — the golden single-member configuration, which
  /// must reproduce a raw device bit-for-bit.
  SimTime command_deadline_ns = 0;
  /// Retries after the initial attempt before the member is declared
  /// failed (bounded exponential backoff: backoff doubles per retry up to
  /// the cap).
  uint32_t retry_limit = 3;
  SimTime retry_backoff_ns = 200 * kMicrosecond;
  SimTime retry_backoff_max_ns = 20 * kMillisecond;

  // --- Online rebuild (mirrored layout) ---
  /// Sectors copied per rebuild batch, and the minimum virtual-time gap
  /// between consecutive batches — the rate limit that keeps rebuild from
  /// starving foreground traffic (interference still happens naturally:
  /// copy I/O occupies the members' bus/firmware/NAND resources).
  uint32_t rebuild_batch_sectors = 64;
  SimTime rebuild_interval_ns = 2 * kMillisecond;
  /// Start a rebuild onto a fresh spare automatically the moment a mirror
  /// member is declared dead (hot-spare semantics).
  bool auto_rebuild = false;
};

/// N SsdDevice models composed under one BlockDevice namespace, plus the
/// robustness machinery a single-device stack never needed: whole-device
/// fault injection (death / hung I/O / transient outage), a host-side I/O
/// supervisor with per-command deadlines and bounded-backoff retry, mirror
/// failover with a sticky degraded state, and rate-limited online rebuild
/// onto a spare.
///
/// Simulator conventions:
///  - Member sub-commands are issued at the array command's service entry
///    time and run concurrently; the array completion is the slowest
///    member's (mirrored writes ack when every live replica acked).
///  - A single-member array forwards every command verbatim, so its timing
///    is bit-identical to the raw member device (golden-tested).
///  - Array metadata (member health, rebuild cursor) is host-side
///    supervisor state and survives simulated reboots, like the
///    SimFileSystem namespace: we model device failure and recovery, not
///    supervisor-state loss. The rebuild cursor is rewound at a power cut
///    to the last copy batch known SAFE at the cut — target-durable, copied
///    from rollback-stable source data, and with no foreground write to the
///    copied region left on only one replica — so a resumed rebuild never
///    skips a sector the cut un-did or diverged.
class ArrayDevice : public BlockDevice {
 public:
  enum class MemberState { kHealthy, kDead, kRebuilding };
  enum class Health {
    kOptimal,   ///< All members healthy.
    kDegraded,  ///< A mirror member dead or rebuilding; service continues.
    kFailed,    ///< Striped member lost, or no live mirror replica: sticky —
                ///< writes are rejected with ResourceExhausted (the PR-3
                ///< degraded plumbing engines already handle), reads are
                ///< served where data survives.
  };

  struct Stats {
    uint64_t retries = 0;           ///< Supervisor re-issues after a
                                    ///< retryable member failure.
    uint64_t timeouts = 0;          ///< Member commands declared timed out.
    uint64_t transient_rejects = 0; ///< Commands bounced by an outage window.
    uint64_t member_deaths = 0;     ///< Members declared dead (injected
                                    ///< death or supervisor escalation).
    uint64_t redirected_reads = 0;  ///< Reads served by a non-primary
                                    ///< member because the primary is gone.
    uint64_t redirected_writes = 0; ///< Writes acked by a partial replica
                                    ///< set (some member dead).
    uint64_t degraded_write_rejects = 0;  ///< Writes refused after array
                                          ///< failure (sticky).
    uint64_t rebuilds_started = 0;
    uint64_t rebuilds_completed = 0;
    uint64_t rebuild_copied_sectors = 0;
    uint64_t rebuild_batches = 0;
  };

  /// Builds the array and its member devices (one SsdDevice per config).
  /// All members must share a sector size; striped capacity is the sum of
  /// the members' (minimum) capacity, mirrored capacity is one member's.
  ArrayDevice(ArrayConfig config, std::vector<SsdConfig> member_configs);
  ~ArrayDevice() override = default;

  ArrayDevice(const ArrayDevice&) = delete;
  ArrayDevice& operator=(const ArrayDevice&) = delete;

  // --- BlockDevice ---
  uint32_t sector_size() const override;
  uint64_t num_sectors() const override;
  void PowerCut(SimTime t) override;
  SimTime PowerOn() override;
  bool supports_atomic_write() const override;
  bool has_durable_cache() const override;
  bool ordered_writes() const override;
  bool supports_barrier() const override;

  /// Arms a whole-array power cut at virtual time `t` (the crash-harness
  /// hook, same contract as SsdDevice::SchedulePowerCut): the first array
  /// command issued at now >= t — or completing past t — first cuts power
  /// on every member at t and then fails with DeviceOffline. One-shot.
  void SchedulePowerCut(SimTime t) {
    scheduled_cut_ = t;
    cut_armed_ = true;
  }
  void CancelScheduledPowerCut() { cut_armed_ = false; }
  bool scheduled_cut_armed() const { return cut_armed_; }

  /// Clean shutdown: FLUSH each live member, then power it down without
  /// the emergency flag.
  Status Shutdown(SimTime now);

  // --- Array health / failover ---
  Health health() const { return health_; }
  /// True once the array left the optimal state (sticky until a completed
  /// rebuild restores full redundancy).
  bool degraded() const { return health_ != Health::kOptimal; }
  bool powered() const { return powered_; }

  uint32_t num_members() const { return static_cast<uint32_t>(members_.size()); }
  MemberState member_state(uint32_t m) const { return states_[m]; }
  const SsdDevice& member(uint32_t m) const { return *members_[m]; }
  SsdDevice& member(uint32_t m) { return *members_[m]; }

  /// Sum of the members' barrier-epoch self-audit violation counters (the
  /// crash harness's epoch oracle; must stay 0).
  uint64_t epoch_ordering_violations() const;
  /// True when any member's FTL entered sticky read-only degraded mode.
  bool any_member_media_degraded() const;

  // --- Online rebuild ---
  /// Replaces dead member `m` with a fresh spare (same SsdConfig) and
  /// begins the rate-limited copy from a live replica. Mirrored layout
  /// only; fails with InvalidArgument if `m` is not dead, NotSupported on
  /// striped arrays, Busy if a rebuild is already running, and
  /// ResourceExhausted when no live source replica remains.
  Status StartRebuild(SimTime now, uint32_t m);
  /// Advances the rebuild copy up to virtual time `now`, honoring the
  /// rate limit. Called automatically on every array command; exposed so
  /// idle periods (no foreground traffic) can be simulated explicitly.
  void PumpRebuild(SimTime now);
  bool rebuild_active() const { return rebuild_active_; }
  uint32_t rebuild_target() const { return rebuild_target_; }
  /// Next sector the copy will fetch (member-local); num_sectors() of a
  /// member when the copy finished.
  uint64_t rebuild_cursor() const { return rebuild_cursor_; }
  /// Completion time of the last rebuild batch (virtual). The instant the
  /// array returned to optimal when the rebuild completed.
  SimTime rebuild_last_batch_done() const { return rebuild_last_done_; }

  ArrayFaultInjector& fault_injector() { return faults_; }
  const ArrayConfig& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }
  /// `array.*` counters (redirects, retries, timeouts, rebuild progress).
  const MetricsRegistry& metrics() const { return metrics_; }
  MetricsRegistry& metrics() { return metrics_; }

 protected:
  Result Execute(SimTime t, const Command& cmd) override;

 private:
  /// One member's share of a striped command.
  struct StripePart {
    uint32_t member = 0;
    Lpn local_lpn = 0;
    uint32_t nsec = 0;
    uint64_t global_offset = 0;  ///< Sector offset inside the command.
  };

  Result ExecuteMirrored(SimTime t, const Command& cmd);
  Result ExecuteStriped(SimTime t, const Command& cmd);
  Result ExecuteBroadcast(SimTime t, const Command& cmd);

  /// The I/O supervisor: issues `cmd` to member `m` at time `t`, applying
  /// scripted faults, the per-command deadline, and bounded exponential
  /// backoff retry. A retryable failure that survives the retry budget is
  /// escalated: the member is declared dead and the last typed status is
  /// returned.
  Result SuperviseMember(uint32_t m, SimTime t, const Command& cmd);
  /// One attempt, fault decisions included.
  Result IssueOnce(uint32_t m, SimTime t, const Command& cmd);

  void DeclareDead(uint32_t m, SimTime t, const char* why);
  void RecomputeHealth();
  /// Lowest-index live (kHealthy) member; -1 when none.
  int FirstLive(int skip = -1) const;
  void SplitStriped(Lpn lpn, uint32_t nsec, std::vector<StripePart>* parts) const;
  Result FailArrayWrite(SimTime t);

  ArrayConfig cfg_;
  std::vector<SsdConfig> member_cfgs_;
  std::vector<std::unique_ptr<SsdDevice>> members_;
  std::vector<MemberState> states_;
  /// Min capacity across members; for a multi-member stripe, rounded down
  /// to whole stripe units.
  uint64_t member_sectors_ = 0;
  Health health_ = Health::kOptimal;
  bool powered_ = true;

  bool cut_armed_ = false;
  SimTime scheduled_cut_ = 0;

  // --- Rebuild state (host-side supervisor metadata) ---
  bool rebuild_active_ = false;
  uint32_t rebuild_target_ = 0;
  uint64_t rebuild_cursor_ = 0;
  SimTime rebuild_next_allowed_ = 0;
  SimTime rebuild_last_done_ = 0;
  /// Copy batches not yet known-safe: {cursor after the batch, safe time}.
  /// The safe time is max(copy-write ack, the mirrored-write ack watermark
  /// at copy time): a batch is durable on the target AND copied from
  /// rollback-stable source data only once the cut instant passes it. A
  /// power cut at t rewinds the cursor to the newest entry with
  /// safe <= t.
  std::deque<std::pair<uint64_t, SimTime>> rebuild_batches_;
  /// Foreground writes that landed inside the already-copied region while
  /// the rebuild ran: {lpn, min member ack, max member ack}. A cut between
  /// the two acks leaves exactly one replica holding the write — the
  /// copied region diverges there, so the cursor rewinds to lpn.
  struct DivergenceRec {
    uint64_t lpn = 0;
    SimTime min_ack = 0;
    SimTime max_ack = 0;
  };
  std::deque<DivergenceRec> rebuild_overlaps_;
  /// Max acknowledgement time over every mirrored write issued so far
  /// (all effects are computed at submission, so this is known): source
  /// data read by a copy batch is rollback-stable for cuts at or past it.
  SimTime write_ack_watermark_ = 0;
  /// Tracking overflowed its caps: the next power cut restarts the copy
  /// from sector 0 instead of resuming (always safe, never wrong).
  bool rebuild_conservative_ = false;
  std::string rebuild_buf_;  ///< Copy staging buffer.

  ArrayFaultInjector faults_;
  Stats stats_;
  MetricsRegistry metrics_;
  uint64_t* c_retries_;
  uint64_t* c_timeouts_;
  uint64_t* c_transient_rejects_;
  uint64_t* c_member_deaths_;
  uint64_t* c_redirected_reads_;
  uint64_t* c_redirected_writes_;
  uint64_t* c_degraded_write_rejects_;
  uint64_t* c_rebuild_copied_sectors_;
};

/// Convenience builders (the factory seam for benches, tests, and the
/// crash harness).
std::unique_ptr<ArrayDevice> MakeMirroredArray(const SsdConfig& member,
                                               uint32_t n, ArrayConfig cfg);
std::unique_ptr<ArrayDevice> MakeStripedArray(const SsdConfig& member,
                                              uint32_t n, ArrayConfig cfg);

}  // namespace durassd

#endif  // DURASSD_ARRAY_ARRAY_DEVICE_H_
