#include "array/array_device.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

namespace durassd {

namespace {

/// Bound on the not-yet-known-safe rebuild batch window. A power cut always
/// lands at or near the execution frontier; batches this far behind it have
/// long been durable on the target.
constexpr size_t kMaxRebuildBatchRecords = 65536;

}  // namespace

ArrayDevice::ArrayDevice(ArrayConfig config,
                         std::vector<SsdConfig> member_configs)
    : cfg_(config), member_cfgs_(std::move(member_configs)) {
  assert(!member_cfgs_.empty());
  members_.reserve(member_cfgs_.size());
  for (const SsdConfig& mc : member_cfgs_) {
    members_.push_back(std::make_unique<SsdDevice>(mc));
  }
  states_.assign(members_.size(), MemberState::kHealthy);
  member_sectors_ = members_[0]->num_sectors();
  for (const auto& m : members_) {
    assert(m->sector_size() == members_[0]->sector_size());
    member_sectors_ = std::min(member_sectors_, m->num_sectors());
  }
  // Striping hands out whole stripe units, so a member can only serve whole
  // units. A one-member array maps 1:1 and keeps the raw capacity.
  if (cfg_.layout == ArrayConfig::Layout::kStriped && members_.size() > 1) {
    member_sectors_ -= member_sectors_ % cfg_.stripe_unit_sectors;
  }
  c_retries_ = metrics_.Counter("array.retries");
  c_timeouts_ = metrics_.Counter("array.timeouts");
  c_transient_rejects_ = metrics_.Counter("array.transient_rejects");
  c_member_deaths_ = metrics_.Counter("array.member_deaths");
  c_redirected_reads_ = metrics_.Counter("array.redirected_reads");
  c_redirected_writes_ = metrics_.Counter("array.redirected_writes");
  c_degraded_write_rejects_ = metrics_.Counter("array.degraded_write_rejects");
  c_rebuild_copied_sectors_ = metrics_.Counter("array.rebuild_copied_sectors");
}

uint32_t ArrayDevice::sector_size() const { return members_[0]->sector_size(); }

uint64_t ArrayDevice::num_sectors() const {
  return cfg_.layout == ArrayConfig::Layout::kStriped
             ? member_sectors_ * members_.size()
             : member_sectors_;
}

bool ArrayDevice::supports_atomic_write() const {
  for (const auto& m : members_) {
    if (!m->supports_atomic_write()) return false;
  }
  return true;
}

bool ArrayDevice::has_durable_cache() const {
  for (const auto& m : members_) {
    if (!m->has_durable_cache()) return false;
  }
  return true;
}

bool ArrayDevice::ordered_writes() const {
  // Striping round-robins consecutive sectors across members, so the global
  // submitted stream is not a per-member prefix: each member orders only its
  // own shard and the array cannot promise a global prefix cut. A mirror
  // serves reads from one replica, whose own ordered NCQ does give the
  // prefix guarantee for the view the host observes.
  if (cfg_.layout == ArrayConfig::Layout::kStriped && members_.size() > 1) {
    return false;
  }
  for (const auto& m : members_) {
    if (!m->ordered_writes()) return false;
  }
  return true;
}

bool ArrayDevice::supports_barrier() const {
  // Same reasoning as ordered_writes(): BARRIER epochs are sealed per
  // member, and only a single-replica view (mirror primary, or a one-member
  // array) makes the per-member epoch-consistent cut a whole-array one.
  if (cfg_.layout == ArrayConfig::Layout::kStriped && members_.size() > 1) {
    return false;
  }
  for (const auto& m : members_) {
    if (!m->supports_barrier()) return false;
  }
  return true;
}

uint64_t ArrayDevice::epoch_ordering_violations() const {
  uint64_t v = 0;
  for (const auto& m : members_) v += m->stats().epoch_ordering_violations;
  return v;
}

bool ArrayDevice::any_member_media_degraded() const {
  for (const auto& m : members_) {
    if (m->degraded()) return true;
  }
  return false;
}

int ArrayDevice::FirstLive(int skip) const {
  for (size_t m = 0; m < members_.size(); ++m) {
    if (static_cast<int>(m) == skip) continue;
    if (states_[m] == MemberState::kHealthy) return static_cast<int>(m);
  }
  return -1;
}

void ArrayDevice::RecomputeHealth() {
  if (health_ == Health::kFailed) return;  // Sticky.
  bool any_dead = false, any_rebuilding = false;
  uint32_t healthy = 0;
  for (MemberState s : states_) {
    if (s == MemberState::kDead) any_dead = true;
    if (s == MemberState::kRebuilding) any_rebuilding = true;
    if (s == MemberState::kHealthy) ++healthy;
  }
  if (cfg_.layout == ArrayConfig::Layout::kStriped) {
    health_ = any_dead ? Health::kFailed : Health::kOptimal;
    return;
  }
  if (healthy == 0) {
    health_ = Health::kFailed;
  } else if (any_dead || any_rebuilding) {
    health_ = Health::kDegraded;
  } else {
    health_ = Health::kOptimal;
  }
}

void ArrayDevice::DeclareDead(uint32_t m, SimTime t, const char* why) {
  if (states_[m] == MemberState::kDead) return;
  if (rebuild_active_ && m == rebuild_target_) rebuild_active_ = false;
  states_[m] = MemberState::kDead;
  stats_.member_deaths++;
  ++*c_member_deaths_;
  if (members_[m]->powered()) members_[m]->PowerCut(t);
  (void)why;
  RecomputeHealth();
}

BlockDevice::Result ArrayDevice::FailArrayWrite(SimTime t) {
  stats_.degraded_write_rejects++;
  ++*c_degraded_write_rejects_;
  return {Status::ResourceExhausted("array failed: writes rejected"), t};
}

BlockDevice::Result ArrayDevice::IssueOnce(uint32_t m, SimTime t,
                                           const Command& cmd) {
  ArrayFaultInjector::MemberFaults& f = faults_.ForMember(m);
  const uint64_t ordinal = f.commands_seen++;

  if (t >= f.kill_at) {  // Died before this command reached it.
    const SimTime died = f.kill_at;
    DeclareDead(m, died, "injected death");
    return {Status::IoError("array member dead"), t};
  }

  for (const auto& [from, until] : f.outages) {
    if (t >= from && t < until) {
      stats_.transient_rejects++;
      ++*c_transient_rejects_;
      return {Status::Busy("array member transiently unavailable"), t};
    }
  }

  Result r;
  switch (cmd.op) {
    case Command::Op::kWrite:
      r = members_[m]->Write(t, cmd.lpn, cmd.data);
      break;
    case Command::Op::kRead:
      r = members_[m]->Read(t, cmd.lpn, cmd.nsec, cmd.out);
      break;
    case Command::Op::kFlush:
      r = members_[m]->Flush(t);
      break;
    case Command::Op::kBarrier:
      r = members_[m]->Barrier(t);
      break;
  }

  if (r.done > f.kill_at) {  // Died mid-command: the answer never arrives.
    const SimTime died = f.kill_at;
    DeclareDead(m, died, "injected death mid-command");
    return {Status::IoError("array member died mid-command"), died};
  }

  auto hang = f.hangs.find(ordinal);
  if (hang != f.hangs.end()) {
    const SimTime extra = hang->second;
    f.hangs.erase(hang);
    // The device did the work; the completion is withheld. Only a
    // supervisor deadline turns this back into forward progress.
    r.done = (extra == kMaxSimTime || r.done > kMaxSimTime - extra)
                 ? kMaxSimTime
                 : r.done + extra;
  }
  return r;
}

BlockDevice::Result ArrayDevice::SuperviseMember(uint32_t m, SimTime t,
                                                 const Command& cmd) {
  SimTime now = t;
  SimTime backoff = cfg_.retry_backoff_ns;
  for (uint32_t attempt = 0;; ++attempt) {
    if (states_[m] == MemberState::kDead) {
      return {Status::IoError("array member dead"), now};
    }
    Result r = IssueOnce(m, now, cmd);
    if (cfg_.command_deadline_ns > 0 && r.done - now > cfg_.command_deadline_ns) {
      // Declared dead-on-the-wire at the deadline instant. The member may
      // have applied the command (its state keeps the effect), which is why
      // kTimedOut demands idempotent retries.
      r = {Status::TimedOut("array member command deadline exceeded"),
           now + cfg_.command_deadline_ns};
      stats_.timeouts++;
      ++*c_timeouts_;
    }
    if (r.status.ok() || !r.status.IsRetryable()) {
      // A definitive verdict. Malformed commands are the caller's bug, not
      // the member's health; everything else fatal already fenced the
      // member (injected death) or is propagated as-is (e.g. a member FTL's
      // ResourceExhausted read-only verdict).
      return r;
    }
    if (attempt == cfg_.retry_limit) {
      // Retry budget exhausted: supervisor escalation. The member is fenced
      // (declared dead) so the array stops routing commands into a black
      // hole; the caller runs failover.
      DeclareDead(m, r.done, "retry budget exhausted");
      return r;
    }
    stats_.retries++;
    ++*c_retries_;
    now = r.done + backoff;
    backoff = std::min(backoff * 2, cfg_.retry_backoff_max_ns);
  }
}

void ArrayDevice::SplitStriped(Lpn lpn, uint32_t nsec,
                               std::vector<StripePart>* parts) const {
  const uint64_t unit = cfg_.stripe_unit_sectors;
  const uint64_t n = members_.size();
  Lpn g = lpn;
  uint32_t remaining = nsec;
  while (remaining > 0) {
    const uint64_t stripe = g / unit;
    const uint64_t in_unit = g % unit;
    StripePart p;
    p.member = static_cast<uint32_t>(stripe % n);
    p.local_lpn = (stripe / n) * unit + in_unit;
    p.nsec = static_cast<uint32_t>(
        std::min<uint64_t>(remaining, unit - in_unit));
    p.global_offset = g - lpn;
    // Merge unit-boundary splits that stay contiguous on the same member —
    // a one-member array in particular must issue exactly the original
    // command (the golden timing-identity contract).
    if (!parts->empty()) {
      StripePart& last = parts->back();
      if (last.member == p.member &&
          last.local_lpn + last.nsec == p.local_lpn &&
          last.global_offset + last.nsec == p.global_offset) {
        last.nsec += p.nsec;
        g += p.nsec;
        remaining -= p.nsec;
        continue;
      }
    }
    parts->push_back(p);
    g += p.nsec;
    remaining -= p.nsec;
  }
}

BlockDevice::Result ArrayDevice::ExecuteStriped(SimTime t, const Command& cmd) {
  const uint32_t ss = sector_size();
  const bool is_write = cmd.op == Command::Op::kWrite;
  if (is_write && health_ == Health::kFailed) return FailArrayWrite(t);

  const uint32_t nsec = is_write
                            ? static_cast<uint32_t>(cmd.data.size() / ss)
                            : cmd.nsec;
  if (is_write && (cmd.data.size() == 0 || cmd.data.size() % ss != 0)) {
    return {Status::InvalidArgument("write data not sector-aligned"), t};
  }
  if (nsec == 0 || !SectorRangeFits(cmd.lpn, nsec, num_sectors())) {
    return {Status::InvalidArgument("striped range out of bounds"), t};
  }

  std::vector<StripePart> parts;
  SplitStriped(cmd.lpn, nsec, &parts);

  if (cmd.out != nullptr) cmd.out->resize(static_cast<size_t>(nsec) * ss);

  SimTime done = t;
  for (const StripePart& p : parts) {
    Command sub;
    sub.op = cmd.op;
    sub.lpn = p.local_lpn;
    std::string part_buf;
    if (is_write) {
      sub.data = Slice(cmd.data.data() + p.global_offset * ss,
                       static_cast<size_t>(p.nsec) * ss);
    } else {
      sub.nsec = p.nsec;
      sub.out = cmd.out != nullptr ? &part_buf : nullptr;
    }
    Result r = SuperviseMember(p.member, t, sub);
    if (!r.status.ok()) {
      // No redundancy: a lost shard fails the command, and a dead member
      // fails the array for writes (sticky). Reads whose ranges avoid the
      // dead member keep working.
      RecomputeHealth();
      if (is_write && health_ == Health::kFailed) {
        stats_.degraded_write_rejects++;
        ++*c_degraded_write_rejects_;
      }
      return r;
    }
    if (cmd.out != nullptr && !is_write) {
      cmd.out->replace(static_cast<size_t>(p.global_offset) * ss,
                       part_buf.size(), part_buf);
    }
    done = std::max(done, r.done);
  }
  return {Status::OK(), done};
}

BlockDevice::Result ArrayDevice::ExecuteMirrored(SimTime t,
                                                 const Command& cmd) {
  if (cmd.op == Command::Op::kRead) {
    // Reads are served by the primary — the lowest-index healthy member —
    // and fail over to the next survivor if the primary dies mid-read.
    SimTime now = t;
    Result last{Status::IoError("no live mirror replica"), t};
    for (;;) {
      const int m = FirstLive();
      if (m < 0) return {last.status, now};
      if (m > 0) {
        stats_.redirected_reads++;
        ++*c_redirected_reads_;
      }
      Result r = SuperviseMember(static_cast<uint32_t>(m), now, cmd);
      if (r.status.ok() || states_[m] != MemberState::kDead) return r;
      last = r;
      now = r.done;  // Failover: re-issue to the survivor when the
                     // failure was observed.
    }
  }

  if (health_ == Health::kFailed) {
    if (cmd.op == Command::Op::kWrite) return FailArrayWrite(t);
    return {Status::IoError("no live mirror replica"), t};
  }

  // Writes (and flush/barrier) replicate to every live member, the rebuild
  // target included: gating the array ack on the target's ack keeps every
  // already-copied sector fresh on the target even if power dies before the
  // rebuild re-copies it.
  SimTime ack = t;
  SimTime min_member_ack = kMaxSimTime;
  bool healthy_ok = false, partial = false, target_ok = false;
  Status err;
  for (uint32_t m = 0; m < members_.size(); ++m) {
    if (states_[m] == MemberState::kDead) {
      partial = true;
      continue;
    }
    const bool was_healthy = states_[m] == MemberState::kHealthy;
    Result r = SuperviseMember(m, t, cmd);
    if (r.status.ok()) {
      if (was_healthy) {
        healthy_ok = true;
        if (cmd.op == Command::Op::kWrite) {
          write_ack_watermark_ = std::max(write_ack_watermark_, r.done);
        }
      } else {
        target_ok = true;
      }
      ack = std::max(ack, r.done);
      min_member_ack = std::min(min_member_ack, r.done);
    } else {
      partial = true;
      err = r.status;
      ack = std::max(ack, r.done);
    }
  }
  RecomputeHealth();
  if (rebuild_active_ && cmd.op == Command::Op::kWrite && healthy_ok &&
      target_ok && cmd.lpn < rebuild_cursor_ && min_member_ack < ack) {
    // The write landed in the already-copied region with different acks on
    // the replicas: a cut between them keeps it on one side only, and the
    // copy must redo that range.
    rebuild_overlaps_.push_back({cmd.lpn, min_member_ack, ack});
    if (rebuild_overlaps_.size() > kMaxRebuildBatchRecords) {
      rebuild_conservative_ = true;
      rebuild_overlaps_.clear();
    }
  }
  if (!healthy_ok) {
    // No full replica holds this write: fail it (the rebuild target alone
    // is not a replica — it is complete only up to the copy cursor).
    return {err.ok() ? Status::IoError("no live mirror replica") : err, ack};
  }
  if (partial && cmd.op == Command::Op::kWrite) {
    stats_.redirected_writes++;
    ++*c_redirected_writes_;
  }
  return {Status::OK(), ack};
}

BlockDevice::Result ArrayDevice::ExecuteBroadcast(SimTime t,
                                                  const Command& cmd) {
  SimTime done = t;
  bool any_ok = false;
  Status err;
  for (uint32_t m = 0; m < members_.size(); ++m) {
    if (states_[m] == MemberState::kDead) continue;
    Result r = SuperviseMember(m, t, cmd);
    if (r.status.ok()) {
      any_ok = true;
      done = std::max(done, r.done);
    } else {
      err = r.status;
      done = std::max(done, r.done);
    }
  }
  RecomputeHealth();
  if (!any_ok) {
    return {err.ok() ? Status::IoError("no live array member") : err, done};
  }
  return {Status::OK(), done};
}

BlockDevice::Result ArrayDevice::Execute(SimTime t, const Command& cmd) {
  if (!powered_) return {Status::DeviceOffline("array powered off"), t};
  if (cut_armed_ && t >= scheduled_cut_) {
    const SimTime cut = scheduled_cut_;
    PowerCut(cut);
    return {Status::DeviceOffline("scheduled power cut"), cut};
  }

  if (cfg_.auto_rebuild && !rebuild_active_ &&
      cfg_.layout == ArrayConfig::Layout::kMirrored && FirstLive() >= 0) {
    for (uint32_t m = 0; m < members_.size(); ++m) {
      if (states_[m] == MemberState::kDead) {
        (void)StartRebuild(t, m);
        break;
      }
    }
  }
  PumpRebuild(t);

  Result r = cfg_.layout == ArrayConfig::Layout::kMirrored
                 ? ExecuteMirrored(t, cmd)
                 : (cmd.op == Command::Op::kFlush ||
                            cmd.op == Command::Op::kBarrier
                        ? ExecuteBroadcast(t, cmd)
                        : ExecuteStriped(t, cmd));

  if (cut_armed_ && r.done > scheduled_cut_) {
    // Causality guard (same contract as the member device's
    // CutBeforeCompletion): a command whose completion lands past the armed
    // instant must not be acknowledged — power died mid-command. Member
    // effects carrying post-cut timestamps are reverted by each member's
    // PowerCut rollback.
    const SimTime cut = scheduled_cut_;
    PowerCut(cut);
    return {Status::DeviceOffline("scheduled power cut"), cut};
  }
  return r;
}

void ArrayDevice::PowerCut(SimTime t) {
  cut_armed_ = false;
  for (uint32_t m = 0; m < members_.size(); ++m) {
    if (states_[m] != MemberState::kDead && members_[m]->powered()) {
      members_[m]->PowerCut(t);
    }
  }
  powered_ = false;
  AbortInFlight(t);
  if (rebuild_active_) {
    // Rewind the copy cursor to the last batch known safe at the cut:
    // target-durable AND copied from source data no rollback can revert.
    // Then pull it further back past any foreground write the cut left on
    // only one replica. Everything behind the rewound cursor is
    // bit-identical on source and target; everything past it is re-copied.
    uint64_t safe = 0;
    if (!rebuild_conservative_) {
      for (const auto& [end, safe_time] : rebuild_batches_) {
        if (safe_time <= t) safe = std::max(safe, end);
      }
      for (const DivergenceRec& d : rebuild_overlaps_) {
        if (d.min_ack <= t && t < d.max_ack) safe = std::min(safe, d.lpn);
      }
    }
    rebuild_cursor_ = std::min(rebuild_cursor_, safe);
    rebuild_batches_.clear();
    rebuild_overlaps_.clear();
    rebuild_conservative_ = false;
  }
}

SimTime ArrayDevice::PowerOn() {
  SimTime dur = 0;
  for (uint32_t m = 0; m < members_.size(); ++m) {
    if (states_[m] != MemberState::kDead) {
      dur = std::max(dur, members_[m]->PowerOn());
    }
  }
  powered_ = true;
  // Reboot re-enumerates the bus: unfired fault scripts belong to the old
  // power epoch and are dropped (the harness re-arms per epoch). Member
  // clocks restarted at zero, so the rebuild rate limiter restarts too.
  faults_.Clear();
  rebuild_next_allowed_ = 0;
  rebuild_batches_.clear();
  rebuild_overlaps_.clear();
  write_ack_watermark_ = 0;
  return dur;
}

Status ArrayDevice::Shutdown(SimTime now) {
  Status first;
  for (uint32_t m = 0; m < members_.size(); ++m) {
    if (states_[m] == MemberState::kDead) continue;
    Status s = members_[m]->Shutdown(now);
    if (!s.ok() && first.ok()) first = s;
  }
  powered_ = false;
  return first;
}

Status ArrayDevice::StartRebuild(SimTime now, uint32_t m) {
  if (cfg_.layout != ArrayConfig::Layout::kMirrored) {
    return Status::NotSupported("rebuild requires a mirrored array");
  }
  if (m >= members_.size()) return Status::InvalidArgument("no such member");
  if (rebuild_active_) return Status::Busy("rebuild already running");
  if (states_[m] != MemberState::kDead) {
    return Status::InvalidArgument("member is not dead");
  }
  if (FirstLive() < 0) {
    return Status::ResourceExhausted("no live replica to rebuild from");
  }
  // Hot-swap a fresh spare of the same model into the slot. The spare is a
  // new physical device: any fault scripts aimed at the old unit die with it.
  members_[m] = std::make_unique<SsdDevice>(member_cfgs_[m]);
  faults_.members_.erase(m);
  states_[m] = MemberState::kRebuilding;
  rebuild_active_ = true;
  rebuild_target_ = m;
  rebuild_cursor_ = 0;
  rebuild_conservative_ = false;
  rebuild_batches_.clear();
  rebuild_overlaps_.clear();
  rebuild_next_allowed_ = now;
  stats_.rebuilds_started++;
  RecomputeHealth();
  PumpRebuild(now);
  return Status::OK();
}

void ArrayDevice::PumpRebuild(SimTime now) {
  if (!rebuild_active_ || !powered_) return;
  const uint32_t ss = sector_size();
  while (rebuild_active_ && rebuild_cursor_ < member_sectors_ &&
         rebuild_next_allowed_ <= now) {
    const SimTime tb = rebuild_next_allowed_;
    const int src = FirstLive();
    if (src < 0) return;  // No copy source: rebuild starves (array failed).
    const uint32_t n = static_cast<uint32_t>(std::min<uint64_t>(
        cfg_.rebuild_batch_sectors, member_sectors_ - rebuild_cursor_));

    Command rd;
    rd.op = Command::Op::kRead;
    rd.lpn = rebuild_cursor_;
    rd.nsec = n;
    rd.out = &rebuild_buf_;
    Result rr = SuperviseMember(static_cast<uint32_t>(src), tb, rd);
    if (!rr.status.ok()) return;  // Source fenced; retry on a later pump.

    rebuild_buf_.resize(static_cast<size_t>(n) * ss);
    Command wr;
    wr.op = Command::Op::kWrite;
    wr.lpn = rebuild_cursor_;
    wr.data = Slice(rebuild_buf_.data(), rebuild_buf_.size());
    Result wres = SuperviseMember(rebuild_target_, rr.done, wr);
    if (!wres.status.ok()) return;  // Target fenced: DeclareDead aborted us.

    rebuild_cursor_ += n;
    stats_.rebuild_batches++;
    stats_.rebuild_copied_sectors += n;
    *c_rebuild_copied_sectors_ += n;
    rebuild_batches_.emplace_back(rebuild_cursor_,
                                  std::max(wres.done, write_ack_watermark_));
    if (rebuild_batches_.size() > kMaxRebuildBatchRecords) {
      rebuild_conservative_ = true;
      rebuild_batches_.clear();
    }
    rebuild_last_done_ = wres.done;
    rebuild_next_allowed_ = wres.done + cfg_.rebuild_interval_ns;
  }
  if (rebuild_active_ && rebuild_cursor_ >= member_sectors_) {
    // Copy complete: the target is a full replica again.
    rebuild_active_ = false;
    states_[rebuild_target_] = MemberState::kHealthy;
    stats_.rebuilds_completed++;
    rebuild_batches_.clear();
    rebuild_overlaps_.clear();
    RecomputeHealth();
  }
}

std::unique_ptr<ArrayDevice> MakeMirroredArray(const SsdConfig& member,
                                               uint32_t n, ArrayConfig cfg) {
  cfg.layout = ArrayConfig::Layout::kMirrored;
  return std::make_unique<ArrayDevice>(
      cfg, std::vector<SsdConfig>(n, member));
}

std::unique_ptr<ArrayDevice> MakeStripedArray(const SsdConfig& member,
                                              uint32_t n, ArrayConfig cfg) {
  cfg.layout = ArrayConfig::Layout::kStriped;
  return std::make_unique<ArrayDevice>(
      cfg, std::vector<SsdConfig>(n, member));
}

}  // namespace durassd
