#include "host/block_device.h"

namespace durassd {

BlockDevice::Result BlockDevice::Submit(SimTime now, const Command& cmd) {
  SimTime t = now;
  while (!inflight_done_.empty() && inflight_done_.top() <= t) {
    inflight_done_.pop();
  }
  if (qd_limit_ > 0) {
    while (inflight_done_.size() >= qd_limit_) {
      const SimTime freed = inflight_done_.top();
      inflight_done_.pop();
      if (freed > t) {
        submit_stalls_++;
        submit_stall_time_ += freed - t;
        t = freed;
      }
    }
  }
  if (h_qd_ != nullptr) {
    h_qd_->Record(static_cast<int64_t>(inflight_done_.size()) + 1);
  }
  const Result r = Service(t, cmd);
  inflight_done_.push(r.done);
  return r;
}

BlockDevice::Result BlockDevice::Service(SimTime t, const Command& cmd) {
  const auto offline_at_cut = [this] {
    return Result{Status::DeviceOffline("scheduled power cut"),
                  scheduled_cut_};
  };
  if (cut_armed_ && t >= scheduled_cut_) {
    TripScheduledCut();
    return offline_at_cut();
  }
  if (!powered_) return {Status::DeviceOffline(), t};
  if (cmd.op == Command::Op::kWrite) {
    if (cmd.data.empty() || cmd.data.size() % sector_size() != 0) {
      return {Status::InvalidArgument("write size not sector-aligned"), t};
    }
    if (!SectorRangeFits(cmd.lpn, cmd.data.size() / sector_size(),
                         num_sectors())) {
      return {Status::InvalidArgument("write beyond device capacity"), t};
    }
  } else if (cmd.op == Command::Op::kRead) {
    if (cmd.nsec == 0 || !SectorRangeFits(cmd.lpn, cmd.nsec, num_sectors())) {
      return {Status::InvalidArgument("read beyond device capacity"), t};
    }
  }
  const uint64_t trips = scheduled_cuts_tripped_;
  const Result r = cmd.op == Command::Op::kBarrier && !supports_barrier()
                       ? Execute(t, Command::MakeFlush())
                       : Execute(t, cmd);
  if (scheduled_cuts_tripped_ != trips || CutBeforeCompletion(r.done)) {
    return offline_at_cut();
  }
  return r;
}

void BlockDevice::TripScheduledCut() {
  cut_armed_ = false;
  scheduled_cuts_tripped_++;
  PowerCut(scheduled_cut_);
}

bool BlockDevice::CutBeforeCompletion(SimTime done) {
  if (!cut_armed_ || done <= scheduled_cut_) return false;
  TripScheduledCut();
  return true;
}

bool BlockDevice::CutPower(SimTime t) {
  cut_armed_ = false;
  if (!powered_) return false;
  powered_ = false;
  AbortInFlight(t);
  return true;
}

bool BlockDevice::RestorePower() {
  if (powered_) return false;
  powered_ = true;
  return true;
}

}  // namespace durassd
