#include "ssd/hdd_device.h"

#include <algorithm>
#include <cassert>

namespace durassd {

namespace {
constexpr SimTime kAvgSeek = 3600 * kMicrosecond;
constexpr SimTime kHalfRotation = 2000 * kMicrosecond;  ///< 15K rpm.
constexpr SimTime kFixedOverhead = 700 * kMicrosecond;
constexpr double kTransferBytesPerNs = 0.17;  ///< ~170 MB/s media rate.
/// Elevator gain: service factor = 1 + gain * min(q, window) / window.
constexpr double kReadElevatorGain = 3.9;
constexpr uint32_t kReadElevatorWindow = 128;
constexpr double kWriteElevatorGain = 2.3;
constexpr uint32_t kWriteElevatorWindow = 64;
constexpr double kBusBytesPerNs = 0.60;
constexpr SimTime kBusCmdOverhead = 3 * kMicrosecond;
/// Track-cache frames: 16 MiB of 4 KiB sectors.
constexpr uint32_t kWriteCacheSectors = 4096;
}  // namespace

HddDevice::HddDevice(Config config)
    : cfg_(std::move(config)), bus_(1), arm_(1) {}

SimTime HddDevice::ServiceTime(uint32_t nsec, bool is_write,
                               uint32_t q) const {
  const double gain = is_write ? kWriteElevatorGain : kReadElevatorGain;
  const uint32_t window = is_write ? kWriteElevatorWindow : kReadElevatorWindow;
  const double factor =
      1.0 + gain * static_cast<double>(std::min(q, window)) / window;
  const double positioning =
      static_cast<double>(kAvgSeek) + static_cast<double>(kHalfRotation);
  const double transfer =
      static_cast<double>(nsec) * cfg_.sector_size / kTransferBytesPerNs;
  return static_cast<SimTime>(positioning / factor + transfer) +
         kFixedOverhead;
}

uint32_t HddDevice::QueueDepth(SimTime t) {
  while (!outstanding_.empty() && outstanding_.top() <= t) {
    outstanding_.pop();
  }
  return static_cast<uint32_t>(outstanding_.size()) + 1;
}

void HddDevice::CommitToMedia(Lpn lpn, Slice data) {
  if (!cfg_.store_data) return;
  const uint32_t nsec = static_cast<uint32_t>(data.size() / cfg_.sector_size);
  for (uint32_t i = 0; i < nsec; ++i) {
    media_[lpn + i].assign(
        data.data() + static_cast<size_t>(i) * cfg_.sector_size,
        cfg_.sector_size);
  }
}

SimTime HddDevice::DestageToMedia(SimTime t, Lpn lpn, Slice data) {
  const uint32_t nsec =
      std::max<uint32_t>(1, static_cast<uint32_t>(data.size() / cfg_.sector_size));
  const SimTime service = ServiceTime(nsec, /*is_write=*/true, QueueDepth(t));
  const ResourceTimeline::Grant g = arm_.Acquire(t, service);
  outstanding_.push(g.done);
  inflight_.push_back({lpn, nsec, g.done});
  if (inflight_.size() > 2048) {
    std::erase_if(inflight_, [this](const InFlight& w) {
      return w.done <= max_time_seen_;
    });
  }
  CommitToMedia(lpn, data);
  return g.done;
}

BlockDevice::Result HddDevice::Execute(SimTime t, const Command& cmd) {
  switch (cmd.op) {
    case Command::Op::kWrite:
      return DoWrite(t, cmd.lpn, cmd.data);
    case Command::Op::kRead:
      return DoRead(t, cmd.lpn, cmd.nsec, cmd.out);
    default:  // FLUSH: the disk has no epochs, so BARRIER arrives as FLUSH.
      return DoFlush(t);
  }
}

BlockDevice::Result HddDevice::DoWrite(SimTime now, Lpn lpn, Slice data) {
  const uint32_t nsec = static_cast<uint32_t>(data.size() / cfg_.sector_size);
  max_time_seen_ = std::max(max_time_seen_, now);

  const SimTime bus_time =
      static_cast<SimTime>(data.size() / kBusBytesPerNs) + kBusCmdOverhead;
  const ResourceTimeline::Grant bus = bus_.Acquire(now, bus_time);

  if (!cfg_.cache_enabled) {
    const SimTime done = DestageToMedia(bus.done, lpn, data);
    max_time_seen_ = std::max(max_time_seen_, done);
    return {Status::OK(), done};
  }

  // Track-cache path: ack once transferred; destage asynchronously. The
  // cache holds kWriteCacheSectors: a write that would overflow it waits
  // until enough earlier destages have reached media.
  SimTime t = bus.done;
  while (!dirty_.empty() && (dirty_.top().first <= t ||
                             dirty_sectors_ + nsec > kWriteCacheSectors)) {
    t = std::max(t, dirty_.top().first);
    dirty_sectors_ -= dirty_.top().second;
    dirty_.pop();
  }
  const SimTime ack = t;
  dirty_.emplace(DestageToMedia(ack, lpn, data), nsec);
  dirty_sectors_ += nsec;
  max_time_seen_ = std::max(max_time_seen_, ack);
  return {Status::OK(), ack};
}

BlockDevice::Result HddDevice::DoRead(SimTime now, Lpn lpn, uint32_t nsec,
                                      std::string* out) {
  max_time_seen_ = std::max(max_time_seen_, now);

  const SimTime service = ServiceTime(nsec, /*is_write=*/false,
                                      QueueDepth(now));
  const ResourceTimeline::Grant g = arm_.Acquire(now, service);
  outstanding_.push(g.done);
  const SimTime bus_time =
      static_cast<SimTime>(static_cast<double>(nsec) * cfg_.sector_size /
                           kBusBytesPerNs) +
      kBusCmdOverhead;
  const ResourceTimeline::Grant bus = bus_.Acquire(g.done, bus_time);

  if (out != nullptr) {
    out->clear();
    for (uint32_t i = 0; i < nsec; ++i) {
      auto mit = media_.find(lpn + i);
      if (mit != media_.end()) {
        out->append(mit->second);
      } else {
        out->append(cfg_.sector_size, '\0');
      }
    }
  }
  max_time_seen_ = std::max(max_time_seen_, bus.done);
  return {Status::OK(), bus.done};
}

BlockDevice::Result HddDevice::DoFlush(SimTime now) {
  max_time_seen_ = std::max(max_time_seen_, now);
  // Flushes serialize in the drive's firmware.
  const SimTime start = std::max(now, last_flush_done_);
  SimTime done = start + kBusCmdOverhead;
  while (!outstanding_.empty()) {
    done = std::max(done, outstanding_.top());
    outstanding_.pop();
  }
  dirty_ = {};  // Every destage is on media by `done`.
  dirty_sectors_ = 0;
  last_flush_done_ = done;
  if (done > start) {
    (void)bus_.Acquire(start, done - start);  // Flush stalls the link.
  }
  max_time_seen_ = std::max(max_time_seen_, done);
  return {Status::OK(), done};
}

void HddDevice::PowerCut(SimTime t) {
  if (!CutPower(t)) return;

  // Writes whose media pass had not finished: roll back or shear.
  for (const InFlight& w : inflight_) {
    if (w.done <= t) continue;
    if (!cfg_.store_data) continue;
    // The media pass had not finished: the command is sheared. First half
    // of the leading sector made it; the rest of the command did not.
    // (Commands that had not even started are treated the same —
    // deliberately pessimistic for a volatile in-place device.)
    for (uint32_t i = 0; i < w.nsec; ++i) {
      auto mit = media_.find(w.lpn + i);
      if (mit == media_.end()) continue;
      std::string& bytes = mit->second;
      if (i == 0) {
        for (size_t b = bytes.size() / 2; b < bytes.size(); ++b) {
          bytes[b] = '\0';
        }
      } else {
        // Later sectors of the command had not been written at all; they
        // read back as stale/empty.
        bytes.assign(cfg_.sector_size, '\0');
      }
    }
  }
  inflight_.clear();

  // Unflushed cache contents are gone: a write whose media pass had not
  // finished was handled above.
  while (!outstanding_.empty()) outstanding_.pop();
  dirty_ = {};
  dirty_sectors_ = 0;
  bus_.Reset();
  arm_.Reset();
  max_time_seen_ = 0;
  last_flush_done_ = 0;  // The clock restarts at zero after PowerOn.
}

SimTime HddDevice::PowerOn() {
  if (!RestorePower()) return 0;
  return 2 * kMillisecond;  // Spin-up is seconds on real disks; irrelevant.
}

}  // namespace durassd
