#ifndef DURASSD_SSD_HDD_DEVICE_H_
#define DURASSD_SSD_HDD_DEVICE_H_

#include <cstdint>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/resource.h"
#include "common/types.h"
#include "host/block_device.h"

namespace durassd {

/// Magnetic disk model (the paper's baseline: Seagate Cheetah 15K.6,
/// 146.8GB, 16MB track cache). A single actuator serves requests whose
/// positioning cost shrinks with queue depth (elevator scheduling); the
/// volatile track cache acknowledges writes early and destages in sorted
/// order. Power loss drops unflushed cache contents and can shear the
/// sector being written.
class HddDevice : public BlockDevice {
 public:
  struct Config {
    std::string name = "HDD";
    uint32_t sector_size = 4 * kKiB;
    uint64_t num_sectors = (16ull * kGiB) / (4 * kKiB);
    bool cache_enabled = true;
    uint32_t write_cache_sectors = 4096;  ///< 16 MiB / 4 KiB.

    SimTime avg_seek = 3600 * kMicrosecond;
    SimTime half_rotation = 2000 * kMicrosecond;  ///< 15K rpm.
    SimTime fixed_overhead = 700 * kMicrosecond;
    double transfer_bytes_per_ns = 0.17;  ///< ~170 MB/s media rate.

    /// Elevator gain: service factor = 1 + gain * min(q, window) / window.
    double read_elevator_gain = 3.9;
    uint32_t read_elevator_window = 128;
    double write_elevator_gain = 2.3;
    uint32_t write_elevator_window = 64;

    double bus_bytes_per_ns = 0.60;
    SimTime bus_cmd_overhead = 3 * kMicrosecond;

    bool store_data = true;
  };

  explicit HddDevice(Config config);

  uint32_t sector_size() const override { return cfg_.sector_size; }
  uint64_t num_sectors() const override { return cfg_.num_sectors; }
  void PowerCut(SimTime t) override;
  SimTime PowerOn() override;
  bool supports_atomic_write() const override { return false; }
  bool has_durable_cache() const override { return false; }

  /// Arms a power cut at virtual time `t` (same contract as
  /// SsdDevice::SchedulePowerCut): the first command observed at
  /// or after the instant — or whose completion would land past it — trips
  /// PowerCut(t) and fails DeviceOffline instead of being acknowledged, so
  /// the acked-durability oracle holds on the disk exactly as on the SSDs
  /// (a completion later than the cut cannot causally have been delivered).
  void SchedulePowerCut(SimTime t) {
    scheduled_cut_ = t;
    cut_armed_ = true;
  }
  void CancelScheduledPowerCut() { cut_armed_ = false; }
  bool scheduled_cut_armed() const { return cut_armed_; }
  uint64_t scheduled_cuts_tripped() const { return scheduled_cuts_tripped_; }

  bool powered() const { return powered_; }
  const Config& config() const { return cfg_; }

 protected:
  Result Execute(SimTime t, const Command& cmd) override;

 private:
  Result DoWrite(SimTime now, Lpn lpn, Slice data);
  Result DoRead(SimTime now, Lpn lpn, uint32_t nsec, std::string* out);
  Result DoFlush(SimTime now);

  struct CachedWrite {
    std::string data;
    SimTime ack;
    SimTime media_start;
    SimTime media_done;
  };
  struct InFlight {
    Lpn lpn;
    uint32_t nsec;
    SimTime start;
    SimTime done;
    std::string new_data;
  };

  /// Positioning + transfer cost for `nsec` sectors at queue depth q.
  SimTime ServiceTime(uint32_t nsec, bool is_write, uint32_t q) const;
  uint32_t QueueDepth(SimTime t);
  void CommitToMedia(Lpn lpn, Slice data);
  SimTime DestageToMedia(SimTime t, Lpn lpn, Slice data, SimTime* start_out);

  Config cfg_;
  ResourceTimeline bus_;
  ResourceTimeline arm_;  ///< The single actuator.
  std::unordered_map<Lpn, std::string> media_;
  std::vector<bool> torn_;
  std::unordered_map<Lpn, CachedWrite> cache_;
  std::priority_queue<SimTime, std::vector<SimTime>, std::greater<SimTime>>
      outstanding_;
  std::vector<InFlight> inflight_;
  bool powered_ = true;
  bool cut_armed_ = false;
  SimTime scheduled_cut_ = 0;
  uint64_t scheduled_cuts_tripped_ = 0;
  SimTime max_time_seen_ = 0;
  SimTime last_flush_done_ = 0;
};

}  // namespace durassd

#endif  // DURASSD_SSD_HDD_DEVICE_H_
