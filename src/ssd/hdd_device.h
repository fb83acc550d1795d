#ifndef DURASSD_SSD_HDD_DEVICE_H_
#define DURASSD_SSD_HDD_DEVICE_H_

#include <cstdint>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/resource.h"
#include "common/types.h"
#include "host/block_device.h"

namespace durassd {

/// Magnetic disk model (the paper's baseline: Seagate Cheetah 15K.6,
/// 146.8GB, 16MB track cache). A single actuator serves requests whose
/// positioning cost shrinks with queue depth (elevator scheduling); the
/// volatile track cache acknowledges writes early and destages in sorted
/// order. The drive's timing (seek, rotation, media and bus rates, elevator
/// gains, cache size) is one calibration, kept as constants in
/// hdd_device.cc. Power loss drops unflushed cache contents and can shear the
/// sector being written. Scheduled cuts follow BlockDevice's contract, so
/// a cached write acked at bus speed before the instant keeps its ack (the
/// bytes may still die with the cache), while a media completion past it
/// is never acknowledged.
class HddDevice : public BlockDevice {
 public:
  struct Config {
    uint32_t sector_size = 4 * kKiB;
    uint64_t num_sectors = (16ull * kGiB) / (4 * kKiB);
    bool cache_enabled = true;
    bool store_data = true;
  };

  explicit HddDevice(Config config);

  uint32_t sector_size() const override { return cfg_.sector_size; }
  uint64_t num_sectors() const override { return cfg_.num_sectors; }
  void PowerCut(SimTime t) override;
  SimTime PowerOn() override;
  bool supports_atomic_write() const override { return false; }
  bool has_durable_cache() const override { return false; }

  const Config& config() const { return cfg_; }

 protected:
  Result Execute(SimTime t, const Command& cmd) override;

 private:
  Result DoWrite(SimTime now, Lpn lpn, Slice data);
  Result DoRead(SimTime now, Lpn lpn, uint32_t nsec, std::string* out);
  Result DoFlush(SimTime now);

  struct InFlight {
    Lpn lpn;
    uint32_t nsec;
    SimTime done;
  };

  /// Positioning + transfer cost for `nsec` sectors at queue depth q.
  SimTime ServiceTime(uint32_t nsec, bool is_write, uint32_t q) const;
  uint32_t QueueDepth(SimTime t);
  void CommitToMedia(Lpn lpn, Slice data);
  SimTime DestageToMedia(SimTime t, Lpn lpn, Slice data);

  Config cfg_;
  ResourceTimeline bus_;
  ResourceTimeline arm_;  ///< The single actuator.
  std::unordered_map<Lpn, std::string> media_;
  std::priority_queue<SimTime, std::vector<SimTime>, std::greater<SimTime>>
      outstanding_;
  /// Track-cache destages still headed for media, as (media completion,
  /// sectors), earliest first, and the sectors they hold in the cache.
  std::priority_queue<std::pair<SimTime, uint32_t>,
                      std::vector<std::pair<SimTime, uint32_t>>,
                      std::greater<>>
      dirty_;
  uint32_t dirty_sectors_ = 0;
  std::vector<InFlight> inflight_;
  SimTime max_time_seen_ = 0;
  SimTime last_flush_done_ = 0;
};

}  // namespace durassd

#endif  // DURASSD_SSD_HDD_DEVICE_H_
