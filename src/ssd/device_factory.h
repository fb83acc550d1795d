#ifndef DURASSD_SSD_DEVICE_FACTORY_H_
#define DURASSD_SSD_DEVICE_FACTORY_H_

#include <memory>

#include "host/block_device.h"
#include "host/durability_mode.h"

namespace durassd {

/// The device line-up of the paper's Table 1.
enum class DeviceModel {
  kHdd,      ///< Seagate Cheetah 15K.6 class disk, 16MB track cache.
  kSsdA,     ///< Commodity SSD, 512MB volatile cache.
  kSsdB,     ///< Commodity SSD, 128MB volatile cache.
  kDuraSsd,  ///< The prototype: 512MB capacitor-backed durable cache.
};

/// Builds a timing-only device (no host bytes are stored; reads return
/// zeros) for the benches that sweep the Table-1 line-up. `cache_on` maps to
/// the "Storage Cache ON/OFF" rows.
std::unique_ptr<BlockDevice> MakeDevice(DeviceModel model, bool cache_on);

/// The timing-only deployment each durability mode contrasts (see
/// DurabilityMode): kVolatileFlush -> SSD-A (volatile cache; fsync issues
/// FLUSH CACHE), kDurableOrderedNcq / kBarrier -> DuraSSD (capacitor-backed
/// cache; the former relies on the ordered NCQ, the latter on BARRIER
/// epochs).
std::unique_ptr<BlockDevice> MakeDeviceForDurabilityMode(DurabilityMode mode);

/// Whether a host running in `mode` should mount with write barriers —
/// i.e. whether fsync must issue FLUSH CACHE for durability. Only the
/// paper's DuraSSD deployment (kDurableOrderedNcq) can drop them; barrier
/// mode keeps them so that fsync-for-durability boundaries (checkpoints,
/// clean shutdown) still reach media.
bool WriteBarriersForDurabilityMode(DurabilityMode mode);

}  // namespace durassd

#endif  // DURASSD_SSD_DEVICE_FACTORY_H_
