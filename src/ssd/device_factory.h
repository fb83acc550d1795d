#ifndef DURASSD_SSD_DEVICE_FACTORY_H_
#define DURASSD_SSD_DEVICE_FACTORY_H_

#include <memory>
#include <string>

#include "host/block_device.h"
#include "host/durability_mode.h"
#include "ssd/hdd_device.h"
#include "ssd/ssd_config.h"

namespace durassd {

/// The device line-up of the paper's Table 1.
enum class DeviceModel {
  kHdd,      ///< Seagate Cheetah 15K.6 class disk, 16MB track cache.
  kSsdA,     ///< Commodity SSD, 512MB volatile cache.
  kSsdB,     ///< Commodity SSD, 128MB volatile cache.
  kDuraSsd,  ///< The prototype: 512MB capacitor-backed durable cache.
};

/// Builds a device. `cache_on` maps to the "Storage Cache ON/OFF" rows;
/// `store_data` selects real-bytes vs timing-only mode.
std::unique_ptr<BlockDevice> MakeDevice(DeviceModel model, bool cache_on,
                                        bool store_data);

/// The SsdConfig preset behind `model` with the cache/data knobs applied.
/// This is the single place the Table-1 line-up maps to configs. `model`
/// must not be kHdd.
SsdConfig SsdConfigForModel(DeviceModel model, bool cache_on, bool store_data);

/// The HDD preset (Table 1's Cheetah 15K.6 row) with the cache/data knobs
/// applied — the counterpart of SsdConfigForModel for kHdd, and the default
/// capacity tier of a TieredDevice.
HddDevice::Config HddConfigForModel(bool cache_on, bool store_data);

/// The deployment each durability mode contrasts (see DurabilityMode):
/// kVolatileFlush -> SSD-A (volatile cache; fsync issues FLUSH CACHE),
/// kDurableOrderedNcq / kBarrier -> DuraSSD (capacitor-backed cache; the
/// former relies on the ordered NCQ, the latter on BARRIER epochs).
std::unique_ptr<BlockDevice> MakeDeviceForDurabilityMode(DurabilityMode mode,
                                                         bool store_data);

/// Whether a host running in `mode` should mount with write barriers —
/// i.e. whether fsync must issue FLUSH CACHE for durability. Only the
/// paper's DuraSSD deployment (kDurableOrderedNcq) can drop them; barrier
/// mode keeps them so that fsync-for-durability boundaries (checkpoints,
/// clean shutdown) still reach media.
bool WriteBarriersForDurabilityMode(DurabilityMode mode);

}  // namespace durassd

#endif  // DURASSD_SSD_DEVICE_FACTORY_H_
