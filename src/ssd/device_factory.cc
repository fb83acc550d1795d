#include "ssd/device_factory.h"

#include "ssd/hdd_device.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {

std::unique_ptr<BlockDevice> MakeDevice(DeviceModel model, bool cache_on) {
  if (model == DeviceModel::kHdd) {
    HddDevice::Config hc;
    hc.cache_enabled = cache_on;
    hc.store_data = false;
    return std::make_unique<HddDevice>(hc);
  }
  SsdConfig c;
  switch (model) {
    case DeviceModel::kSsdA:
      c = SsdConfig::SsdA();
      break;
    case DeviceModel::kSsdB:
      c = SsdConfig::SsdB();
      break;
    default:
      c = SsdConfig::DuraSsd();
      break;
  }
  c.cache_enabled = cache_on;
  c.store_data = false;
  return std::make_unique<SsdDevice>(c);
}

std::unique_ptr<BlockDevice> MakeDeviceForDurabilityMode(DurabilityMode mode) {
  return MakeDevice(mode == DurabilityMode::kVolatileFlush
                        ? DeviceModel::kSsdA
                        : DeviceModel::kDuraSsd,
                    /*cache_on=*/true);
}

bool WriteBarriersForDurabilityMode(DurabilityMode mode) {
  return mode != DurabilityMode::kDurableOrderedNcq;
}

}  // namespace durassd
