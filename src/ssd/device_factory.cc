#include "ssd/device_factory.h"

#include "ssd/hdd_device.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {

std::unique_ptr<BlockDevice> MakeDevice(DeviceModel model, bool cache_on,
                                        bool store_data) {
  if (model == DeviceModel::kHdd) {
    return std::make_unique<HddDevice>(HddConfigForModel(cache_on, store_data));
  }
  return std::make_unique<SsdDevice>(
      SsdConfigForModel(model, cache_on, store_data));
}

HddDevice::Config HddConfigForModel(bool cache_on, bool store_data) {
  HddDevice::Config hc;
  hc.cache_enabled = cache_on;
  hc.store_data = store_data;
  return hc;
}

SsdConfig SsdConfigForModel(DeviceModel model, bool cache_on,
                            bool store_data) {
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
  c.store_data = store_data;
  return c;
}

std::unique_ptr<BlockDevice> MakeDeviceForDurabilityMode(DurabilityMode mode,
                                                         bool store_data) {
  return MakeDevice(mode == DurabilityMode::kVolatileFlush
                        ? DeviceModel::kSsdA
                        : DeviceModel::kDuraSsd,
                    /*cache_on=*/true, store_data);
}

bool WriteBarriersForDurabilityMode(DurabilityMode mode) {
  return mode != DurabilityMode::kDurableOrderedNcq;
}

}  // namespace durassd
