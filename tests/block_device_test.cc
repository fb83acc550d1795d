// The host-visible power and command contract that BlockDevice::Submit
// applies to every device model (DESIGN.md §7): scheduled cuts trip at
// service entry and guard completion causality, a tripped or guarded
// command fails DeviceOffline at the cut instant, an unpowered device
// rejects everything until PowerOn, invalid commands are rejected before
// they touch the device, and BARRIER is FLUSH on devices without epochs.
// A clean shutdown, like a cut, leaves the device idle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>

#include "host/block_device.h"
#include "ssd/hdd_device.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"
#include "tier/tiered_device.h"

namespace durassd {
namespace {

constexpr uint32_t kSs = 4 * kKiB;

std::string Sector(char fill, uint32_t n = 1) {
  return std::string(static_cast<size_t>(n) * kSs, fill);
}

enum class Model : uint32_t {
  kDuraSsd,
  kVolatileSsd,
  kCachedHdd,
  kUncachedHdd,
  kTiered,
};

/// gtest prints a parameter it has no printer for as its raw bytes, and
/// gtest_discover_tests puts those bytes into every ctest ID of the suite.
/// So a case is plain data with no padding: a name pointer or a
/// std::function would put load addresses into the IDs, which would then
/// differ from build to build. The size stays the 48 bytes the IDs were
/// first listed under.
struct DeviceCase {
  char name[40];
  Model model;
  bool epochs;  ///< supports_barrier(): BARRIER is its own command.
  uint8_t reserved[3] = {};  ///< Fills what would be padding.
};
static_assert(sizeof(DeviceCase) == 48, "the ctest IDs print 48 bytes");
static_assert(std::is_trivially_copyable_v<DeviceCase>);

HddDevice::Config SmallHdd(bool cache_on) {
  HddDevice::Config c;
  c.num_sectors = 1024;
  c.cache_enabled = cache_on;
  return c;
}

TieredConfig SmallTier() {
  TieredConfig tc;
  tc.flash = SsdConfig::Tiny(/*durable=*/true);
  tc.capacity_hdd = SmallHdd(/*cache_on=*/true);
  tc.flash_pct = 25.0;
  tc.destage_batch = 16;
  return tc;
}

std::unique_ptr<BlockDevice> MakeDevice(Model model) {
  switch (model) {
    case Model::kDuraSsd:
      return std::make_unique<SsdDevice>(SsdConfig::Tiny(true));
    case Model::kVolatileSsd:
      return std::make_unique<SsdDevice>(SsdConfig::Tiny(false));
    case Model::kCachedHdd:
      return std::make_unique<HddDevice>(SmallHdd(true));
    case Model::kUncachedHdd:
      return std::make_unique<HddDevice>(SmallHdd(false));
    case Model::kTiered:
      return MakeTieredDevice(SmallTier());
  }
  return nullptr;
}

const DeviceCase kCases[] = {
    {"DuraSsd", Model::kDuraSsd, true},
    {"VolatileSsdA", Model::kVolatileSsd, false},
    {"CachedHdd", Model::kCachedHdd, false},
    {"UncachedHdd", Model::kUncachedHdd, false},
    {"Tiered", Model::kTiered, false},
};

class PowerContractTest : public ::testing::TestWithParam<DeviceCase> {
 protected:
  std::unique_ptr<BlockDevice> Make() const {
    return MakeDevice(GetParam().model);
  }
};

TEST_P(PowerContractTest, TripAtOrAfterTheInstantFailsAtTheCut) {
  const SimTime cut = 10 * kMillisecond;
  for (const SimTime late : {SimTime{0}, 7 * kMicrosecond}) {
    SCOPED_TRACE("submitted " + std::to_string(late) + " ns after the cut");
    auto dev = Make();
    ASSERT_TRUE(dev->Write(0, 3, Sector('a')).status.ok());
    dev->SchedulePowerCut(cut);
    EXPECT_TRUE(dev->scheduled_cut_armed());
    const BlockDevice::Result w = dev->Write(cut + late, 4, Sector('x'));
    EXPECT_TRUE(w.status.IsDeviceOffline()) << w.status.ToString();
    EXPECT_EQ(w.done, cut);
    EXPECT_FALSE(dev->powered());
    EXPECT_FALSE(dev->scheduled_cut_armed());
    EXPECT_EQ(dev->scheduled_cuts_tripped(), 1u);

    dev->PowerOn();
    EXPECT_TRUE(dev->powered());
    std::string out;
    ASSERT_TRUE(dev->Read(0, 4, 1, &out).status.ok());
    EXPECT_EQ(out, Sector('\0'));  // The tripped write never executed.
    EXPECT_TRUE(dev->Write(0, 5, Sector('y')).status.ok());
  }
}

TEST_P(PowerContractTest, CompletionPastTheCutIsNeverAcknowledged) {
  // The same write on an unarmed twin gives its completion time; the armed
  // device's cut lands halfway through the command.
  const SimTime ack = Make()->Write(0, 7, Sector('g')).done;
  ASSERT_GT(ack, 1);
  const SimTime cut = ack / 2;
  auto dev = Make();
  dev->SchedulePowerCut(cut);
  const BlockDevice::Result w = dev->Write(0, 7, Sector('g'));
  EXPECT_TRUE(w.status.IsDeviceOffline()) << w.status.ToString();
  EXPECT_EQ(w.done, cut);
  EXPECT_FALSE(dev->powered());
  EXPECT_FALSE(dev->scheduled_cut_armed());
  EXPECT_EQ(dev->scheduled_cuts_tripped(), 1u);

  // Unacknowledged, so never readable whole: lost, rolled back or torn.
  dev->PowerOn();
  std::string out;
  ASSERT_TRUE(dev->Read(0, 7, 1, &out).status.ok());
  EXPECT_NE(out, Sector('g'));
}

TEST_P(PowerContractTest, CancelDisarms) {
  auto dev = Make();
  dev->SchedulePowerCut(1 * kMicrosecond);
  dev->CancelScheduledPowerCut();
  EXPECT_FALSE(dev->scheduled_cut_armed());
  EXPECT_TRUE(dev->Write(5 * kMillisecond, 0, Sector('c')).status.ok());
  EXPECT_TRUE(dev->powered());
  EXPECT_EQ(dev->scheduled_cuts_tripped(), 0u);
}

TEST_P(PowerContractTest, ManualCutDisarmsAndRejectsUntilPowerOn) {
  auto dev = Make();
  const SimTime t0 = dev->Write(0, 2, Sector('m')).done;
  dev->SchedulePowerCut(t0 + kSecond);
  dev->PowerCut(t0);
  EXPECT_FALSE(dev->scheduled_cut_armed());
  EXPECT_FALSE(dev->powered());
  // A cut on a device that is already off disarms too.
  dev->SchedulePowerCut(t0 + kSecond);
  dev->PowerCut(t0 + 1);
  EXPECT_FALSE(dev->scheduled_cut_armed());

  // Offline: every command fails at its own submission time, and nothing
  // trips (the cut is disarmed).
  const SimTime t = t0 + 2 * kSecond;
  std::string out;
  const BlockDevice::Result r[] = {dev->Write(t, 2, Sector('n')),
                                   dev->Read(t, 2, 1, &out),
                                   dev->Flush(t), dev->Barrier(t)};
  for (const BlockDevice::Result& res : r) {
    EXPECT_TRUE(res.status.IsDeviceOffline()) << res.status.ToString();
    EXPECT_EQ(res.done, t);
  }
  EXPECT_EQ(dev->scheduled_cuts_tripped(), 0u);

  dev->PowerOn();
  EXPECT_TRUE(dev->powered());
  EXPECT_TRUE(dev->Write(0, 2, Sector('o')).status.ok());
  EXPECT_TRUE(dev->Flush(0).status.ok());
}

TEST_P(PowerContractTest, InvalidCommandsAreRejectedBeforeTheDevice) {
  // Twin devices run the same valid history; one also receives invalid
  // commands once writes are dirty and the host has gone idle. Each is
  // rejected with its message at its submission time, and the twins stay
  // indistinguishable afterwards.
  auto plain = Make();
  auto probed = Make();
  SimTime t = 0;
  for (Lpn l = 0; l < 8; ++l) {
    const BlockDevice::Result a = plain->Write(t, l, Sector('p'));
    const BlockDevice::Result b = probed->Write(t, l, Sector('p'));
    ASSERT_TRUE(a.status.ok());
    ASSERT_EQ(a.done, b.done);
    t = a.done;
  }
  t += 10 * kMillisecond;
  const uint64_t n = probed->num_sectors();
  struct Bad {
    BlockDevice::Command cmd;
    const char* message;
  };
  const std::string short_write(kSs - 1, 's');
  const std::string two = Sector('w', 2);
  const Bad bad[] = {
      {BlockDevice::Command::MakeWrite(0, short_write),
       "write size not sector-aligned"},
      {BlockDevice::Command::MakeWrite(0, Slice()),
       "write size not sector-aligned"},
      {BlockDevice::Command::MakeWrite(n - 1, two),
       "write beyond device capacity"},
      {BlockDevice::Command::MakeWrite(~0ull, two),
       "write beyond device capacity"},
      {BlockDevice::Command::MakeRead(0, 0, nullptr),
       "read beyond device capacity"},
      {BlockDevice::Command::MakeRead(n - 1, 2, nullptr),
       "read beyond device capacity"},
  };
  for (const Bad& b : bad) {
    const BlockDevice::Result c = probed->Submit(t, b.cmd);
    EXPECT_EQ(c.status.code(), StatusCode::kInvalidArgument) << b.message;
    EXPECT_EQ(c.status.message(), b.message);
    EXPECT_EQ(c.done, t);
  }

  std::string out_plain, out_probed;
  const BlockDevice::Result w1 = plain->Write(t, 9, Sector('q'));
  const BlockDevice::Result w2 = probed->Write(t, 9, Sector('q'));
  EXPECT_EQ(w1.done, w2.done);
  const BlockDevice::Result r1 = plain->Read(w1.done, 0, 10, &out_plain);
  const BlockDevice::Result r2 = probed->Read(w2.done, 0, 10, &out_probed);
  EXPECT_EQ(r1.done, r2.done);
  EXPECT_EQ(out_plain, out_probed);
  EXPECT_EQ(plain->Flush(r1.done).done, probed->Flush(r2.done).done);
}

TEST_P(PowerContractTest, BarrierWithoutEpochsIsFlush) {
  auto flushed = Make();
  auto barriered = Make();
  EXPECT_EQ(barriered->supports_barrier(), GetParam().epochs);
  const SimTime t = flushed->Write(0, 1, Sector('b', 4)).done;
  ASSERT_EQ(barriered->Write(0, 1, Sector('b', 4)).done, t);
  const BlockDevice::Result f = flushed->Flush(t);
  const BlockDevice::Result b = barriered->Barrier(t);
  ASSERT_TRUE(f.status.ok());
  ASSERT_TRUE(b.status.ok());
  if (GetParam().epochs) {
    // A native barrier seals an epoch without draining the cache.
    EXPECT_LT(b.done, f.done);
    return;
  }
  EXPECT_EQ(b.done, f.done);
  // And the device is left in the same state as after the FLUSH.
  std::string out_f, out_b;
  const BlockDevice::Result w1 = flushed->Write(f.done, 6, Sector('c'));
  const BlockDevice::Result w2 = barriered->Write(b.done, 6, Sector('c'));
  EXPECT_EQ(w1.done, w2.done);
  EXPECT_EQ(flushed->Flush(w1.done).done, barriered->Flush(w2.done).done);
  flushed->PowerCut(w1.done + kSecond);
  barriered->PowerCut(w2.done + kSecond);
  flushed->PowerOn();
  barriered->PowerOn();
  ASSERT_TRUE(flushed->Read(0, 1, 6, &out_f).status.ok());
  ASSERT_TRUE(barriered->Read(0, 1, 6, &out_b).status.ok());
  EXPECT_EQ(out_f, out_b);
}

INSTANTIATE_TEST_SUITE_P(
    AllDevices, PowerContractTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<DeviceCase>& info) {
      return std::string(info.param.name);
    });

// A clean shutdown ends the power session as a power cut does. PowerOn
// restarts the device clock at zero, so completion times or media
// reservations left over from the previous power cycle would make the
// first commands after the reboot wait behind work that no longer exists.

/// Four one-sector writes at time 0, a clean shutdown at the last
/// completion, then PowerOn. Returns the instant the reboot completes.
template <typename Device>
SimTime FillThenCleanReboot(Device& dev) {
  SimTime last = 0;
  for (Lpn l = 0; l < 4; ++l) {
    const BlockDevice::Result r = dev.Write(0, l, Sector('s'));
    EXPECT_TRUE(r.status.ok());
    last = std::max(last, r.done);
  }
  EXPECT_TRUE(dev.Shutdown(last).ok());
  return dev.PowerOn();
}

/// `qd` returns the "ssd.qd" histogram that the device's writes land in;
/// one host write on an idle device records `expected_qd` there.
template <typename Device>
void ExpectCleanRebootStartsIdle(
    const std::function<std::unique_ptr<Device>()>& make,
    const std::function<Histogram*(Device&)>& qd, int64_t expected_qd) {
  // On a depth-1 queue the first write after the reboot neither stalls
  // nor completes later than the same write on a fresh device.
  auto limited = make();
  limited->set_queue_depth_limit(1);
  const SimTime boot = FillThenCleanReboot(*limited);
  const uint64_t stalls = limited->submit_stalls();
  const BlockDevice::Result got = limited->Write(boot, 9, Sector('r'));
  ASSERT_TRUE(got.status.ok());
  auto fresh = make();
  fresh->set_queue_depth_limit(1);
  const BlockDevice::Result want = fresh->Write(boot, 9, Sector('r'));
  ASSERT_TRUE(want.status.ok());
  EXPECT_EQ(got.done, want.done);
  EXPECT_EQ(limited->submit_stalls(), stalls);

  // Without a limit, it finds nothing from before the reboot in flight:
  // the deepest queue it records is a fresh device's.
  auto unlimited = make();
  const SimTime boot2 = FillThenCleanReboot(*unlimited);
  Histogram* h = qd(*unlimited);
  h->Reset();
  ASSERT_TRUE(unlimited->Write(boot2, 9, Sector('r')).status.ok());
  EXPECT_EQ(h->max(), expected_qd);
  auto fresh_unlimited = make();
  ASSERT_TRUE(fresh_unlimited->Write(boot2, 9, Sector('r')).status.ok());
  EXPECT_EQ(qd(*fresh_unlimited)->max(), expected_qd);

  // Nor do the media still hold reservations from before the shutdown:
  // reading back a sector at the boot instant takes as long as it does
  // ten seconds later.
  auto at_boot = make();
  const SimTime t1 = FillThenCleanReboot(*at_boot);
  auto later = make();
  const SimTime t2 = FillThenCleanReboot(*later) + 10 * kSecond;
  std::string out1, out2;
  const BlockDevice::Result r1 = at_boot->Read(t1, 2, 1, &out1);
  const BlockDevice::Result r2 = later->Read(t2, 2, 1, &out2);
  ASSERT_TRUE(r1.status.ok());
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(out1, Sector('s'));
  EXPECT_EQ(r1.done - t1, r2.done - t2);
}

TEST(CleanShutdown, SsdRebootStartsIdle) {
  ExpectCleanRebootStartsIdle<SsdDevice>(
      [] { return std::make_unique<SsdDevice>(SsdConfig::Tiny(true)); },
      [](SsdDevice& d) { return d.metrics().GetHistogram("ssd.qd"); }, 1);
}

TEST(CleanShutdown, TieredRebootStartsIdle) {
  ExpectCleanRebootStartsIdle<TieredDevice>(
      [] { return MakeTieredDevice(SmallTier()); },
      [](TieredDevice& d) {
        return d.flash_tier().metrics().GetHistogram("ssd.qd");
      },
      // The tier issues a write's data and its journal delta together.
      2);
}

}  // namespace
}  // namespace durassd
