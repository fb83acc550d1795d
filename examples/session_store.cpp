// NoSQL scenario: a web session store on the Couchbase-style KvStore,
// tuning the batch-size knob (fsync frequency) that Table 5 sweeps.
// Shows the throughput/durability-window trade-off on a volatile device,
// and how DuraSSD collapses the trade-off (batch-size 1 is nearly free).
#include <cstdio>
#include <memory>
#include <string>

#include "db/io_context.h"
#include "host/sim_file.h"
#include "kv/kvstore.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

using namespace durassd;

namespace {

/// Runs one arm and returns true iff the crash lost exactly the updates of
/// the last, uncommitted batch.
bool RunOne(bool durable_cache, uint32_t batch) {
  SsdConfig dc = durable_cache ? SsdConfig::DuraSsd() : SsdConfig::SsdA();
  dc.geometry = FlashGeometry::Tiny();
  dc.geometry.blocks_per_plane = 192;
  dc.geometry.pages_per_block = 32;
  SsdDevice ssd(dc);
  SimFileSystem::Options fso;
  // Operators disable barriers only when the device earns it.
  fso.write_barriers = !durable_cache;
  SimFileSystem fs(&ssd, fso);

  IoContext io;
  KvStore::Options ko;
  ko.batch_size = batch;
  auto store = KvStore::Open(io, &fs, "sessions.couch", ko);
  if (!store.ok()) return false;

  // 2047 session updates (1KB JSON-ish documents).
  constexpr uint64_t kUpdates = 2047;
  const std::string doc(1024, 's');
  const SimTime start = io.now;
  for (uint64_t i = 0; i < kUpdates; ++i) {
    (*store)->Put(io, "session:" + std::to_string(i % 500), doc);
  }
  const double secs = static_cast<double>(io.now - start) / kSecond;

  // Crash without warning; count sessions whose last update survived.
  const uint64_t committed_seq = (*store)->committed_seq();
  store->reset();
  ssd.PowerCut(io.now);
  ssd.PowerOn();

  IoContext io2;
  auto reopened = KvStore::Open(io2, &fs, "sessions.couch", ko);
  const uint64_t recovered_seq =
      reopened.ok() ? (*reopened)->committed_seq() : 0;
  const uint64_t lost = committed_seq - recovered_seq;

  printf("  %-22s batch=%-4u %9.0f ops/s   window lost: %llu updates\n",
         durable_cache ? "DuraSSD, nobarrier" : "SSD-A, barriers on", batch,
         static_cast<double>(kUpdates) / secs,
         static_cast<unsigned long long>(lost));
  return reopened.ok() && lost == kUpdates % batch;
}

}  // namespace

int main() {
  printf("Session store: fsync batch size vs throughput vs durability\n");
  bool all_lost_their_tail = true;
  for (bool durable : {false, true}) {
    for (uint32_t batch : {1u, 10u, 100u}) {
      all_lost_their_tail &= RunOne(durable, batch);
    }
  }
  printf("\nOn the volatile device, throughput requires batching — and a "
         "crash\nloses the unbatched window. DuraSSD gives batch-size-1 "
         "durability at\nbatch-size-100 speed.\n");
  // Exit status: each arm loses exactly its uncommitted tail.
  return all_lost_their_tail ? 0 : 1;
}
