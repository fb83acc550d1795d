// google-benchmark microbenchmarks for the hot paths of the library itself
// (wall-clock cost of the simulator, not virtual-time results): device
// read/write dispatch, device cache insert, FTL programs and GC, B+-tree
// operations, CRC, histogram, kvstore puts. scripts/bench_compare.py fails a row that takes
// more than three times its baseline time.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/histogram.h"
#include "common/random.h"
#include "db/btree.h"
#include "db/buffer_pool.h"
#include "db/wal.h"
#include "flash/flash_array.h"
#include "flash/sector_store.h"
#include "host/sim_file.h"
#include "kv/kvstore.h"
#include "ssd/ftl.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

void BM_Crc32c4K(benchmark::State& state) {
  std::string data(4096, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Crc32c4K);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Random rng(1);
  for (auto _ : state) {
    h.Record(static_cast<SimTime>(rng.Uniform(100 * kMillisecond)));
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_ZipfianNext(benchmark::State& state) {
  Random rng(2);
  ZipfianGenerator zipf(1000000, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.NextScrambled(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

void BM_SsdCachedWrite(benchmark::State& state) {
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.store_data = false;
  SsdDevice dev(cfg);
  const std::string data(4096, 'w');
  Random rng(3);
  SimTime t = 0;
  for (auto _ : state) {
    const auto r = dev.Write(t, rng.Uniform(dev.num_sectors()), data);
    t = r.done;
  }
}
BENCHMARK(BM_SsdCachedWrite);

void BM_SsdRead(benchmark::State& state) {
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.store_data = false;
  SsdDevice dev(cfg);
  const std::string data(4096, 'r');
  SimTime t = 0;
  for (Lpn l = 0; l < 4096; ++l) t = dev.Write(t, l, data).done;
  Random rng(4);
  for (auto _ : state) {
    const auto r = dev.Read(t, rng.Uniform(4096), 1, nullptr);
    t = r.done;
  }
}
BENCHMARK(BM_SsdRead);

// Single-sector FTL programs at random LPNs in GC steady state, with no
// FLUSH: thousands of mapping entries stay unpersisted, and every GC erase
// must force-persist the ones whose rollback target it reclaims.
void BM_FtlGcUnpersistedMap(benchmark::State& state) {
  FlashGeometry g = FlashGeometry::Tiny();
  g.blocks_per_plane = 256;
  g.pages_per_block = 32;
  FlashArray flash(FlashArray::Options{g});
  Ftl ftl(&flash, Ftl::Options{.over_provision = 0.25,
                               .dump_blocks_per_plane = 2});
  const uint64_t n = ftl.logical_sectors() / 2;
  SimTime t = 0;
  SimTime start = 0;
  auto program = [&](Lpn lpn) {
    const std::vector<Ftl::SectorWrite> w{{lpn, SectorStore::kZeroFrame}};
    if (!ftl.ProgramSectors(t, w, &start, &t).ok()) std::abort();
  };
  for (Lpn l = 0; l < n; ++l) program(l);
  ftl.PersistMapping();
  Random rng(10);
  for (uint64_t i = 0; i < 2 * n; ++i) program(rng.Uniform(n));
  state.counters["dirty_map_entries"] =
      static_cast<double>(ftl.dirty_mapping_entries());
  const uint64_t gc_before = ftl.stats().gc_runs;
  for (auto _ : state) program(rng.Uniform(n));
  state.counters["gc_runs"] =
      static_cast<double>(ftl.stats().gc_runs - gc_before);
}
BENCHMARK(BM_FtlGcUnpersistedMap);

// The cache's byte path, which BM_SsdCachedWrite skips (it runs timing-only):
// 4 KB DuraSSD writes at random LPNs into a full 1,024-sector cache of
// stored payloads on a small device in GC steady state, so each write evicts
// a clean entry and the drains program pages from the cached bytes.
void BM_SsdCachedWriteStored(benchmark::State& state) {
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.store_data = true;
  cfg.geometry.channels = 4;
  cfg.geometry.packages_per_channel = 1;
  cfg.geometry.chips_per_package = 2;
  cfg.geometry.planes_per_chip = 2;
  cfg.geometry.blocks_per_plane = 32;
  cfg.geometry.pages_per_block = 32;  // 128 MiB raw.
  cfg.cache_capacity_sectors = 1024;
  SsdDevice dev(cfg);
  const uint64_t n = dev.num_sectors() / 2;
  std::string data(4096, 's');
  SimTime t = 0;
  for (Lpn l = 0; l < n; ++l) t = dev.Write(t, l, data).done;
  Random rng(13);
  for (auto _ : state) {
    data[0]++;
    const auto r = dev.Write(t, rng.Uniform(n), data);
    if (!r.status.ok()) std::abort();
    t = r.done;
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_SsdCachedWriteStored);

// The read side of the byte path the timing-only rows skip: a
// DuraSSD 4 KB write into the device cache plus a random 4 KB read that
// mostly misses the cache and reads through the FTL from stored NAND pages,
// on a small device kept in GC steady state.
void BM_SsdStoredWriteMissRead(benchmark::State& state) {
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.store_data = true;
  cfg.geometry.channels = 4;
  cfg.geometry.packages_per_channel = 1;
  cfg.geometry.chips_per_package = 2;
  cfg.geometry.planes_per_chip = 2;
  cfg.geometry.blocks_per_plane = 32;
  cfg.geometry.pages_per_block = 32;  // 128 MiB raw.
  cfg.cache_capacity_sectors = 1024;
  SsdDevice dev(cfg);
  const uint64_t n = dev.num_sectors() / 2;
  std::string data(4096, 'w');
  SimTime t = 0;
  for (Lpn l = 0; l < n; ++l) t = dev.Write(t, l, data).done;
  Random rng(11);
  std::string out;
  const uint64_t misses_before = dev.stats().cache_read_misses;
  for (auto _ : state) {
    data[0]++;
    t = dev.Write(t, rng.Uniform(n), data).done;
    const auto r = dev.Read(t, rng.Uniform(n), 1, &out);
    if (!r.status.ok()) std::abort();
    t = r.done;
  }
  state.counters["read_miss_ratio"] =
      static_cast<double>(dev.stats().cache_read_misses - misses_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_SsdStoredWriteMissRead);

// One-sector FTL programs with stored bytes at random LPNs in GC steady
// state: each program puts its sector into a store frame that the NAND page
// references, and each GC run moves live sectors' frame ids page to page.
// The mapping is persisted after every program, so this row measures the
// byte path rather than the delta index.
void BM_FtlGcStoredBytes(benchmark::State& state) {
  FlashGeometry g = FlashGeometry::Tiny();
  g.blocks_per_plane = 64;
  g.pages_per_block = 32;  // 64 MiB raw.
  FlashArray flash(FlashArray::Options{g});
  Ftl ftl(&flash, Ftl::Options{.over_provision = 0.25,
                               .dump_blocks_per_plane = 2});
  const uint64_t n = ftl.logical_sectors() / 2;
  std::string data(4096, 'g');
  SimTime t = 0;
  SimTime start = 0;
  auto program = [&](Lpn lpn) {
    data[0]++;
    const std::vector<Ftl::SectorWrite> w{{lpn, flash.store().Put(data)}};
    if (!ftl.ProgramSectors(t, w, &start, &t).ok()) std::abort();
    flash.store().Release(w[0].frame);
    ftl.PersistMapping();
  };
  for (Lpn l = 0; l < n; ++l) program(l);
  Random rng(12);
  for (uint64_t i = 0; i < 2 * n; ++i) program(rng.Uniform(n));
  const uint64_t gc_before = ftl.stats().gc_runs;
  for (auto _ : state) program(rng.Uniform(n));
  state.counters["gc_runs"] =
      static_cast<double>(ftl.stats().gc_runs - gc_before);
}
BENCHMARK(BM_FtlGcStoredBytes);

// Put and release of a 4 KB sector holding `prefix` random bytes (the last
// one non-zero, one of the others changed each time), then zeros. Frames
// recycle through the free list, so in steady state this is the class
// lookup and one frame-sized copy. The sector sits 1 KB into a
// page-aligned buffer, so every build and run copies from the same page
// offset; a source at a page start would alias the page-aligned 4 KB
// frames and time that instead of the store.
void SectorStorePut(benchmark::State& state, size_t prefix, uint64_t seed) {
  std::unique_ptr<char, decltype(&std::free)> buf(
      static_cast<char*>(std::aligned_alloc(4096, 2 * 4096)), &std::free);
  if (buf == nullptr) std::abort();
  char* const src = buf.get() + 1024;
  std::memset(src, 0, 4096);
  Random rng(seed);
  for (size_t i = 0; i < prefix; ++i) {
    src[i] = static_cast<char>(rng.Uniform(256));
  }
  src[prefix - 1] = 'p';
  SectorStore store(4 * kKiB);
  for (auto _ : state) {
    src[rng.Uniform(prefix - 1)]++;
    const SectorStore::Frame frame = store.Put(Slice(src, 4096));
    benchmark::DoNotOptimize(frame);
    store.Release(frame);
  }
  state.SetBytesProcessed(state.iterations() * 4096);
}

// The device cache insert of a sector that ends in data: one last-word
// check and one 4 KB copy.
void BM_SectorStorePut(benchmark::State& state) {
  SectorStorePut(state, 4096, 14);
}
BENCHMARK(BM_SectorStorePut);

// The sector kvstore pads each commit with: a header block whose 44 bytes
// of data are followed by zeros. The store keeps a 64-byte frame, after
// halving the zero tail down to it.
void BM_SectorStorePutHeader(benchmark::State& state) {
  SectorStorePut(state, 44, 15);
}
BENCHMARK(BM_SectorStorePutHeader);

// A 2,100-byte prefix: halving stops at 2 KB, and two compares at the
// eighth-sector class boundaries above it settle the 2.5 KB class.
void BM_SectorStorePutMid(benchmark::State& state) {
  SectorStorePut(state, 2100, 16);
}
BENCHMARK(BM_SectorStorePutMid);

class BTreeFixture : public benchmark::Fixture {
 public:
  class Bump : public PageAllocator {
   public:
    StatusOr<PageId> AllocatePage(IoContext&) override { return next_++; }
    PageId next_ = 1;
  };

  void SetUp(const benchmark::State&) override {
    SsdConfig cfg = SsdConfig::DuraSsd();
    cfg.store_data = true;
    dev = std::make_unique<SsdDevice>(cfg);
    fs = std::make_unique<SimFileSystem>(dev.get(), SimFileSystem::Options{});
    wal = std::make_unique<Wal>(fs->Open("wal"), Wal::Options{});
    pool = std::make_unique<BufferPool>(
        fs->Open("data"), wal.get(), nullptr,
        BufferPool::Options{64 * kMiB, 4096, false});
    MutationCtx m{0, 0, nullptr};
    auto root = BTree::Create(io, pool.get(), &alloc, m);
    tree = std::make_unique<BTree>(pool.get(), &alloc, *root);
    Random rng(5);
    for (int i = 0; i < 100000; ++i) {
      tree->Put(io, m, "key" + std::to_string(i), "value-payload-000");
    }
  }
  void TearDown(const benchmark::State&) override {
    tree.reset();
    pool.reset();
    wal.reset();
    fs.reset();
    dev.reset();
  }

  IoContext io;
  Bump alloc;
  std::unique_ptr<SsdDevice> dev;
  std::unique_ptr<SimFileSystem> fs;
  std::unique_ptr<Wal> wal;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<BTree> tree;
};

BENCHMARK_F(BTreeFixture, Get)(benchmark::State& state) {
  Random rng(6);
  std::string v;
  for (auto _ : state) {
    tree->Get(io, "key" + std::to_string(rng.Uniform(100000)), &v);
  }
}

BENCHMARK_F(BTreeFixture, Put)(benchmark::State& state) {
  Random rng(7);
  MutationCtx m{0, 0, nullptr};
  for (auto _ : state) {
    tree->Put(io, m, "key" + std::to_string(rng.Uniform(100000)),
              "value-payload-001");
  }
}

void BM_KvStorePut(benchmark::State& state) {
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.store_data = true;
  SsdDevice dev(cfg);
  SimFileSystem fs(&dev, SimFileSystem::Options{});
  IoContext io;
  KvStore::Options ko;
  ko.batch_size = 100;
  auto store = KvStore::Open(io, &fs, "b.couch", ko);
  const std::string value(1024, 'v');
  Random rng(8);
  for (auto _ : state) {
    (*store)->Put(io, "user" + std::to_string(rng.Uniform(100000)), value);
  }
}
BENCHMARK(BM_KvStorePut);

}  // namespace
}  // namespace durassd

// Custom main instead of BENCHMARK_MAIN(): translate the repo-wide bench
// flags (--json <path>, --quick) into google-benchmark's own flags so
// run_benches.sh can drive every binary with the same command line.
// google-benchmark already emits machine-readable JSON; no BenchJson here.
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::string out_flag;
  std::string fmt_flag = "--benchmark_out_format=json";
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      out_flag = std::string("--benchmark_out=") + argv[i + 1];
      ++i;
    } else if (strncmp(argv[i], "--json=", 7) == 0) {
      out_flag = std::string("--benchmark_out=") + (argv[i] + 7);
    } else if (strcmp(argv[i], "--quick") == 0) {
      // Wall-clock microbenchmarks are already short; nothing to trim.
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
