// Reproduces Table 4: TPC-C throughput (tpmC) with write barriers on/off
// across page sizes {16, 8, 4 KB}, on a commercial-RDBMS-style engine that
// requests a barrier for every page write (O_DSYNC semantics, Sec. 4.3.2).
// The paper's buffer was 2GB against a ~100GB database (1:50); the harness
// keeps a similarly tight ratio at simulator scale.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_json.h"
#include "bench/db_bench_util.h"
#include "workloads/tpcc.h"

namespace durassd {
namespace {

BenchJson* g_json = nullptr;

double RunConfig(bool barriers, uint32_t page_size, const Tpcc::Config& tc,
                 uint64_t pool_bytes) {
  DbRigConfig rc;
  rc.write_barriers = barriers;
  rc.double_write = false;  // The commercial server relies on O_DSYNC.
  rc.page_size = page_size;
  rc.pool_bytes = pool_bytes;
  // O_DSYNC: a write barrier for every page write (when barriers are on,
  // each write is followed by a real FLUSH CACHE; with barriers off the
  // fsync is nearly free — exactly the knob Table 4 flips).
  rc.sync_every_page_write = true;
  DbRig rig = MakeDbRig(rc);

  Tpcc bench(rig.db.get(), tc);
  if (!bench.Load(rig.io).ok()) abort();
  auto result = bench.Run();
  if (!result.ok()) abort();
  g_json->CountFailedOps(result->failed_ops);
  if (g_json->enabled()) {
    BenchResult row(std::string(barriers ? "barrier_on" : "barrier_off") +
                    "/page=" + std::to_string(page_size / kKiB) + "KB");
    row.FailedOps(result->failed_ops)
        .Param("write_barriers", barriers)
        .Param("page_size", static_cast<uint64_t>(page_size))
        .Throughput(result->tpmc, "tpmC")
        .Engine(*rig.db)
        .Device(*rig.data_dev);
    g_json->Add(std::move(row));
  }
  return result->tpmc;
}

void RunTable(const Tpcc::Config& tc, uint64_t pool_bytes) {
  printf("Table 4: TPC-C throughput (tpmC)\n");
  printf("  %-12s %10s %10s %10s\n", "", "16KB", "8KB", "4KB");
  const uint32_t sizes[] = {16 * kKiB, 8 * kKiB, 4 * kKiB};
  printf("  %-12s", "Barrier On");
  for (uint32_t ps : sizes) {
    printf(" %10.0f", RunConfig(true, ps, tc, pool_bytes));
    fflush(stdout);
  }
  printf("\n  %-12s", "Barrier Off");
  for (uint32_t ps : sizes) {
    printf(" %10.0f", RunConfig(false, ps, tc, pool_bytes));
    fflush(stdout);
  }
  printf("\n");
}

}  // namespace
}  // namespace durassd

int main(int argc, char** argv) {
  durassd::Tpcc::Config tc;
  tc.warehouses = 8;
  tc.items = 10000;
  tc.customers_per_district = 300;
  tc.clients = 64;
  tc.transactions = 30000;
  uint64_t pool = 3 * durassd::kMiB;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--quick") == 0) {
      quick = true;
      tc.warehouses = 4;
      tc.items = 5000;
      tc.transactions = 8000;
      pool = 2 * durassd::kMiB;
    }
  }
  durassd::BenchJson json("table4_tpcc",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  json.Config("warehouses", static_cast<uint64_t>(tc.warehouses))
      .Config("transactions", tc.transactions)
      .Config("pool_bytes", pool);
  durassd::g_json = &json;
  durassd::RunTable(tc, pool);
  return json.Finish();
}
