// Reproduces Table 5: Couchbase-style (KvStore) throughput for YCSB,
// batch-size {1, 2, 5, 10, 100} x write barriers {on, off} x update
// fraction {100%, 50%}, single benchmark thread, 1KB documents.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_json.h"
#include "host/sim_file.h"
#include "kv/kvstore.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"
#include "workloads/ycsb.h"

namespace durassd {
namespace {

BenchJson* g_json = nullptr;

double RunConfig(bool barriers, uint32_t batch, double update_fraction,
                 uint64_t records, uint64_t operations) {
  SsdConfig dc = SsdConfig::DuraSsd();
  dc.store_data = true;
  SsdDevice device(dc);
  SimFileSystem::Options fso;
  fso.write_barriers = barriers;
  SimFileSystem fs(&device, fso);

  IoContext io;
  KvStore::Options ko;
  ko.batch_size = batch;
  auto store = KvStore::Open(io, &fs, "bucket.couch", ko);
  if (!store.ok()) abort();

  Ycsb::Config yc;
  yc.records = records;
  yc.operations = operations;
  yc.update_fraction = update_fraction;
  yc.clients = 1;  // Single thread, like the paper.
  Ycsb bench(store->get(), yc);
  if (!bench.Load(io).ok()) abort();
  auto result = bench.Run();
  if (!result.ok()) abort();
  g_json->CountFailedOps(result->failed_ops);
  if (g_json->enabled()) {
    BenchResult row(std::string(barriers ? "barrier_on" : "barrier_off") +
                    "/update=" + std::to_string(update_fraction) +
                    "/batch=" + std::to_string(batch));
    row.FailedOps(result->failed_ops)
        .Param("write_barriers", barriers)
        .Param("batch_size", static_cast<uint64_t>(batch))
        .Param("update_fraction", update_fraction)
        .Throughput(result->ops_per_sec, "ops/s")
        .LatencyNs(result->update_latency)
        .Engine(**store)
        .Device(device);
    g_json->Add(std::move(row));
  }
  return result->ops_per_sec;
}

void RunTable(uint64_t records, uint64_t operations) {
  const uint32_t kBatches[] = {1, 2, 5, 10, 100};
  printf("Table 5: Couchbase-style YCSB throughput (ops/s)\n");
  for (bool barriers : {true, false}) {
    printf(" (%s) with write barriers %s\n", barriers ? "a" : "b",
           barriers ? "on" : "off");
    printf("  %-12s", "batch-size:");
    for (uint32_t b : kBatches) printf(" %8u", b);
    printf("\n");
    for (double update : {1.0, 0.5}) {
      printf("  Update %3.0f%%", update * 100);
      for (uint32_t b : kBatches) {
        printf(" %8.0f", RunConfig(barriers, b, update, records, operations));
        fflush(stdout);
      }
      printf("\n");
    }
  }
}

}  // namespace
}  // namespace durassd

int main(int argc, char** argv) {
  uint64_t records = 50000;
  uint64_t operations = 50000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--quick") == 0) {
      quick = true;
      records = 20000;
      operations = 15000;
    }
  }
  durassd::BenchJson json("table5_couchbase",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  json.Config("records", records).Config("operations", operations);
  durassd::g_json = &json;
  durassd::RunTable(records, operations);
  return json.Finish();
}
