// Reproduces Table 3: distribution of LinkBench transaction latency
// (mean/P25/P50/P75/P99/max, in ms) for the ten operation types, comparing
// the MySQL default configuration (ON/ON, 16KB pages) against the best
// DuraSSD configuration (OFF/OFF, 4KB pages).
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_json.h"
#include "bench/db_bench_util.h"
#include "workloads/linkbench.h"

namespace durassd {
namespace {

BenchJson* g_json = nullptr;

void RunConfig(const char* title, const char* label, bool barriers, bool dwb,
               uint32_t page_size, uint64_t nodes, uint64_t requests) {
  DbRigConfig rc;
  rc.write_barriers = barriers;
  rc.double_write = dwb;
  rc.page_size = page_size;
  rc.pool_bytes = nodes / 14 * kKiB;
  DbRig rig = MakeDbRig(rc);

  LinkBench::Config lc;
  lc.num_nodes = nodes;
  lc.clients = 128;
  lc.requests = requests;
  LinkBench bench(rig.db.get(), lc);
  if (!bench.Load(rig.io).ok()) abort();
  auto result = bench.Run();
  if (!result.ok()) abort();
  g_json->CountFailedOps(result->failed_ops);

  printf("%s (TPS %.0f)\n", title, result->tps);
  printf("  %-14s %8s %8s %8s %8s %8s %8s\n", "op", "mean", "p25", "p50",
         "p75", "p99", "max");
  for (int op = 0; op < static_cast<int>(LinkOp::kNumOps); ++op) {
    const LinkOp o = static_cast<LinkOp>(op);
    auto it = result->latencies.find(o);
    if (it == result->latencies.end()) continue;
    printf("  %-14s %s\n", LinkOpName(o), it->second.SummaryMillis().c_str());
    if (g_json->enabled()) {
      BenchResult row(std::string(label) + "/" + LinkOpName(o));
      row.FailedOps(result->failed_ops)
          .Param("config", label)
          .Param("op", LinkOpName(o))
          .Param("write_barriers", barriers)
          .Param("double_write", dwb)
          .Param("page_size", static_cast<uint64_t>(page_size))
          .Throughput(result->tps, "txn/s")
          .LatencyNs(it->second);
      g_json->Add(std::move(row));
    }
  }
}

}  // namespace
}  // namespace durassd

int main(int argc, char** argv) {
  uint64_t nodes = 100000;
  uint64_t requests = 60000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--quick") == 0) {
      quick = true;
      nodes = 40000;
      requests = 20000;
    }
  }
  durassd::BenchJson json("table3_latency",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  json.Config("nodes", nodes).Config("requests", requests);
  durassd::g_json = &json;
  printf("Table 3: LinkBench latency distribution (ms)\n");
  durassd::RunConfig(" ON/ON with 16KB pages (MySQL default)", "on_on_16k",
                     true, true, 16 * durassd::kKiB, nodes, requests);
  durassd::RunConfig(" OFF/OFF with 4KB pages (DuraSSD best)", "off_off_4k",
                     false, false, 4 * durassd::kKiB, nodes, requests);
  return json.Finish();
}
