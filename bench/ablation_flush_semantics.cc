// Ablation for the paper's Sec. 3.3 future-work proposal: instead of
// asking operators to mount nobarrier, DuraSSD could implement FLUSH CACHE
// as an ordering-only command (no drain) — unmodified hosts with barriers
// ON then get nobarrier-class performance. Compares LinkBench TPS in the
// default MySQL configuration across the three flush semantics.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_json.h"
#include "db/database.h"
#include "host/sim_file.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"
#include "workloads/linkbench.h"

namespace durassd {
namespace {

BenchJson* g_json = nullptr;

double RunConfig(const char* label, bool barriers, SsdConfig::FlushMode mode,
                 uint64_t nodes, uint64_t requests) {
  SsdConfig dc = SsdConfig::DuraSsd();
  dc.flush_mode = mode;
  auto data_dev = std::make_unique<SsdDevice>(dc);
  auto log_dev = std::make_unique<SsdDevice>(dc);
  SimFileSystem::Options fso;
  fso.write_barriers = barriers;
  SimFileSystem data_fs(data_dev.get(), fso);
  SimFileSystem log_fs(log_dev.get(), fso);

  IoContext io;
  Database::Options dbo;
  dbo.pool_bytes = nodes / 14 * kKiB;
  dbo.double_write = true;  // MySQL default: host unmodified.
  auto db = Database::Open(io, &data_fs, &log_fs, dbo);
  if (!db.ok()) abort();

  LinkBench::Config lc;
  lc.num_nodes = nodes;
  lc.clients = 128;
  lc.requests = requests;
  LinkBench bench(db->get(), lc);
  if (!bench.Load(io).ok()) abort();
  auto result = bench.Run();
  if (!result.ok()) abort();
  g_json->CountFailedOps(result->failed_ops);
  const double tps = result->tps;
  if (g_json->enabled()) {
    BenchResult row(label);
    row.FailedOps(result->failed_ops)
        .Param("write_barriers", barriers)
        .Param("ordered_no_drain",
               mode == SsdConfig::FlushMode::kOrderedNoDrain)
        .Throughput(tps, "txn/s")
        .Engine(**db)
        .Device(*data_dev);
    g_json->Add(std::move(row));
  }
  return tps;
}

void Run(uint64_t nodes, uint64_t requests) {
  printf("Ablation: FLUSH CACHE semantics (LinkBench, MySQL-default host)\n");
  printf("  %-44s %10s\n", "configuration", "TPS");
  printf("  %-44s %10.0f\n", "barriers ON, full flush (commodity)",
         RunConfig("barrier_on_full_flush", true,
                   SsdConfig::FlushMode::kFullFlush, nodes, requests));
  printf("  %-44s %10.0f\n",
         "barriers ON, ordered no-drain flush (Sec 3.3)",
         RunConfig("barrier_on_ordered_no_drain", true,
                   SsdConfig::FlushMode::kOrderedNoDrain, nodes, requests));
  printf("  %-44s %10.0f\n", "barriers OFF (nobarrier deployment)",
         RunConfig("barrier_off", false, SsdConfig::FlushMode::kFullFlush,
                   nodes, requests));
}

}  // namespace
}  // namespace durassd

int main(int argc, char** argv) {
  uint64_t nodes = 100000;
  uint64_t requests = 40000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--quick") == 0) {
      quick = true;
      nodes = 40000;
      requests = 15000;
    }
  }
  durassd::BenchJson json("ablation_flush_semantics",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  json.Config("nodes", nodes).Config("requests", requests);
  durassd::g_json = &json;
  durassd::Run(nodes, requests);
  return json.Finish();
}
