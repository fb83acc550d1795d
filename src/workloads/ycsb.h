#ifndef DURASSD_WORKLOADS_YCSB_H_
#define DURASSD_WORKLOADS_YCSB_H_

#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"
#include "kv/kvstore.h"

namespace durassd {

/// YCSB Workload-A (the only YCSB workload with writes — Sec. 4.3.3):
/// 1KB documents, Zipfian key popularity, a read/update mix, run against
/// the Couchbase-style KvStore. The paper's Table 5 varies the update
/// fraction (50% / 100%) and the store's batch-size (fsync frequency).
class Ycsb {
 public:
  struct Config {
    uint64_t records = 100000;
    uint32_t value_size = 1024;
    double update_fraction = 0.5;  ///< 0.5 = workload-A, 1.0 = update-only.
    uint64_t operations = 200000;
    uint32_t clients = 1;          ///< Paper: single benchmark thread.
    double zipf_theta = 0.99;
    uint64_t seed = 11;
  };

  struct Result {
    double ops_per_sec = 0;
    SimTime duration = 0;
    Histogram read_latency;
    Histogram update_latency;
    /// Operations that returned a non-OK status other than an expected
    /// NotFound. A correct run has none; the benches fail when any occur.
    uint64_t failed_ops = 0;
  };

  Ycsb(KvStore* store, Config config);

  /// Bulk-loads `records` documents and commits.
  Status Load(IoContext& io);
  StatusOr<Result> Run();

 private:
  SimTime RunOne(uint32_t client, SimTime now);

  KvStore* store_;
  Config cfg_;
  SimTime start_time_ = 0;
  ZipfianGenerator zipf_;
  std::vector<Random> rngs_;
  Result result_;
};

}  // namespace durassd

#endif  // DURASSD_WORKLOADS_YCSB_H_
