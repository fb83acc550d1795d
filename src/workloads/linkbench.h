#ifndef DURASSD_WORKLOADS_LINKBENCH_H_
#define DURASSD_WORKLOADS_LINKBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"
#include "db/database.h"

namespace durassd {

/// The ten LinkBench operation types of the paper's Table 3.
enum class LinkOp {
  kGetNode = 0,
  kCountLink,
  kGetLinkList,
  kMultigetLink,
  kAddNode,
  kDeleteNode,
  kUpdateNode,
  kAddLink,
  kDeleteLink,
  kUpdateLink,
  kNumOps,
};

const char* LinkOpName(LinkOp op);

/// LinkBench-compatible social-graph workload over minibase (Sec. 4.3.1):
/// a node table and a link table, Facebook's default operation mix (~70%
/// reads / 30% writes), power-law (Zipfian) access skew. Each write is a
/// transaction with commit-time log sync.
class LinkBench {
 public:
  struct Config {
    uint64_t num_nodes = 100000;
    uint32_t avg_links_per_node = 4;
    uint32_t node_payload = 120;
    uint32_t link_payload = 96;
    double zipf_theta = 0.9;
    uint32_t clients = 128;
    uint64_t requests = 100000;
    uint64_t seed = 7;
  };

  struct Result {
    double tps = 0;
    SimTime duration = 0;
    uint64_t ops = 0;
    std::map<LinkOp, Histogram> latencies;
    double buffer_miss_ratio = 0;
    /// Operations that returned a non-OK status other than an expected
    /// NotFound. A correct run has none; the benches fail when any occur.
    uint64_t failed_ops = 0;
  };

  LinkBench(Database* db, Config config);

  /// Bulk-loads the graph and checkpoints.
  Status Load(IoContext& io);

  /// Runs `requests` operations across `clients` logical clients.
  StatusOr<Result> Run();

 private:
  SimTime RunOne(uint32_t client, SimTime now);
  LinkOp PickOp(Random& rng) const;
  uint64_t PickNode(Random& rng) const;

  Status DoGetNode(IoContext& io, Random& rng);
  Status DoCountLink(IoContext& io, Random& rng);
  Status DoGetLinkList(IoContext& io, Random& rng);
  Status DoMultigetLink(IoContext& io, Random& rng);
  Status DoAddNode(IoContext& io, Random& rng);
  Status DoDeleteNode(IoContext& io, Random& rng);
  Status DoUpdateNode(IoContext& io, Random& rng);
  Status DoAddLink(IoContext& io, Random& rng);
  Status DoDeleteLink(IoContext& io, Random& rng);
  Status DoUpdateLink(IoContext& io, Random& rng);

  Database* db_;
  Config cfg_;
  SimTime start_time_ = 0;
  uint32_t node_tree_ = 0;
  uint32_t link_tree_ = 0;
  uint64_t max_node_id_ = 0;
  ZipfianGenerator zipf_;
  std::vector<Random> rngs_;
  Result result_;
};

}  // namespace durassd

#endif  // DURASSD_WORKLOADS_LINKBENCH_H_
