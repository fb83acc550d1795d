#include "workloads/linkbench.h"

#include <algorithm>

#include "common/random.h"
#include "sim/sim_executor.h"
#include "workloads/keys.h"

namespace durassd {

namespace {

// Facebook's published LinkBench operation mix (percent), giving the
// paper's ~70/30 read/write split.
struct MixEntry {
  LinkOp op;
  double percent;
};
constexpr MixEntry kMix[] = {
    {LinkOp::kGetNode, 12.9},  {LinkOp::kCountLink, 4.9},
    {LinkOp::kGetLinkList, 51.2}, {LinkOp::kMultigetLink, 0.5},
    {LinkOp::kAddNode, 2.6},   {LinkOp::kDeleteNode, 1.0},
    {LinkOp::kUpdateNode, 7.4}, {LinkOp::kAddLink, 9.0},
    {LinkOp::kDeleteLink, 3.0}, {LinkOp::kUpdateLink, 7.5},
};

constexpr uint32_t kLinkTypes = 3;

}  // namespace

const char* LinkOpName(LinkOp op) {
  switch (op) {
    case LinkOp::kGetNode:
      return "Get Node";
    case LinkOp::kCountLink:
      return "Count Link";
    case LinkOp::kGetLinkList:
      return "Get Link List";
    case LinkOp::kMultigetLink:
      return "Multiget Link";
    case LinkOp::kAddNode:
      return "ADD Node";
    case LinkOp::kDeleteNode:
      return "Delete Node";
    case LinkOp::kUpdateNode:
      return "Update Node";
    case LinkOp::kAddLink:
      return "Add Link";
    case LinkOp::kDeleteLink:
      return "Delete Link";
    case LinkOp::kUpdateLink:
      return "Update Link";
    default:
      return "?";
  }
}

bool LinkOpIsWrite(LinkOp op) {
  switch (op) {
    case LinkOp::kGetNode:
    case LinkOp::kCountLink:
    case LinkOp::kGetLinkList:
    case LinkOp::kMultigetLink:
      return false;
    default:
      return true;
  }
}

LinkBench::LinkBench(Database* db, Config config)
    : db_(db),
      cfg_(config),
      max_node_id_(config.num_nodes),
      zipf_(config.num_nodes, config.zipf_theta) {
  rngs_.reserve(cfg_.clients);
  for (uint32_t c = 0; c < cfg_.clients; ++c) {
    rngs_.emplace_back(cfg_.seed * 1000003 + c);
  }
}

Status LinkBench::Load(IoContext& io) {
  StatusOr<uint32_t> nodes = db_->CreateTree(io, "lb_node");
  if (!nodes.ok()) return nodes.status();
  node_tree_ = *nodes;
  StatusOr<uint32_t> links = db_->CreateTree(io, "lb_link");
  if (!links.ok()) return links.status();
  link_tree_ = *links;

  Random rng(cfg_.seed);
  const std::string node_payload(cfg_.node_payload, 'n');
  const std::string link_payload(cfg_.link_payload, 'l');

  // One transaction per batch of rows keeps load fast in virtual time.
  constexpr uint64_t kBatch = 256;
  uint64_t in_batch = 0;
  TxnId txn = 0;
  for (uint64_t id = 0; id < cfg_.num_nodes; ++id) {
    if (in_batch == 0) {
      StatusOr<TxnId> t = db_->Begin(io);
      if (!t.ok()) return t.status();
      txn = *t;
    }
    DURASSD_RETURN_IF_ERROR(
        db_->Put(io, txn, node_tree_, KeyU64(id), node_payload));
    const uint32_t nlinks =
        static_cast<uint32_t>(rng.Uniform(2 * cfg_.avg_links_per_node + 1));
    for (uint32_t l = 0; l < nlinks; ++l) {
      const uint32_t type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
      const uint64_t id2 = rng.Uniform(cfg_.num_nodes);
      DURASSD_RETURN_IF_ERROR(db_->Put(
          io, txn, link_tree_, KeyU64U32U64(id, type, id2), link_payload));
    }
    if (++in_batch >= kBatch || id + 1 == cfg_.num_nodes) {
      DURASSD_RETURN_IF_ERROR(db_->Commit(io, txn));
      in_batch = 0;
    }
  }
  DURASSD_RETURN_IF_ERROR(db_->Checkpoint(io));
  // The benchmark run continues in virtual time where the load left off;
  // restarting at zero would make early requests wait out the load's
  // device reservations.
  start_time_ = io.now;
  return Status::OK();
}

LinkOp LinkBench::PickOp(Random& rng) const {
  double roll = rng.NextDouble() * 100.0;
  for (const MixEntry& e : kMix) {
    if (roll < e.percent) return e.op;
    roll -= e.percent;
  }
  return LinkOp::kGetLinkList;
}

uint64_t LinkBench::PickNode(Random& rng) const {
  return zipf_.NextScrambled(rng);
}

Status LinkBench::DoGetNode(IoContext& io, Random& rng) {
  std::string v;
  const Status s = db_->Get(io, node_tree_, KeyU64(PickNode(rng)), &v);
  return s.IsNotFound() ? Status::OK() : s;
}

Status LinkBench::DoCountLink(IoContext& io, Random& rng) {
  const uint64_t id = PickNode(rng);
  const uint32_t type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
  uint64_t count = 0;
  return db_->CountRange(io, link_tree_, KeyU64U32U64(id, type, 0),
                         KeyU64U32U64(id, type + 1, 0), 10000, &count);
}

Status LinkBench::DoGetLinkList(IoContext& io, Random& rng) {
  const uint64_t id = PickNode(rng);
  const uint32_t type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
  std::vector<std::pair<std::string, std::string>> out;
  return db_->Scan(io, link_tree_, KeyU64U32U64(id, type, 0), 10, &out);
}

Status LinkBench::DoMultigetLink(IoContext& io, Random& rng) {
  const uint64_t id = PickNode(rng);
  const uint32_t type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
  for (int i = 0; i < 3; ++i) {
    std::string v;
    const Status s = db_->Get(
        io, link_tree_, KeyU64U32U64(id, type, rng.Uniform(cfg_.num_nodes)),
        &v);
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  return Status::OK();
}

Status LinkBench::DoAddNode(IoContext& io, Random& rng) {
  (void)rng;
  const uint64_t id = max_node_id_++;
  StatusOr<TxnId> txn = db_->Begin(io);
  if (!txn.ok()) return txn.status();
  DURASSD_RETURN_IF_ERROR(db_->Put(io, *txn, node_tree_, KeyU64(id),
                                   std::string(cfg_.node_payload, 'N')));
  return db_->Commit(io, *txn);
}

Status LinkBench::DoDeleteNode(IoContext& io, Random& rng) {
  StatusOr<TxnId> txn = db_->Begin(io);
  if (!txn.ok()) return txn.status();
  const Status s = db_->Delete(io, *txn, node_tree_, KeyU64(PickNode(rng)));
  if (!s.ok() && !s.IsNotFound()) return s;
  return db_->Commit(io, *txn);
}

Status LinkBench::DoUpdateNode(IoContext& io, Random& rng) {
  StatusOr<TxnId> txn = db_->Begin(io);
  if (!txn.ok()) return txn.status();
  DURASSD_RETURN_IF_ERROR(db_->Put(io, *txn, node_tree_,
                                   KeyU64(PickNode(rng)),
                                   std::string(cfg_.node_payload, 'U')));
  return db_->Commit(io, *txn);
}

Status LinkBench::DoAddLink(IoContext& io, Random& rng) {
  const uint64_t id = PickNode(rng);
  const uint32_t type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
  const uint64_t id2 = rng.Uniform(std::max<uint64_t>(1, max_node_id_));
  StatusOr<TxnId> txn = db_->Begin(io);
  if (!txn.ok()) return txn.status();
  DURASSD_RETURN_IF_ERROR(db_->Put(io, *txn, link_tree_,
                                   KeyU64U32U64(id, type, id2),
                                   std::string(cfg_.link_payload, 'L')));
  return db_->Commit(io, *txn);
}

Status LinkBench::DoDeleteLink(IoContext& io, Random& rng) {
  const uint64_t id = PickNode(rng);
  const uint32_t type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
  StatusOr<TxnId> txn = db_->Begin(io);
  if (!txn.ok()) return txn.status();
  const Status s = db_->Delete(
      io, *txn, link_tree_,
      KeyU64U32U64(id, type, rng.Uniform(cfg_.num_nodes)));
  if (!s.ok() && !s.IsNotFound()) return s;
  return db_->Commit(io, *txn);
}

Status LinkBench::DoUpdateLink(IoContext& io, Random& rng) {
  const uint64_t id = PickNode(rng);
  const uint32_t type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
  const uint64_t id2 = rng.Uniform(cfg_.num_nodes);
  StatusOr<TxnId> txn = db_->Begin(io);
  if (!txn.ok()) return txn.status();
  DURASSD_RETURN_IF_ERROR(db_->Put(io, *txn, link_tree_,
                                   KeyU64U32U64(id, type, id2),
                                   std::string(cfg_.link_payload, 'M')));
  return db_->Commit(io, *txn);
}

SimTime LinkBench::RunOne(uint32_t client, SimTime now) {
  Random& rng = rngs_[client];
  const LinkOp op = PickOp(rng);
  IoContext io{now};
  Status s;
  switch (op) {
    case LinkOp::kGetNode:
      s = DoGetNode(io, rng);
      break;
    case LinkOp::kCountLink:
      s = DoCountLink(io, rng);
      break;
    case LinkOp::kGetLinkList:
      s = DoGetLinkList(io, rng);
      break;
    case LinkOp::kMultigetLink:
      s = DoMultigetLink(io, rng);
      break;
    case LinkOp::kAddNode:
      s = DoAddNode(io, rng);
      break;
    case LinkOp::kDeleteNode:
      s = DoDeleteNode(io, rng);
      break;
    case LinkOp::kUpdateNode:
      s = DoUpdateNode(io, rng);
      break;
    case LinkOp::kAddLink:
      s = DoAddLink(io, rng);
      break;
    case LinkOp::kDeleteLink:
      s = DoDeleteLink(io, rng);
      break;
    case LinkOp::kUpdateLink:
      s = DoUpdateLink(io, rng);
      break;
    default:
      break;
  }
  // Each Do* already maps the NotFound its operation expects to OK.
  if (!s.ok()) result_.failed_ops++;
  result_.latencies[op].Record(io.now - now);
  return io.now;
}

StatusOr<LinkBench::Result> LinkBench::Run() {
  result_ = Result{};
  const auto fn = [this](uint32_t client, SimTime now) {
    return RunOne(client, now);
  };
  const SerialExecutor::RunResult run =
      SerialExecutor().Run(cfg_.clients, cfg_.requests, start_time_, fn);
  result_.tps = run.OpsPerSecond();
  result_.duration = run.makespan;
  result_.ops = run.ops;
  result_.buffer_miss_ratio = db_->pool_stats().MissRatio();
  return result_;
}

}  // namespace durassd
