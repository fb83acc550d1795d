// The LinkBench operation mix (70% reads, Zipf 0.9) from 128 closed-loop
// clients against minibase with write barriers OFF and double-write OFF on
// 4 KB pages — Fig. 5's recommended DuraSSD deployment — in two sizings:
//   linkbench_inpool   the buffer pool holds the whole data set;
//   linkbench_offoff   the data file is over 10x the pool, so reads miss
//                      and dirty pages are evicted between checkpoints.
// Checkpoints cycle during the timed phase. Every read is checked against a
// model of the acknowledged state.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "db/database.h"
#include "sim/sim_executor.h"
#include "workloads/keys.h"

namespace perfbench {

using durassd::Database;
using durassd::IoContext;
using durassd::kKiB;
using durassd::kMiB;
using durassd::KeyU64;
using durassd::KeyU64U32U64;
using durassd::Random;
using durassd::SerialExecutor;
using durassd::SsdConfig;
using durassd::Status;
using durassd::StatusOr;
using durassd::TxnId;
using durassd::ZipfianGenerator;

namespace {

constexpr uint64_t kNodes = 30000;
constexpr uint32_t kAvgLinks = 4;
constexpr uint32_t kNodePayload = 120;
constexpr uint32_t kLinkPayload = 96;
constexpr uint32_t kLinkTypes = 3;
constexpr double kZipfTheta = 0.9;
constexpr uint32_t kClients = 128;
constexpr uint32_t kPageSize = 4 * kKiB;
constexpr uint64_t kCheckpointLogBytes = 7 * kMiB;
constexpr uint64_t kCrashNodeSample = 2000;
constexpr uint64_t kCrashScanSample = 1000;

enum Op {
  kGetNode,
  kCountLink,
  kGetLinkList,
  kMultigetLink,
  kAddNode,
  kDeleteNode,
  kUpdateNode,
  kAddLink,
  kDeleteLink,
  kUpdateLink,
};
// Facebook's published LinkBench mix, per mille: ~70% reads, 30% writes.
constexpr std::pair<Op, int> kMix[] = {
    {kGetNode, 129},  {kCountLink, 49},  {kGetLinkList, 512},
    {kMultigetLink, 5}, {kAddNode, 26},  {kDeleteNode, 10},
    {kUpdateNode, 74}, {kAddLink, 90},   {kDeleteLink, 30},
    {kUpdateLink, 75},
};

std::vector<int> MixCards() {
  std::vector<int> cards;
  for (const auto& [op, per_mille] : kMix) {
    cards.insert(cards.end(), per_mille, op);
  }
  return cards;
}

SsdConfig DataDevice() {
  SsdConfig c = SsdConfig::DuraSsd();
  c.store_data = true;
  c.geometry.blocks_per_plane = 24;  // 3 GiB raw: room for data, no GC.
  return c;
}

/// The benchmark's view of the acknowledged state of both tables: key ->
/// version of the last committed write (absent = not present).
struct Model {
  std::map<std::string, uint64_t> nodes;
  std::map<std::string, uint64_t> links;
  uint64_t next_version = 1;
};

/// The 128 closed-loop LinkBench clients: each RunOne call draws one
/// operation from the mix deck and checks its result against the model.
class LinkClients {
 public:
  LinkClients(Database* db, Model* model, SpanRecorder* rec, OpLog* log,
              uint32_t node_tree, uint32_t link_tree, uint64_t seed)
      : db_(db),
        model_(model),
        rec_(rec),
        log_(log),
        node_tree_(node_tree),
        link_tree_(link_tree),
        max_node_id_(kNodes),
        zipf_(kNodes, kZipfTheta),
        deck_(MixCards(), seed * 0x9E3779B97F4A7C15ull + 3) {
    for (uint32_t c = 0; c < kClients; ++c) {
      rngs_.emplace_back(seed * 1000003 + c + 1);
    }
  }

  SimTime RunOne(uint32_t client, SimTime start) {
    rec_->set_request(seq_++);
    const int32_t span =
        rec_->enabled() ? rec_->Begin("op", Layer::kSim, start) : -1;
    Random& rng = rngs_[client];
    const auto op = static_cast<Op>(deck_.Next());
    IoContext io{start};
    bool ok = true;
    log_->attempted++;
    switch (op) {
      case kGetNode:
        ok = GetNode(io, rng);
        break;
      case kCountLink:
        ok = CountLink(io, rng);
        break;
      case kGetLinkList:
        ok = GetLinkList(io, rng);
        break;
      case kMultigetLink:
        ok = MultigetLink(io, rng);
        break;
      case kAddNode:
        ok = WriteTxn(io, node_tree_, KeyU64(max_node_id_++), false);
        break;
      case kDeleteNode:
        ok = WriteTxn(io, node_tree_, KeyU64(PickNode(rng)), true);
        break;
      case kUpdateNode:
        ok = WriteTxn(io, node_tree_, KeyU64(PickNode(rng)), false);
        break;
      case kAddLink: {
        const uint64_t id = PickNode(rng);
        const auto type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
        ok = WriteTxn(io, link_tree_,
                      KeyU64U32U64(id, type, rng.Uniform(max_node_id_)),
                      false);
        break;
      }
      case kDeleteLink:
      case kUpdateLink: {
        const uint64_t id = PickNode(rng);
        const auto type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
        ok = WriteTxn(io, link_tree_,
                      KeyU64U32U64(id, type, rng.Uniform(kNodes)),
                      op == kDeleteLink);
        break;
      }
    }
    const bool is_write = op >= kAddNode;
    if (ok) {
      (is_write ? log_->write_ns : log_->read_ns).push_back(io.now - start);
    }
    if (span >= 0) rec_->End(span, io.now, ok);
    return io.now;
  }

  uint64_t max_node_id() const { return max_node_id_; }

  /// Reads `key` and compares it with the model. Returns false (and
  /// counts the failure) on an unexpected status or wrong bytes.
  bool CheckGet(IoContext& io, uint32_t tree, const std::string& key) {
    std::string v;
    const Status s = Traced(*rec_, "db.get", Layer::kDb, io,
                            [&] { return db_->Get(io, tree, key, &v); });
    const auto& m = tree == node_tree_ ? model_->nodes : model_->links;
    const auto it = m.find(key);
    if (s.IsNotFound() && it == m.end()) return true;
    if (!s.ok()) return BadStatus("get", s);
    if (it == m.end()) return Wrong("get returned a deleted or unwritten key");
    FillPayload(HashBytes(key), it->second, PayloadLen(tree), &expect_);
    if (v != expect_) return Wrong("get returned other bytes than acked");
    return true;
  }

  /// Scans 10 links from (id, type, 0) and compares them with the model.
  bool CheckScan(IoContext& io, uint64_t id, uint32_t type) {
    const std::string start = KeyU64U32U64(id, type, 0);
    std::vector<std::pair<std::string, std::string>> out;
    const Status s =
        Traced(*rec_, "db.scan", Layer::kDb, io, [&] {
          return db_->Scan(io, link_tree_, start, 10, &out);
        });
    if (!s.ok()) return BadStatus("scan", s);
    auto it = model_->links.lower_bound(start);
    for (const auto& [k, v] : out) {
      if (it == model_->links.end() || it->first != k) {
        return Wrong("scan from " + Hex(start) + " returned key " + Hex(k) +
                     " where the acknowledged state has " +
                     (it == model_->links.end() ? "none" : Hex(it->first)));
      }
      FillPayload(HashBytes(k), it->second, kLinkPayload, &expect_);
      if (v != expect_) return Wrong("scan returned other bytes");
      ++it;
    }
    if (out.size() < 10 && it != model_->links.end()) {
      return Wrong("scan missed an acknowledged key");
    }
    return true;
  }

 private:
  uint32_t PayloadLen(uint32_t tree) const {
    return tree == node_tree_ ? kNodePayload : kLinkPayload;
  }

  uint64_t PickNode(Random& rng) const { return zipf_.NextScrambled(rng); }

  bool BadStatus(const char* what, const Status& s) {
    log_->bad_status++;
    log_->Error(std::string(what) + ": " + s.ToString());
    return false;
  }
  static std::string Hex(const std::string& k) {
    static const char* kDigits = "0123456789abcdef";
    std::string h;
    for (const char c : k) {
      h += kDigits[(static_cast<unsigned char>(c) >> 4) & 0xF];
      h += kDigits[static_cast<unsigned char>(c) & 0xF];
    }
    return h;
  }
  bool Wrong(const std::string& what) {
    log_->wrong_bytes++;
    log_->Error(what);
    return false;
  }

  bool GetNode(IoContext& io, Random& rng) {
    return CheckGet(io, node_tree_, KeyU64(PickNode(rng)));
  }

  bool CountLink(IoContext& io, Random& rng) {
    const uint64_t id = PickNode(rng);
    const auto type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
    const std::string lo = KeyU64U32U64(id, type, 0);
    const std::string hi = KeyU64U32U64(id, type + 1, 0);
    uint64_t count = 0;
    const Status s =
        Traced(*rec_, "db.count", Layer::kDb, io, [&] {
          return db_->CountRange(io, link_tree_, lo, hi, 10000, &count);
        });
    if (!s.ok()) return BadStatus("count", s);
    const auto first = model_->links.lower_bound(lo);
    const auto last = model_->links.lower_bound(hi);
    if (count != static_cast<uint64_t>(std::distance(first, last))) {
      return Wrong("count differs from the acknowledged links");
    }
    return true;
  }

  bool GetLinkList(IoContext& io, Random& rng) {
    const uint64_t id = PickNode(rng);
    return CheckScan(io, id, static_cast<uint32_t>(rng.Uniform(kLinkTypes)));
  }

  bool MultigetLink(IoContext& io, Random& rng) {
    const uint64_t id = PickNode(rng);
    const auto type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
    bool ok = true;
    for (int i = 0; i < 3; ++i) {
      ok &= CheckGet(io, link_tree_,
                     KeyU64U32U64(id, type, rng.Uniform(kNodes)));
    }
    return ok;
  }

  /// One write transaction: put a fresh version of `key`, or delete it.
  /// NotFound from a delete is expected exactly when the model lacks key.
  bool WriteTxn(IoContext& io, uint32_t tree, const std::string& key,
                bool is_delete) {
    auto& m = tree == node_tree_ ? model_->nodes : model_->links;
    TxnId txn = 0;
    Status s = Traced(*rec_, "db.begin", Layer::kDb, io, [&] {
      StatusOr<TxnId> t = db_->Begin(io);
      if (t.ok()) txn = *t;
      return t.status();
    });
    if (!s.ok()) return BadStatus("begin", s);
    // Any failure below leaves the transaction open; roll it back so the
    // next client's Begin is not refused.
    const auto fail = [&](bool counted) {
      (void)db_->Abort(io, txn);
      return counted;
    };
    const uint64_t version = model_->next_version++;
    bool deleted = false;
    if (is_delete) {
      s = Traced(*rec_, "db.delete", Layer::kDb, io,
                 [&] { return db_->Delete(io, txn, tree, key); });
      const bool present = m.count(key) != 0;
      if (s.IsNotFound() && !present) {
        s = Status::OK();
      } else if (s.ok() && !present) {
        return fail(Wrong("delete found a key that was never acknowledged"));
      } else {
        deleted = s.ok();
      }
    } else {
      FillPayload(HashBytes(key), version, PayloadLen(tree), &value_);
      s = Traced(*rec_, "db.put", Layer::kDb, io,
                 [&] { return db_->Put(io, txn, tree, key, value_); });
    }
    if (!s.ok()) return fail(BadStatus(is_delete ? "delete" : "put", s));
    s = Traced(*rec_, "db.commit", Layer::kDb, io,
               [&] { return db_->Commit(io, txn); });
    if (!s.ok()) return BadStatus("commit", s);
    if (is_delete) {
      if (deleted) {
        m.erase(key);
        log_->user_bytes += key.size();
      }
    } else {
      m[key] = version;
      log_->user_bytes += key.size() + value_.size();
    }
    return true;
  }

  Database* db_;
  Model* model_;
  SpanRecorder* rec_;
  OpLog* log_;
  uint32_t node_tree_;
  uint32_t link_tree_;
  uint64_t max_node_id_;
  ZipfianGenerator zipf_;
  MixDeck deck_;
  std::vector<Random> rngs_;
  uint64_t seq_ = 0;
  std::string expect_;
  std::string value_;
};

/// What the two sizings differ in: the pool, what their self-checks
/// demand of it, and the timed-phase length (in-pool ops are cheaper).
struct Variant {
  const char* name;
  uint64_t pool_bytes;
  bool data_fits_pool;
  uint64_t timed_ops;
};
constexpr Variant kInPool = {"linkbench_inpool", 64 * kMiB, true, 40000};
constexpr Variant kOffOff = {"linkbench_offoff", 3 * kMiB, false, 20000};

Database::Options DbOptions(const Variant& v) {
  Database::Options o;
  o.page_size = kPageSize;
  o.pool_bytes = v.pool_bytes;
  o.double_write = false;
  o.checkpoint_log_bytes = kCheckpointLogBytes;
  return o;
}

/// Bulk-loads the graph in 256-row transactions, then checkpoints.
Status Load(Database* db, IoContext& io, uint32_t node_tree,
            uint32_t link_tree, uint64_t seed, Model* model) {
  Random rng(seed * 0x2545F4914F6CDD1Dull + 11);
  constexpr uint64_t kBatch = 256;
  uint64_t in_batch = 0;
  TxnId txn = 0;
  std::string value;
  for (uint64_t id = 0; id < kNodes; ++id) {
    if (in_batch == 0) {
      StatusOr<TxnId> t = db->Begin(io);
      if (!t.ok()) return t.status();
      txn = *t;
    }
    std::vector<std::pair<std::string, std::string>> rows;
    const std::string node = KeyU64(id);
    const uint64_t nv = model->next_version++;
    FillPayload(HashBytes(node), nv, kNodePayload, &value);
    DURASSD_RETURN_IF_ERROR(db->Put(io, txn, node_tree, node, value));
    model->nodes[node] = nv;
    in_batch++;
    const auto nlinks = static_cast<uint32_t>(rng.Uniform(2 * kAvgLinks + 1));
    for (uint32_t l = 0; l < nlinks; ++l) {
      const auto type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
      const std::string link = KeyU64U32U64(id, type, rng.Uniform(kNodes));
      const uint64_t lv = model->next_version++;
      FillPayload(HashBytes(link), lv, kLinkPayload, &value);
      DURASSD_RETURN_IF_ERROR(db->Put(io, txn, link_tree, link, value));
      model->links[link] = lv;
      in_batch++;
    }
    if (in_batch >= kBatch || id + 1 == kNodes) {
      DURASSD_RETURN_IF_ERROR(db->Commit(io, txn));
      in_batch = 0;
    }
  }
  return db->Checkpoint(io);
}

int RunLinkbench(const Variant& variant, const Args& args,
                 int64_t process_start_ns, Report* rep) {
  const std::string name = variant.name;
  const uint64_t pool_bytes = variant.pool_bytes;
  SpanRecorder rec;
  SpanRecorder* traced = args.trace ? &rec : nullptr;
  const SsdConfig dev_cfg = DataDevice();
  std::unique_ptr<DeviceStack> data =
      MakeStack(dev_cfg, /*write_barriers=*/false, traced);
  std::unique_ptr<DeviceStack> wal =
      MakeStack(dev_cfg, /*write_barriers=*/false, traced);
  std::vector<DeviceStack*> stacks = {data.get(), wal.get()};

  IoContext io;
  StatusOr<std::unique_ptr<Database>> opened =
      Database::Open(io, data->fs.get(), wal->fs.get(), DbOptions(variant));
  if (!opened.ok()) {
    rep->Fail("Database::Open failed: " + opened.status().ToString());
    return 0;
  }
  std::unique_ptr<Database> db = std::move(*opened);
  StatusOr<uint32_t> nodes = db->CreateTree(io, "lb_node");
  StatusOr<uint32_t> links = db->CreateTree(io, "lb_link");
  if (!nodes.ok() || !links.ok()) {
    rep->Fail("CreateTree failed");
    return 0;
  }
  Model model;
  const Status loaded = Load(db.get(), io, *nodes, *links, args.seed, &model);
  if (!loaded.ok()) {
    rep->Fail("load failed: " + loaded.ToString());
    return 0;
  }
  const uint64_t data_bytes = data->fs->Open("data.db")->size();

  rep->Info("workload " + name + " seed " + std::to_string(args.seed) +
            (args.trace ? " (traced)" : ""));
  rep->Info("sizes: data file " + std::to_string(data_bytes / kKiB) +
            " KiB vs buffer pool " + std::to_string(pool_bytes / kKiB) +
            " KiB (" + std::to_string(kNodes) + " nodes, " +
            std::to_string(model.links.size()) + " links); device capacity " +
            std::to_string(data->ssd->capacity_bytes() / kMiB) +
            " MiB each for data and log; " + std::to_string(kClients) +
            " virtual clients, " + std::to_string(variant.timed_ops) +
            " timed ops");
  rep->Info("flush policy: DuraSSD, write barriers OFF, double-write OFF, "
            "4 KB pages, fsync per commit, checkpoint every " +
            std::to_string(kCheckpointLogBytes / kMiB) + " MiB of WAL");
  if (variant.data_fits_pool ? data_bytes >= pool_bytes
                             : data_bytes < 10 * pool_bytes) {
    rep->Fail(name + (variant.data_fits_pool
                          ? ": data file does not fit the buffer pool"
                          : ": data file is not 10x the buffer pool"));
  }

  // --- Timed phase. ---
  ResetDeviceMetrics(stacks);
  db->metrics().Reset();
  const StackCounters base = StackCounters::Sum(stacks);
  const durassd::BufferPool::Stats pool0 = db->pool_stats();
  const durassd::Wal::Stats wal0 = db->wal_stats();
  const Database::Stats db0 = db->stats();

  OpLog log;
  LinkClients clients(db.get(), &model, &rec, &log, *nodes, *links, args.seed);
  TimedPhase tp;
  tp.process_start_ns = process_start_ns;
  const SimTime sim_start = io.now;
  rec.set_enabled(args.trace);
  tp.Start();
  const auto run = SerialExecutor().Run(
      kClients, variant.timed_ops, sim_start,
      [&](uint32_t c, SimTime t) { return clients.RunOne(c, t); });
  tp.Stop();
  rec.set_enabled(false);
  tp.ops = run.ops;
  tp.makespan = run.makespan;
  const StackCounters delta = StackCounters::Sum(stacks) - base;
  const durassd::BufferPool::Stats pool1 = db->pool_stats();
  const durassd::Wal::Stats wal1 = db->wal_stats();
  const Database::Stats db1 = db->stats();

  const double ops = static_cast<double>(tp.ops);
  const uint64_t hits = pool1.hits - pool0.hits;
  const uint64_t misses = pool1.misses - pool0.misses;
  const uint64_t dirty_evictions =
      pool1.dirty_evictions - pool0.dirty_evictions;
  const uint64_t commits = db1.txns_committed - db0.txns_committed;
  const uint64_t checkpoints = db1.checkpoints - db0.checkpoints;
  rep->Set("db.pool_miss_ratio",
           hits + misses == 0 ? 0.0
                              : static_cast<double>(misses) /
                                    static_cast<double>(hits + misses),
           "ratio");
  rep->Set("db.dirty_evictions_per_op",
           static_cast<double>(dirty_evictions) / ops, "1/op");
  rep->Set("db.reads_blocked_by_writes",
           static_cast<double>(pool1.reads_blocked_by_writes -
                               pool0.reads_blocked_by_writes),
           "count");
  const uint64_t wal_syncs = wal1.syncs - wal0.syncs;
  rep->Set("db.commits_per_wal_sync",
           wal_syncs == 0 ? 0.0
                          : static_cast<double>(commits) /
                                static_cast<double>(wal_syncs),
           "ratio");
  const auto& hist = db->metrics().histograms();
  const auto fsync = hist.find("db.fsync_ns");
  if (fsync != hist.end()) {
    rep->Set("db.fsync_sim_p50_us",
             static_cast<double>(fsync->second.Percentile(50)) / 1e3, "us");
    rep->Set("db.fsync_sim_p99_us",
             static_cast<double>(fsync->second.Percentile(99)) / 1e3, "us");
  }
  rep->Set("db.checkpoints", static_cast<double>(checkpoints), "count");
  rep->Set("db.checkpoint_page_flushes",
           static_cast<double>(pool1.checkpoint_page_flushes -
                               pool0.checkpoint_page_flushes),
           "count");
  rep->Set("db.wal_bytes_per_commit",
           commits == 0 ? 0.0
                        : static_cast<double>(wal1.bytes_written -
                                              wal0.bytes_written) /
                              static_cast<double>(commits),
           "B");
  rep->Set("db.failed_calls", static_cast<double>(log.bad_status), "count");

  // --- Self-checks: in-pool never evicts a page (its only misses are
  // fixes of newly allocated pages); off-pool must miss the pool and evict
  // dirty pages. Both cycle checkpoints, send no FLUSH and run no GC. ---
  if (variant.data_fits_pool) {
    if (pool1.evictions != pool0.evictions) {
      rep->Fail(name + ": the buffer pool evicted pages");
    }
  } else {
    if (misses == 0) rep->Fail(name + ": no buffer-pool misses");
    if (dirty_evictions == 0) rep->Fail(name + ": no dirty evictions");
  }
  if (checkpoints < 2) {
    rep->Fail(name + ": fewer than 2 checkpoints in the timed phase");
  }
  if (delta.fs_flush_cmds != 0) rep->Fail(name + ": FLUSH was sent");
  if (delta.gc_runs != 0) rep->Fail(name + ": GC ran");

  // --- End-of-run power cut at the last acknowledged instant, then
  // recovery through Database::Open and a sampled re-read. ---
  const SimTime last_ack = sim_start + run.makespan;
  data->top()->PowerCut(last_ack);
  wal->top()->PowerCut(last_ack);
  db.reset();
  const SimTime dev_recovery =
      std::max(data->top()->PowerOn(), wal->top()->PowerOn());
  IoContext rio{dev_recovery};
  opened =
      Database::Open(rio, data->fs.get(), wal->fs.get(), DbOptions(variant));
  double recovery_ms = 0;
  if (!opened.ok()) {
    rep->Fail("recovery failed: " + opened.status().ToString());
    rep->failed++;
  } else {
    db = std::move(*opened);
    recovery_ms = static_cast<double>(rio.now) / 1e6;
    OpLog crash_log;
    SpanRecorder off;
    LinkClients check(db.get(), &model, &off, &crash_log, *nodes, *links,
                      args.seed);
    Random sample(args.seed ^ 0xC3A5C85C97CB3127ull);
    const uint64_t max_id = clients.max_node_id();
    for (uint64_t i = 0; i < kCrashNodeSample; ++i) {
      check.CheckGet(rio, *nodes, KeyU64(sample.Uniform(max_id)));
    }
    for (uint64_t i = 0; i < kCrashScanSample; ++i) {
      check.CheckScan(rio, sample.Uniform(kNodes),
                      static_cast<uint32_t>(sample.Uniform(kLinkTypes)));
    }
    rep->attempted += kCrashNodeSample + kCrashScanSample;
    rep->failed += crash_log.failed();
    if (crash_log.failed() > 0) {
      rep->Fail("crash check: " + std::to_string(crash_log.failed()) +
                " sampled reads lost or changed acknowledged writes; first: " +
                crash_log.first_error);
    }
    rep->Info("crash check: " +
              std::to_string(kCrashNodeSample + kCrashScanSample) +
              " sampled reads after the power cut, " +
              std::to_string(crash_log.failed()) + " wrong");
  }

  ReportEndToEnd(args, tp, log, delta, recovery_ms, rep);
  const SpanSummary spans = Summarize(rec.spans());
  ReportStackLayers(args, tp, delta, stacks, rec, spans, rep);
  if (args.trace) {
    rep->Set("db.self_us_per_op",
             static_cast<double>(
                 spans.self_ns[static_cast<size_t>(Layer::kDb)]) /
                 1e3 / ops,
             "us");
    rep->Set("db.get_us", spans.MeanUs("db.get"), "us");
    rep->Set("db.scan_us", spans.MeanUs("db.scan"), "us");
    rep->Set("db.put_us", spans.MeanUs("db.put"), "us");
    rep->Set("db.commit_us", spans.MeanUs("db.commit"), "us");
  }
  return 0;
}

}  // namespace

int RunLinkbenchInPool(const Args& args, int64_t process_start_ns,
                       Report* rep) {
  return RunLinkbench(kInPool, args, process_start_ns, rep);
}

int RunLinkbenchOffOff(const Args& args, int64_t process_start_ns,
                       Report* rep) {
  return RunLinkbench(kOffOff, args, process_start_ns, rep);
}

}  // namespace perfbench
