#include "sim/crash_harness.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "common/random.h"
#include "db/database.h"
#include "host/sim_file.h"
#include "kv/kvstore.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"
#include "tier/tiered_device.h"

namespace durassd {
namespace {

using Model = std::map<std::string, std::string>;
using Engine = CrashHarness::Engine;

/// Which invariants a configuration is entitled to (see the header).
enum class Tier { kStrict, kClean, kPrefix };

Tier TierFor(const CrashHarness::Options& opt) {
  // The tiered stack acks through the flash tier's journal: durable +
  // ordered regardless of the (ignored) volatile-cache knobs.
  if (opt.tiered) return Tier::kStrict;
  if (opt.durable_cache) return Tier::kStrict;
  if (!opt.write_barriers) return Tier::kPrefix;
  if (opt.engine == Engine::kDatabase && !opt.double_write) {
    return Tier::kClean;
  }
  return Tier::kStrict;
}

struct Op {
  bool is_put = true;
  std::string key;
  std::string value;
};

/// Pre-generates the whole op sequence so the probe and crashing runs are
/// trivially identical. Deletes always target a currently-present key
/// (tracked against the no-crash trajectory), keeping delete semantics
/// well-defined for both engines.
std::vector<Op> MakeOps(const CrashHarness::Options& opt) {
  Random rng(opt.seed * 0x2545F4914F6CDD1Dull + 1);
  std::vector<Op> ops;
  ops.reserve(static_cast<size_t>(opt.ops));
  std::set<std::string> present;
  for (int i = 0; i < opt.ops; ++i) {
    Op op;
    if (!present.empty() && rng.Bernoulli(0.2)) {
      auto it = present.begin();
      std::advance(it, static_cast<long>(rng.Uniform(present.size())));
      op.is_put = false;
      op.key = *it;
      present.erase(it);
    } else {
      op.is_put = true;
      op.key = "k" + std::to_string(rng.Uniform(opt.keyspace));
      op.value = "v" + std::to_string(i) + "-" +
                 std::to_string(rng.Next() % 100000);
      present.insert(op.key);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// One full stack: device (raw SSD, or a tiered device) + file system. The
/// engine lives in EngineHolder so it can be destroyed and reopened across
/// simulated reboots. Power and scheduled cuts go through the BlockDevice
/// front end; the degraded/epoch/tracer helpers fan out to whichever device
/// backs the mount, so the torture logic below is device-agnostic.
struct Stack {
  explicit Stack(const CrashHarness::Options& opt) {
    SsdConfig dc =
        opt.durable_cache ? SsdConfig::DuraSsd() : SsdConfig::SsdA();
    if (opt.durable_cache) dc.ordered_queue = opt.ordered_queue;
    if (opt.durable_cache && opt.log_structured_destage) {
      dc.destage_mode = SsdConfig::DestageMode::kLogStructured;
    }
    dc.geometry = FlashGeometry::Tiny();
    dc.geometry.blocks_per_plane = 256;
    dc.geometry.pages_per_block = 32;
    dc.capacitor_budget_bytes = 16 * kMiB;
    if (opt.inject_faults) {
      // The PR-1 fault model, sized so ECC absorbs every read error: the
      // harness asserts the invariants are unchanged under live faults.
      dc.faults.seed = opt.seed * 0x9E3779B97F4A7C15ull + 0xFA171E5ull;
      dc.faults.read_bit_flip_mean = 1.5;
      dc.faults.read_bit_flip_per_erase = 0.05;
      dc.faults.program_fail_rate = 0.01;
      dc.faults.erase_fail_rate = 0.005;
      dc.ecc_correctable_bits = 24;
    }
    if (opt.tiered) {
      // Flash tier: the durable-cache preset on the harness's tiny
      // geometry (the tiered stack always runs the DuraSSD flash tier —
      // the directory's commit point needs it). Capacity tier: a small
      // HDD so cuts land with destage runs and track-cache state live.
      TieredConfig tc;
      tc.flash = SsdConfig::DuraSsd();
      tc.flash.geometry = dc.geometry;
      tc.flash.capacitor_budget_bytes = dc.capacitor_budget_bytes;
      tc.flash.faults = dc.faults;
      tc.flash.ecc_correctable_bits = dc.ecc_correctable_bits;
      tc.capacity_hdd.num_sectors = 16384;  // 64 MiB capacity tier.
      tc.flash_pct = opt.tier_flash_pct;
      tc.admission = opt.tier_admission == 0
                         ? TieredConfig::Admission::kAll
                         : TieredConfig::Admission::kBypassSequential;
      tc.destage_batch = opt.tier_destage_batch;
      tc.warm_recovery = opt.tier_warm;
      tier = MakeTieredDevice(tc);
    } else {
      ssd = std::make_unique<SsdDevice>(dc);
    }
    SimFileSystem::Options fso;
    fso.write_barriers = opt.write_barriers;
    fs = std::make_unique<SimFileSystem>(dev(), fso);
  }

  BlockDevice* dev() {
    return tier != nullptr ? static_cast<BlockDevice*>(tier.get())
                           : static_cast<BlockDevice*>(ssd.get());
  }
  bool degraded() const {
    return tier != nullptr ? tier->degraded() : ssd->degraded();
  }
  uint64_t epoch_violations() const {
    return tier != nullptr ? tier->epoch_ordering_violations()
                           : ssd->stats().epoch_ordering_violations;
  }
  void set_tracer(Tracer* t) {
    // Tiered runs trace the flash tier: its barrier/flush completions are
    // the commit boundaries the host observes.
    if (tier != nullptr) {
      tier->set_tracer(t);
    } else {
      ssd->set_tracer(t);
    }
  }

  IoContext io;
  std::unique_ptr<SsdDevice> ssd;
  std::unique_ptr<TieredDevice> tier;
  std::unique_ptr<SimFileSystem> fs;
};

struct EngineHolder {
  std::unique_ptr<Database> db;
  std::unique_ptr<KvStore> kv;
  uint32_t tree = 0;
  bool tree_ok = false;

  void Reset() {
    db.reset();
    kv.reset();
    tree = 0;
    tree_ok = false;
  }
};

Status OpenEngine(Stack& s, const CrashHarness::Options& opt,
                  EngineHolder* eng, bool create_tree) {
  if (opt.engine == Engine::kDatabase) {
    Database::Options dbo;
    dbo.pool_bytes = 2 * kMiB;
    dbo.double_write = opt.double_write;
    dbo.checkpoint_log_bytes = 2 * kMiB;  // Frequent checkpoints.
    dbo.sync_every_page_write = opt.sync_every_page_write;
    dbo.durability_mode = opt.durability_mode;
    auto d = Database::Open(s.io, s.fs.get(), s.fs.get(), dbo);
    if (!d.ok()) return d.status();
    eng->db = std::move(*d);
    if (create_tree) {
      auto t = eng->db->CreateTree(s.io, "t");
      if (!t.ok()) return t.status();
      eng->tree = *t;
      eng->tree_ok = true;
    } else {
      auto t = eng->db->GetTreeId("t");
      // A cut before the schema became durable recovers to an empty
      // database with no tree: that is snapshot 0, not an error.
      eng->tree_ok = t.ok();
      eng->tree = t.ok() ? *t : 0;
    }
  } else {
    KvStore::Options ko;
    ko.batch_size = opt.kv_batch_size;
    ko.durability_mode = opt.durability_mode;
    auto k = KvStore::Open(s.io, s.fs.get(), "s.couch", ko);
    if (!k.ok()) return k.status();
    eng->kv = std::move(*k);
  }
  return Status::OK();
}

struct RunResult {
  bool open_ok = false;
  Status fail;  ///< OK when the whole workload completed.
  uint64_t commits = 0;
  bool commit_in_flight = false;
};

/// Opens a fresh engine and runs the workload, optionally with a power cut
/// armed at `cut`. In probe mode (`snapshots` non-null) the committed model
/// is recorded at every commit boundary.
RunResult RunWorkload(Stack& s, const CrashHarness::Options& opt,
                      const std::vector<Op>& ops, SimTime cut,
                      std::vector<Model>* snapshots) {
  RunResult r;
  if (cut > 0) s.dev()->SchedulePowerCut(cut);
  EngineHolder eng;
  Status st = OpenEngine(s, opt, &eng, /*create_tree=*/true);
  if (!st.ok()) {
    r.fail = st;
    return r;
  }
  r.open_ok = true;

  if (opt.engine == Engine::kDatabase) {
    Model model;
    size_t i = 0;
    while (i < ops.size()) {
      auto txn = eng.db->Begin(s.io);
      if (!txn.ok()) {
        r.fail = txn.status();
        return r;
      }
      const size_t batch = std::min<size_t>(
          static_cast<size_t>(opt.ops_per_txn), ops.size() - i);
      Model pending = model;
      for (size_t j = 0; j < batch; ++j) {
        const Op& op = ops[i + j];
        if (op.is_put) {
          st = eng.db->Put(s.io, *txn, eng.tree, op.key, op.value);
          if (st.ok()) pending[op.key] = op.value;
        } else {
          st = eng.db->Delete(s.io, *txn, eng.tree, op.key);
          if (st.IsNotFound()) st = Status::OK();
          if (st.ok()) pending.erase(op.key);
        }
        if (!st.ok()) {
          r.fail = st;
          return r;
        }
      }
      st = eng.db->Commit(s.io, *txn);
      if (!st.ok()) {
        r.fail = st;
        r.commit_in_flight = true;  // The commit record may be durable.
        return r;
      }
      r.commits++;
      model = std::move(pending);
      if (snapshots != nullptr) snapshots->push_back(model);
      i += batch;
    }
  } else {
    Model model;
    uint64_t uncommitted = 0;  // Updates since the last observed commit.
    for (const Op& op : ops) {
      const uint64_t commits_before = eng.kv->stats().commits;
      if (op.is_put) {
        st = eng.kv->Put(s.io, op.key, op.value);
      } else {
        st = eng.kv->Delete(s.io, op.key);
      }
      if (!st.ok()) {
        r.fail = st;
        // The failing update triggers a header write exactly when it fills
        // the batch; only then can a commit be partially durable.
        r.commit_in_flight = uncommitted + 1 >= opt.kv_batch_size;
        return r;
      }
      if (op.is_put) {
        model[op.key] = op.value;
      } else {
        model.erase(op.key);
      }
      if (eng.kv->stats().commits > commits_before) {
        r.commits++;
        uncommitted = 0;
        if (snapshots != nullptr) snapshots->push_back(model);
      } else {
        uncommitted++;
      }
    }
  }
  return r;
}

/// After a crashing run: if the scheduled cut never tripped (the workload
/// finished first, or the engine failed for another reason such as
/// degradation), cut power explicitly at the execution frontier.
void EnsureCrashed(Stack& s, SimTime cut) {
  if (s.dev()->powered()) {
    s.dev()->CancelScheduledPowerCut();
    s.dev()->PowerCut(std::max(cut, s.io.now));
  }
}

/// Reads the complete recovered key/value state. For the KvStore the whole
/// key universe is enumerated and doc_count() guards against phantom keys
/// outside it.
StatusOr<Model> DumpState(Stack& s, const CrashHarness::Options& opt,
                          EngineHolder& eng) {
  Model out;
  if (opt.engine == Engine::kDatabase) {
    if (!eng.tree_ok) return out;  // Schema never durable: empty state.
    std::vector<std::pair<std::string, std::string>> rows;
    DURASSD_RETURN_IF_ERROR(eng.db->Scan(
        s.io, eng.tree, "", static_cast<size_t>(opt.keyspace) + 8, &rows));
    for (auto& [k, v] : rows) out[k] = v;
  } else {
    for (uint64_t i = 0; i < opt.keyspace; ++i) {
      const std::string key = "k" + std::to_string(i);
      std::string value;
      const Status st = eng.kv->Get(s.io, key, &value);
      if (st.ok()) {
        out[key] = value;
      } else if (!st.IsNotFound()) {
        return st;
      }
    }
    if (eng.kv->doc_count() != out.size()) {
      return Status::Corruption(
          "doc_count " + std::to_string(eng.kv->doc_count()) +
          " != " + std::to_string(out.size()) + " visible keys");
    }
  }
  return out;
}

int64_t FindSnapshot(const Model& state, const std::vector<Model>& snaps) {
  for (size_t j = 0; j < snaps.size(); ++j) {
    if (snaps[j] == state) return static_cast<int64_t>(j);
  }
  return -1;
}

std::string DescribeDiff(const Model& got, const Model& want) {
  auto it = got.begin();
  auto jt = want.begin();
  while (it != got.end() && jt != want.end() && *it == *jt) {
    ++it;
    ++jt;
  }
  std::ostringstream os;
  os << "got " << got.size() << " keys, want " << want.size();
  if (it != got.end()) os << "; got[" << it->first << "]=" << it->second;
  if (jt != want.end()) os << "; want[" << jt->first << "]=" << jt->second;
  return os.str();
}

void AddViolation(CrashHarness::Report* rep,
                  const CrashHarness::Options& opt, int invariant,
                  const std::string& what) {
  rep->ok = false;
  rep->violations.push_back("[I" + std::to_string(invariant) + "] " + what +
                            " | repro: " + opt.ToString());
  if (opt.tracer != nullptr) {
    opt.tracer->Record(0, TraceEventType::kInvariantViolation,
                       static_cast<uint64_t>(invariant),
                       rep->violations.size());
  }
}

}  // namespace

std::string CrashHarness::Options::ToString() const {
  std::ostringstream os;
  os << "engine=" << (engine == Engine::kDatabase ? "db" : "kv")
     << " durable=" << durable_cache << " barriers=" << write_barriers
     << " dwb=" << double_write << " odsync=" << sync_every_page_write
     << " kv_batch=" << kv_batch_size << " seed=" << seed << " ops=" << ops
     << " ops_per_txn=" << ops_per_txn << " keyspace=" << keyspace
     << " cut_fraction=" << cut_fraction << " nested=" << nested_cut
     << " faults=" << inject_faults << " ordered=" << ordered_queue
     << " log_destage=" << log_structured_destage
     << " mode=" << DurabilityModeName(durability_mode)
     << " cut_at_boundary=" << cut_at_barrier_boundary
     << " plant_reorder=" << plant_epoch_reorder << " tiered=" << tiered
     << " tier_pct=" << tier_flash_pct << " tier_adm=" << tier_admission
     << " tier_batch=" << tier_destage_batch << " tier_warm=" << tier_warm;
  return os.str();
}

CrashHarness::Options CrashHarness::Options::FromString(
    const std::string& repro) {
  Options o;
  std::istringstream is(repro);
  std::string token;
  while (is >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = token.substr(0, eq);
    const std::string val = token.substr(eq + 1);
    const auto as_bool = [&] { return val != "0" && val != "false"; };
    if (key == "engine") {
      o.engine = val == "kv" ? Engine::kKvStore : Engine::kDatabase;
    } else if (key == "durable") {
      o.durable_cache = as_bool();
    } else if (key == "barriers") {
      o.write_barriers = as_bool();
    } else if (key == "dwb") {
      o.double_write = as_bool();
    } else if (key == "odsync") {
      o.sync_every_page_write = as_bool();
    } else if (key == "kv_batch") {
      o.kv_batch_size = static_cast<uint32_t>(std::stoul(val));
    } else if (key == "seed") {
      o.seed = std::stoull(val);
    } else if (key == "ops") {
      o.ops = std::stoi(val);
    } else if (key == "ops_per_txn") {
      o.ops_per_txn = std::stoi(val);
    } else if (key == "keyspace") {
      o.keyspace = std::stoull(val);
    } else if (key == "cut_fraction") {
      o.cut_fraction = std::stod(val);
    } else if (key == "nested") {
      o.nested_cut = as_bool();
    } else if (key == "faults") {
      o.inject_faults = as_bool();
    } else if (key == "ordered") {
      o.ordered_queue = as_bool();
    } else if (key == "log_destage") {
      o.log_structured_destage = as_bool();
    } else if (key == "mode") {
      if (val == DurabilityModeName(DurabilityMode::kVolatileFlush)) {
        o.durability_mode = DurabilityMode::kVolatileFlush;
      } else if (val == DurabilityModeName(DurabilityMode::kBarrier)) {
        o.durability_mode = DurabilityMode::kBarrier;
      } else {
        o.durability_mode = DurabilityMode::kDurableOrderedNcq;
      }
    } else if (key == "cut_at_boundary") {
      o.cut_at_barrier_boundary = as_bool();
    } else if (key == "plant_reorder") {
      o.plant_epoch_reorder = as_bool();
    } else if (key == "tiered") {
      o.tiered = as_bool();
    } else if (key == "tier_pct") {
      o.tier_flash_pct = std::stod(val);
    } else if (key == "tier_adm") {
      o.tier_admission = static_cast<uint32_t>(std::stoul(val));
    } else if (key == "tier_batch") {
      o.tier_destage_batch = static_cast<uint32_t>(std::stoul(val));
    } else if (key == "tier_warm") {
      o.tier_warm = as_bool();
    }
    // Unknown keys are ignored: older repro lines keep working.
  }
  return o;
}

CrashHarness::Report CrashHarness::Run(const Options& opt) {
  Report rep;
  const std::vector<Op> ops = MakeOps(opt);
  // Every value ever assigned to each key (for the no-garbage check).
  std::map<std::string, std::set<std::string>> history;
  for (const Op& op : ops) {
    if (op.is_put) history[op.key].insert(op.value);
  }

  // ---- Probe pass: build the oracle on a pristine, cut-free stack. ----
  std::vector<Model> snapshots;
  snapshots.push_back(Model{});  // Snapshot 0: before any commit.
  SimTime total = 0;
  // Device-level commit-boundary instants (barrier seals and flush
  // completions) harvested from the probe pass. Recording never advances
  // virtual time, so the probe timing is unperturbed.
  Tracer boundary_tracer(1 << 16);
  {
    Stack s(opt);
    if (opt.cut_at_barrier_boundary) s.set_tracer(&boundary_tracer);
    const RunResult pr = RunWorkload(s, opt, ops, /*cut=*/0, &snapshots);
    if (!pr.open_ok) {
      AddViolation(&rep, opt, 0, "probe open failed: " + pr.fail.ToString());
      return rep;
    }
    // Degradation under injected faults legitimately stops the workload
    // early; determinism makes the crashing run stop at the same point.
    if (!pr.fail.ok() && !pr.fail.IsResourceExhausted()) {
      AddViolation(&rep, opt, 0,
                   "probe workload failed: " + pr.fail.ToString());
      return rep;
    }
    total = s.io.now;
  }
  if (total <= 0) total = 1;
  SimTime cut =
      static_cast<SimTime>(static_cast<double>(total) * opt.cut_fraction);
  if (opt.cut_at_barrier_boundary) {
    // Snap the cut to an epoch-edge instant: barriers and flush completions
    // are exactly where the suffix the device may lose changes epoch.
    // cut_fraction selects which boundary. Without any boundary event
    // (e.g. the nobarrier deployment syncs without device commands) the
    // fraction-of-total cut above stands.
    std::vector<SimTime> boundaries;
    for (const TraceEvent& e : boundary_tracer.Events()) {
      if (e.type == TraceEventType::kBarrier ||
          e.type == TraceEventType::kFlushDone) {
        boundaries.push_back(e.t);
      }
    }
    if (!boundaries.empty()) {
      size_t idx = static_cast<size_t>(
          opt.cut_fraction * static_cast<double>(boundaries.size() - 1));
      idx = std::min(idx, boundaries.size() - 1);
      cut = boundaries[idx];
    }
  }
  if (cut < 1) cut = 1;

  // ---- Optional replay to learn the recovery duration, so the nested cut
  // can land deterministically in the middle of recovery. ----
  SimTime nested_at = 0;
  if (opt.nested_cut) {
    Stack s(opt);
    RunWorkload(s, opt, ops, cut, nullptr);
    EnsureCrashed(s, cut);
    s.dev()->PowerOn();
    s.io.now = 0;
    EngineHolder probe_eng;
    const Status st = OpenEngine(s, opt, &probe_eng, /*create_tree=*/false);
    // If recovery fails cleanly on this configuration there is nothing to
    // nest into; the main pass handles the clean failure on its own.
    if (st.ok() && s.io.now > 1) nested_at = s.io.now / 2 + 1;
  }

  // ---- The crashing run. ----
  Stack s(opt);
  const RunResult rr = RunWorkload(s, opt, ops, cut, nullptr);
  EnsureCrashed(s, cut);
  rep.cuts = 1;
  // Epoch oracle: the device audits its own durable-cache survivor set at
  // every power cut — keeping any write of epoch N+1 while losing one of
  // epoch N is a barrier-ordering violation regardless of what the engine
  // later recovers. Checked after every cut this Run performs.
  uint64_t epoch_seen = 0;
  const auto check_epoch = [&](CrashHarness::Report* r) {
    const uint64_t v = s.epoch_violations();
    if (v > epoch_seen) {
      AddViolation(r, opt, 5,
                   "epoch ordering: device kept a newer-epoch write while "
                   "losing an older-epoch one (" +
                       std::to_string(v - epoch_seen) + " cut(s))");
      epoch_seen = v;
    }
  };
  check_epoch(&rep);
  rep.commits_acked = rr.commits;
  rep.commit_in_flight = rr.commit_in_flight;
  if (rr.open_ok && rr.fail.ok()) {
    // The whole workload completed before the cut: nothing was in flight.
    rep.commit_in_flight = false;
  }
  if (!rr.open_ok && !rr.fail.IsDeviceOffline()) {
    AddViolation(&rep, opt, 0,
                 "initial open failed: " + rr.fail.ToString());
    return rep;
  }

  const Tier tier = TierFor(opt);

  // ---- Recovery, retrying across nested cuts. ----
  EngineHolder eng;
  Status open_st = Status::OK();
  for (int attempt = 0; attempt < 6; ++attempt) {
    rep.recovery_attempts++;
    s.dev()->PowerOn();
    s.io.now = 0;
    if (attempt == 0 && nested_at > 0) {
      s.dev()->SchedulePowerCut(nested_at);
    } else {
      s.dev()->CancelScheduledPowerCut();
    }
    eng.Reset();
    open_st = OpenEngine(s, opt, &eng, /*create_tree=*/false);
    if (open_st.ok()) {
      s.dev()->CancelScheduledPowerCut();
      break;
    }
    if (open_st.IsDeviceOffline()) {
      rep.cuts++;  // The nested cut tripped inside recovery; go again.
      continue;
    }
    break;  // A clean (non-cut) recovery failure.
  }

  if (!open_st.ok()) {
    rep.recovered = false;
    rep.degraded = s.degraded();
    check_epoch(&rep);  // Nested cuts during recovery are audited too.
    const bool clean = open_st.IsCorruption() || open_st.IsDataLoss();
    if (tier == Tier::kStrict || !clean) {
      AddViolation(&rep, opt, 0, "recovery failed: " + open_st.ToString());
    }
    return rep;
  }
  rep.recovered = true;

  StatusOr<Model> state = DumpState(s, opt, eng);
  if (!state.ok()) {
    AddViolation(&rep, opt, 0,
                 "post-recovery reads failed: " + state.status().ToString());
    return rep;
  }

  // ---- Negative self-test: forge a cross-epoch reordering and require the
  // oracle below to reject it. The forgery keeps the newest pre-cut commit's
  // updates while reverting an older commit's delta — exactly the survivor
  // shape a broken barrier implementation would leave behind. A Run with
  // this flag that still reports ok means the oracle is blind.
  if (opt.plant_epoch_reorder) {
    const uint64_t acked = rr.commits;
    if (acked < 2) {
      AddViolation(&rep, opt, 0,
                   "plant_epoch_reorder requires >= 2 commits before the "
                   "cut; got " +
                       std::to_string(acked));
      return rep;
    }
    Model forged;
    bool planted = false;
    for (uint64_t e = acked - 1; e >= 1; --e) {
      Model trial = snapshots[acked];
      for (const auto& [k, v] : snapshots[e]) {
        auto prev = snapshots[e - 1].find(k);
        const bool differs =
            prev == snapshots[e - 1].end() || prev->second != v;
        if (!differs) continue;
        if (prev == snapshots[e - 1].end()) {
          trial.erase(k);
        } else {
          trial[k] = prev->second;
        }
      }
      if (trial != snapshots[acked]) {
        forged = std::move(trial);
        planted = true;
        break;
      }
    }
    if (!planted) {
      AddViolation(&rep, opt, 0,
                   "plant failed: no commit delta survives into the final "
                   "pre-cut snapshot");
      return rep;
    }
    *state = std::move(forged);
  }

  // ---- Oracle check. ----
  const uint64_t c = rr.commits;
  std::vector<uint64_t> allowed{c};
  if (rr.commit_in_flight && c + 1 < snapshots.size()) {
    allowed.push_back(c + 1);  // The commit-uncertain window.
  }

  if (tier == Tier::kStrict || tier == Tier::kClean) {
    bool matched = false;
    for (const uint64_t idx : allowed) {
      if (*state == snapshots[idx]) {
        matched = true;
        rep.snapshot_matched = idx;
        break;
      }
    }
    if (!matched) {
      const int64_t j = FindSnapshot(*state, snapshots);
      if (j >= 0 && static_cast<uint64_t>(j) < c) {
        AddViolation(&rep, opt, 2,
                     "durability: acked commit lost (recovered snapshot " +
                         std::to_string(j) + ", acked " + std::to_string(c) +
                         ")");
      } else if (j > static_cast<int64_t>(allowed.back())) {
        AddViolation(&rep, opt, 1,
                     "atomicity: unacknowledged commits became visible "
                     "(recovered snapshot " +
                         std::to_string(j) + ", acked " + std::to_string(c) +
                         ")");
      } else {
        AddViolation(&rep, opt, 1,
                     "atomicity: recovered state matches no snapshot: " +
                         DescribeDiff(*state, snapshots[c]));
      }
    }
  } else {  // Tier::kPrefix
    if (opt.engine == Engine::kKvStore) {
      const int64_t j = FindSnapshot(*state, snapshots);
      if (j < 0 || static_cast<uint64_t>(j) > allowed.back()) {
        AddViolation(&rep, opt, 1,
                     "prefix: recovered state is no committed snapshot <= " +
                         std::to_string(allowed.back()) + ": " +
                         DescribeDiff(*state, snapshots[c]));
      } else {
        rep.snapshot_matched = static_cast<uint64_t>(j);
      }
    } else {
      for (const auto& [k, v] : *state) {
        auto h = history.find(k);
        if (h == history.end() || h->second.count(v) == 0) {
          AddViolation(&rep, opt, 3,
                       "no-garbage: key " + k +
                           " recovered a never-written value " + v);
          break;
        }
      }
    }
  }

  // ---- Recovery idempotency: cut immediately after recovering, recover
  // again, and require the bit-identical state. (Skipped for kPrefix: an
  // unsafe configuration may legitimately lose more on the second cut.
  // Skipped under plant_epoch_reorder: the in-memory state was forged, so
  // comparing a real second recovery against it would be meaningless.)
  if (tier != Tier::kPrefix && !opt.plant_epoch_reorder) {
    const Model first = *state;
    eng.Reset();
    s.dev()->PowerCut(s.io.now + 1);
    rep.cuts++;
    s.dev()->PowerOn();
    s.io.now = 0;
    const Status st2 = OpenEngine(s, opt, &eng, /*create_tree=*/false);
    if (!st2.ok()) {
      AddViolation(&rep, opt, 4,
                   "idempotency: second recovery failed: " + st2.ToString());
    } else {
      StatusOr<Model> state2 = DumpState(s, opt, eng);
      if (!state2.ok()) {
        AddViolation(&rep, opt, 4, "idempotency: reads failed: " +
                                       state2.status().ToString());
      } else if (*state2 != first) {
        AddViolation(&rep, opt, 4,
                     "idempotency: second recovery diverged: " +
                         DescribeDiff(*state2, first));
      }
    }
  }

  rep.degraded = s.degraded();
  check_epoch(&rep);  // Covers the idempotency cut.
  return rep;
}

}  // namespace durassd
