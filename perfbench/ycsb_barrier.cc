// ycsb_barrier: YCSB-A (50% updates, 1 KB values, Zipf 0.99) from one
// closed-loop client against kvstore with batch size 1 and write barriers
// ON, so every commit reaches the DuraSSD as FLUSH CACHE (Table 5(a)). The
// index fits kvstore's node cache; the file is far larger than the
// device's cache. Every read is checked against the last acknowledged
// value of its key.
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "kv/kvstore.h"
#include "sim/sim_executor.h"

namespace perfbench {

using durassd::IoContext;
using durassd::KvStore;
using durassd::kKiB;
using durassd::kMiB;
using durassd::Random;
using durassd::SerialExecutor;
using durassd::SsdConfig;
using durassd::Status;
using durassd::StatusOr;
using durassd::ZipfianGenerator;

namespace {

constexpr uint64_t kRecords = 12000;
constexpr uint32_t kValueSize = 1 * kKiB;
constexpr double kZipfTheta = 0.99;
constexpr double kUpdateFraction = 0.5;
constexpr uint32_t kClients = 1;
constexpr uint64_t kTimedOps = 8000;
constexpr uint64_t kCrashSample = 2000;
constexpr char kStoreName[] = "usertable.couch";

std::string UserKey(uint64_t id) { return "user" + std::to_string(id); }

KvStore::Options StoreOptions() {
  KvStore::Options o;
  o.batch_size = 1;
  return o;
}

}  // namespace

int RunYcsbBarrier(const Args& args, int64_t process_start_ns, Report* rep) {
  SpanRecorder rec;
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.store_data = true;
  std::unique_ptr<DeviceStack> stack =
      MakeStack(cfg, /*write_barriers=*/true, args.trace ? &rec : nullptr);
  std::vector<DeviceStack*> stacks = {stack.get()};

  IoContext io;
  StatusOr<std::unique_ptr<KvStore>> opened =
      KvStore::Open(io, stack->fs.get(), kStoreName, StoreOptions());
  if (!opened.ok()) {
    rep->Fail("KvStore::Open failed: " + opened.status().ToString());
    return 0;
  }
  std::unique_ptr<KvStore> store = std::move(*opened);

  // --- Set-up: load every record once (one commit per put). ---
  std::vector<uint64_t> version(kRecords, 0);
  uint64_t next_version = 1;
  std::string value;
  for (uint64_t id = 0; id < kRecords; ++id) {
    const std::string key = UserKey(id);
    version[id] = next_version++;
    FillPayload(HashBytes(key), version[id], kValueSize, &value);
    const Status s = store->Put(io, key, value);
    if (!s.ok()) {
      rep->Fail("load failed: " + s.ToString());
      return 0;
    }
  }
  const uint64_t load_file_bytes = store->file_bytes();

  rep->Info("workload ycsb_barrier seed " + std::to_string(args.seed) +
            (args.trace ? " (traced)" : ""));
  rep->Info("sizes: " + std::to_string(kRecords) + " records of " +
            std::to_string(kValueSize) + " B; store file " +
            std::to_string(load_file_bytes / kMiB) +
            " MiB after load vs device cache " +
            std::to_string(uint64_t{cfg.cache_capacity_sectors} *
                           cfg.sector_size / kMiB) +
            " MiB; device capacity " +
            std::to_string(stack->ssd->capacity_bytes() / kMiB) + " MiB; " +
            std::to_string(kClients) + " virtual client, " +
            std::to_string(kTimedOps) + " timed ops");
  rep->Info("flush policy: DuraSSD, write barriers ON (fsync sends FLUSH "
            "CACHE), kvstore batch size 1 (commit + fsync per update)");
  if (load_file_bytes < 2 * uint64_t{cfg.cache_capacity_sectors} *
                            cfg.sector_size) {
    rep->Fail("ycsb_barrier: store file is not far larger than the cache");
  }

  // --- Timed phase. ---
  ResetDeviceMetrics(stacks);
  store->metrics().Reset();
  const StackCounters base = StackCounters::Sum(stacks);
  const KvStore::Stats kv0 = store->stats();
  const uint64_t file0 = store->file_bytes();

  ZipfianGenerator zipf(kRecords, kZipfTheta);
  std::vector<Random> rngs;
  for (uint32_t c = 0; c < kClients; ++c) {
    rngs.emplace_back(args.seed * 1000003 + c + 1);
  }
  MixDeck deck = MixDeck::TwoKinds(kUpdateFraction,
                                   args.seed * 0x9E3779B97F4A7C15ull + 3);
  OpLog log;
  std::string got;
  std::string expect;
  uint64_t op_seq = 0;
  const auto op = [&](uint32_t client, SimTime start) -> SimTime {
    rec.set_request(op_seq++);
    const int32_t span =
        rec.enabled() ? rec.Begin("op", Layer::kSim, start) : -1;
    Random& rng = rngs[client];
    const uint64_t id = zipf.NextScrambled(rng);
    const std::string key = UserKey(id);
    IoContext oio{start};
    bool ok = true;
    log.attempted++;
    if (deck.Next() == 1) {
      const uint64_t v = next_version++;
      FillPayload(HashBytes(key), v, kValueSize, &value);
      const Status s = Traced(rec, "kv.put", Layer::kKv, oio,
                              [&] { return store->Put(oio, key, value); });
      if (s.ok()) {
        version[id] = v;
        log.user_bytes += key.size() + value.size();
        log.write_ns.push_back(oio.now - start);
      } else {
        ok = false;
        log.bad_status++;
        log.Error("put: " + s.ToString());
      }
    } else {
      const Status s = Traced(rec, "kv.get", Layer::kKv, oio,
                              [&] { return store->Get(oio, key, &got); });
      if (!s.ok()) {
        ok = false;
        log.bad_status++;
        log.Error("get: " + s.ToString());
      } else {
        FillPayload(HashBytes(key), version[id], kValueSize, &expect);
        if (got != expect) {
          ok = false;
          log.wrong_bytes++;
          log.Error("get of " + key +
                    " returned other bytes than its last acknowledged put");
        }
        log.read_ns.push_back(oio.now - start);
      }
    }
    if (span >= 0) rec.End(span, oio.now, ok);
    return oio.now;
  };

  TimedPhase tp;
  tp.process_start_ns = process_start_ns;
  rec.set_enabled(args.trace);
  tp.Start();
  const auto run = SerialExecutor().Run(kClients, kTimedOps, io.now, op);
  tp.Stop();
  rec.set_enabled(false);
  tp.ops = run.ops;
  tp.makespan = run.makespan;
  const StackCounters delta = StackCounters::Sum(stacks) - base;
  const KvStore::Stats kv1 = store->stats();
  const uint64_t puts = kv1.puts - kv0.puts;
  const uint64_t commits = kv1.commits - kv0.commits;

  rep->Set("kv.node_appends_per_put",
           puts == 0 ? 0.0
                     : static_cast<double>(kv1.node_appends -
                                           kv0.node_appends) /
                           static_cast<double>(puts),
           "1/op");
  rep->Set("kv.file_bytes_per_user_byte",
           log.user_bytes == 0
               ? 0.0
               : static_cast<double>(store->file_bytes() - file0) /
                     static_cast<double>(log.user_bytes),
           "ratio");
  const auto& hist = store->metrics().histograms();
  const auto commit = hist.find("kv.commit_ns");
  if (commit != hist.end()) {
    rep->Set("kv.commit_sim_p50_us",
             static_cast<double>(commit->second.Percentile(50)) / 1e3, "us");
    rep->Set("kv.commit_sim_p99_us",
             static_cast<double>(commit->second.Percentile(99)) / 1e3, "us");
  }
  rep->Set("kv.failed_calls", static_cast<double>(log.bad_status), "count");

  // --- Self-checks: every commit reaches the device as FLUSH, no GC. ---
  char line[200];
  snprintf(line, sizeof(line),
           "timed phase: %" PRIu64 " puts, %" PRIu64 " commits, %" PRIu64
           " FLUSH commands, %" PRIu64 " fsyncs",
           puts, commits, delta.fs_flush_cmds, delta.fs_syncs);
  rep->Info(line);
  if (commits == 0 || commits != puts || delta.fs_flush_cmds != commits) {
    rep->Fail("ycsb_barrier: not every commit reached the device as FLUSH");
  }
  if (delta.gc_runs != 0) rep->Fail("ycsb_barrier: GC ran");

  // --- End-of-run power cut at the last acknowledged instant, then
  // recovery through KvStore::Open and a sampled re-read. ---
  const SimTime last_ack = io.now + run.makespan;
  stack->top()->PowerCut(last_ack);
  store.reset();
  IoContext rio{stack->top()->PowerOn()};
  opened = KvStore::Open(rio, stack->fs.get(), kStoreName, StoreOptions());
  double recovery_ms = 0;
  if (!opened.ok()) {
    rep->Fail("recovery failed: " + opened.status().ToString());
    rep->failed++;
  } else {
    store = std::move(*opened);
    recovery_ms = static_cast<double>(rio.now) / 1e6;
    Random sample(args.seed ^ 0xC3A5C85C97CB3127ull);
    uint64_t lost = 0;
    std::string first;
    for (uint64_t i = 0; i < kCrashSample; ++i) {
      const uint64_t id = sample.Uniform(kRecords);
      const std::string key = UserKey(id);
      const Status s = store->Get(rio, key, &got);
      FillPayload(HashBytes(key), version[id], kValueSize, &expect);
      if (!s.ok() || got != expect) {
        if (lost++ == 0) first = key + ": " + s.ToString();
      }
    }
    rep->attempted += kCrashSample;
    rep->failed += lost;
    if (lost > 0) {
      rep->Fail("crash check: " + std::to_string(lost) +
                " sampled acknowledged puts lost or wrong; first " + first);
    }
    rep->Info("crash check: " + std::to_string(kCrashSample) +
              " sampled keys re-read after the power cut, " +
              std::to_string(lost) + " lost");
  }

  ReportEndToEnd(args, tp, log, delta, recovery_ms, rep);
  const SpanSummary spans = Summarize(rec.spans());
  ReportStackLayers(args, tp, delta, stacks, rec, spans, rep);
  if (args.trace) {
    rep->Set("kv.self_us_per_op",
             static_cast<double>(
                 spans.self_ns[static_cast<size_t>(Layer::kKv)]) /
                 1e3 / static_cast<double>(tp.ops),
             "us");
    rep->Set("kv.put_us", spans.MeanUs("kv.put"), "us");
    rep->Set("kv.get_us", spans.MeanUs("kv.get"), "us");
  }
  return 0;
}

}  // namespace perfbench
