// device_gc: 4 KB random I/O (70% writes, 30% reads) from 8 closed-loop
// clients straight through SimFile onto a small DuraSSD with barriers off
// and an fsync every 8 writes per client. Set-up fills a working set far
// larger than the device cache and overwrites it at random until garbage
// collection runs steadily, so the timed phase exercises the FTL's GC and
// mapping-delta paths on every quarter.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"
#include "common/random.h"
#include "sim/sim_executor.h"

namespace perfbench {

using durassd::kKiB;
using durassd::kMiB;
using durassd::Random;
using durassd::SerialExecutor;
using durassd::SimFile;
using durassd::SsdConfig;

namespace {

constexpr uint32_t kClients = 8;
constexpr uint64_t kTimedOps = 48000;
constexpr double kWriteFraction = 0.70;
constexpr uint32_t kSyncEvery = 8;       ///< fsync after every 8th write.
constexpr double kFill = 0.75;           ///< Working set / logical capacity.
constexpr double kPreconditionPasses = 1.5;  ///< Random overwrites, x set.
constexpr uint64_t kCrashSample = 4000;  ///< Sectors re-read after the cut.
/// Write amplification of the last timed quarter must lie within this
/// share of the previous quarter's (GC has levelled off).
constexpr double kWaBand = 0.10;

SsdConfig GcDevice() {
  SsdConfig c = SsdConfig::DuraSsd();
  c.store_data = true;
  c.geometry.channels = 4;
  c.geometry.packages_per_channel = 1;
  c.geometry.chips_per_package = 2;
  c.geometry.planes_per_chip = 2;   // 16 planes.
  c.geometry.blocks_per_plane = 32;
  c.geometry.pages_per_block = 32;  // 16 x 32 x 32 x 8 KB = 128 MiB raw.
  c.write_buffer_sectors = 512;     // 2 MiB write buffer.
  c.cache_capacity_sectors = 1024;  // 4 MiB device cache.
  c.capacitor_budget_bytes = 8 * kMiB;
  return c;
}

}  // namespace

int RunDeviceGc(const Args& args, int64_t process_start_ns, Report* rep) {
  SpanRecorder rec;
  const SsdConfig cfg = GcDevice();
  std::unique_ptr<DeviceStack> stack =
      MakeStack(cfg, /*write_barriers=*/false, args.trace ? &rec : nullptr);
  const uint32_t sector = stack->ssd->sector_size();
  const uint64_t logical = stack->ssd->num_sectors();
  const uint64_t chunk = stack->fs->options().chunk_sectors;
  // Whole file-system chunks after the journal area, at ~kFill of capacity.
  const uint64_t usable = logical - stack->fs->options().journal_area_sectors;
  const uint64_t working_set =
      static_cast<uint64_t>(kFill * static_cast<double>(usable)) / chunk *
      chunk;

  rep->Info("workload device_gc seed " + std::to_string(args.seed) +
            (args.trace ? " (traced)" : ""));
  rep->Info("sizes: working set " +
            std::to_string(working_set * sector / kMiB) + " MiB (" +
            std::to_string(working_set) + " sectors) vs device cache " +
            std::to_string(cfg.cache_capacity_sectors * sector / kMiB) +
            " MiB; device capacity " +
            std::to_string(logical * sector / kMiB) + " MiB logical over " +
            std::to_string(cfg.geometry.total_bytes() / kMiB) + " MiB raw (" +
            std::to_string(cfg.geometry.total_planes()) + " planes x " +
            std::to_string(cfg.geometry.blocks_per_plane) + " blocks); " +
            std::to_string(kClients) + " virtual clients, " +
            std::to_string(kTimedOps) + " timed ops");
  rep->Info("flush policy: DuraSSD, write barriers off, no engine, fsync "
            "every " + std::to_string(kSyncEvery) +
            " writes per client; 70% 4 KB writes / 30% 4 KB reads, uniform");

  SimFile* file = stack->fs->Open("gc.dat");
  if (!file->Allocate(working_set * sector).ok()) {
    rep->Fail("cannot allocate the working set");
    return 0;
  }
  std::vector<uint32_t> version(working_set, 0);
  std::string buf;

  // --- Set-up: sequential fill, then random overwrites until GC runs. ---
  SimTime now = 0;
  constexpr uint64_t kFillRun = 64;  // Sectors per sequential write.
  for (uint64_t s = 0; s < working_set; s += kFillRun) {
    std::string run;
    for (uint64_t i = s; i < s + kFillRun && i < working_set; ++i) {
      FillPayload(i, 0, sector, &buf);
      run += buf;
    }
    const SimFile::IoResult r = file->Write(now, s * sector, run);
    if (!r.status.ok()) {
      rep->Fail("precondition fill failed: " + r.status.ToString());
      return 0;
    }
    now = r.done;
  }
  Random pre_rng(args.seed * 0x5851F42D4C957F2Dull + 17);
  const auto overwrites = static_cast<uint64_t>(
      kPreconditionPasses * static_cast<double>(working_set));
  for (uint64_t i = 0; i < overwrites; ++i) {
    const uint64_t s = pre_rng.Uniform(working_set);
    FillPayload(s, ++version[s], sector, &buf);
    const SimFile::IoResult r = file->Write(now, s * sector, buf);
    if (!r.status.ok()) {
      rep->Fail("precondition overwrite failed: " + r.status.ToString());
      return 0;
    }
    now = r.done;
  }
  const SimFile::IoResult first_sync = file->Sync(now);
  now = first_sync.done;

  // --- Timed phase. ---
  std::vector<DeviceStack*> stacks = {stack.get()};
  ResetDeviceMetrics(stacks);
  const StackCounters base = StackCounters::Sum(stacks);
  std::vector<Random> rngs;
  for (uint32_t c = 0; c < kClients; ++c) {
    rngs.emplace_back(args.seed * 1000003 + c);
  }
  MixDeck deck =
      MixDeck::TwoKinds(kWriteFraction, args.seed * 0x9E3779B97F4A7C15ull + 3);
  std::vector<uint32_t> writes_since_sync(kClients, 0);
  OpLog log;
  log.read_ns.reserve(kTimedOps);
  log.write_ns.reserve(kTimedOps);
  std::vector<StackCounters> quarter_marks;
  std::string expect;
  uint64_t op_seq = 0;

  const auto host_call = [&](const char* name, SimTime at, auto&& fn) {
    const int32_t idx =
        rec.enabled() ? rec.Begin(name, Layer::kHost, at) : -1;
    const SimFile::IoResult r = fn();
    if (idx >= 0) rec.End(idx, r.done, r.status.ok());
    return r;
  };

  const auto op = [&](uint32_t client, SimTime start) -> SimTime {
    if (op_seq % (kTimedOps / 4) == 0) {
      quarter_marks.push_back(StackCounters::Sum(stacks));
    }
    rec.set_request(op_seq++);
    const int32_t span =
        rec.enabled() ? rec.Begin("op", Layer::kSim, start) : -1;
    Random& rng = rngs[client];
    const bool is_write = deck.Next() == 1;
    const uint64_t s = rng.Uniform(working_set);
    SimTime done = start;
    bool ok = true;
    log.attempted++;
    if (is_write) {
      FillPayload(s, version[s] + 1, sector, &buf);
      SimFile::IoResult r = host_call("host.write", start, [&] {
        return file->Write(start, s * sector, buf);
      });
      if (r.status.ok()) {
        version[s]++;
        log.user_bytes += sector;
        if (++writes_since_sync[client] == kSyncEvery) {
          writes_since_sync[client] = 0;
          const SimTime at = r.done;
          r = host_call("host.sync", at, [&] { return file->Sync(at); });
        }
      }
      done = r.done;
      if (!r.status.ok()) {
        ok = false;
        log.bad_status++;
        log.Error("write: " + r.status.ToString());
      } else {
        log.write_ns.push_back(done - start);
      }
    } else {
      std::string out;
      const SimFile::IoResult r = host_call("host.read", start, [&] {
        return file->Read(start, s * sector, sector, &out);
      });
      done = r.done;
      if (!r.status.ok()) {
        ok = false;
        log.bad_status++;
        log.Error("read: " + r.status.ToString());
      } else {
        FillPayload(s, version[s], sector, &expect);
        if (out != expect) {
          ok = false;
          log.wrong_bytes++;
          log.Error("read of sector " + std::to_string(s) +
                    " returned other bytes than its last acknowledged write");
        }
        log.read_ns.push_back(done - start);
      }
    }
    if (span >= 0) rec.End(span, done, ok);
    return done;
  };

  TimedPhase tp;
  tp.process_start_ns = process_start_ns;
  rec.set_enabled(args.trace);
  tp.Start();
  const auto run = SerialExecutor().Run(kClients, kTimedOps, now, op);
  tp.Stop();
  rec.set_enabled(false);
  tp.ops = run.ops;
  tp.makespan = run.makespan;
  const StackCounters delta = StackCounters::Sum(stacks) - base;
  quarter_marks.push_back(StackCounters::Sum(stacks));

  // --- Self-checks: GC in every quarter, levelled write amplification. ---
  std::vector<double> wa;
  for (size_t q = 0; q + 1 < quarter_marks.size(); ++q) {
    const StackCounters d = quarter_marks[q + 1] - quarter_marks[q];
    const double host_bytes =
        static_cast<double>(d.host_written_sectors) * sector;
    wa.push_back(host_bytes == 0 ? 0 : static_cast<double>(d.nand_bytes) /
                                           host_bytes);
    char line[160];
    snprintf(line, sizeof(line),
             "quarter %zu: gc_runs %" PRIu64 ", gc_erases %" PRIu64
             ", write amplification %.4f",
             q + 1, d.gc_runs, d.gc_erases, wa.back());
    rep->Info(line);
    if (d.gc_runs == 0) {
      rep->Fail("device_gc: no GC in timed quarter " + std::to_string(q + 1));
    }
  }
  if (wa.size() == 4) {
    const double drift = std::fabs(wa[3] / wa[2] - 1.0);
    char line[160];
    snprintf(line, sizeof(line),
             "write amplification drift last vs previous quarter %.4f "
             "(band %.2f)",
             drift, kWaBand);
    rep->Info(line);
    if (!(drift <= kWaBand)) {
      rep->Fail("device_gc: write amplification has not levelled off");
    }
  } else {
    rep->Fail("device_gc: quarter bookkeeping incomplete");
  }
  if (delta.degraded_rejects != 0) {
    rep->Fail("device_gc: device rejected writes in degraded mode");
  }
  if (delta.fs_flush_cmds != 0) rep->Fail("device_gc: FLUSH was sent");

  // --- End-of-run power cut at the last acknowledged instant. ---
  const SimTime last_ack = now + run.makespan;
  stack->top()->PowerCut(last_ack);
  const SimTime recovery = stack->top()->PowerOn();
  Random sample_rng(args.seed ^ 0xC3A5C85C97CB3127ull);
  uint64_t lost = 0;
  SimTime t = recovery;
  std::string out;
  for (uint64_t i = 0; i < kCrashSample; ++i) {
    const uint64_t s = sample_rng.Uniform(working_set);
    const SimFile::IoResult r = file->Read(t, s * sector, sector, &out);
    t = r.done;
    FillPayload(s, version[s], sector, &expect);
    if (!r.status.ok() || out != expect) lost++;
  }
  rep->attempted += kCrashSample;
  rep->failed += lost;
  if (lost > 0) {
    rep->Fail("crash check: " + std::to_string(lost) + " of " +
              std::to_string(kCrashSample) +
              " sampled acknowledged writes lost or wrong after power cut");
  }
  rep->Info("crash check: " + std::to_string(kCrashSample) +
            " sampled sectors re-read after the power cut, " +
            std::to_string(lost) + " lost");

  ReportEndToEnd(args, tp, log, delta, static_cast<double>(recovery) / 1e6,
                 rep);
  const SpanSummary spans = Summarize(rec.spans());
  ReportStackLayers(args, tp, delta, stacks, rec, spans, rep);
  return 0;
}

}  // namespace perfbench
