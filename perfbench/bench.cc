#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/histogram.h"

namespace perfbench {

using durassd::SsdDevice;

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

bool WriteSamples(const OpLog& log, const std::string& path) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto list = [f](const char* key, const std::vector<int64_t>& v) {
    fprintf(f, "\"%s\":[", key);
    for (size_t i = 0; i < v.size(); ++i) {
      fprintf(f, i == 0 ? "%lld" : ",%lld", static_cast<long long>(v[i]));
    }
    fprintf(f, "]");
  };
  fprintf(f, "{");
  list("read_ns", log.read_ns);
  fprintf(f, ",");
  list("write_ns", log.write_ns);
  fprintf(f, "}\n");
  return fclose(f) == 0;
}

}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Print(const Args& args) const {
  for (const std::string& line : info_) printf("# %s\n", line.c_str());
  for (const std::string& f : failures_) {
    printf("# CHECK FAILED: %s\n", f.c_str());
  }
  std::string json = "{\"workload\":" + JsonString(args.workload) +
                     ",\"seed\":" + std::to_string(args.seed) +
                     ",\"trace\":" + (args.trace ? "1" : "0") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"failures\":[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) json += ",";
    json += JsonString(failures_[i]);
  }
  json += "],\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char num[64];
    snprintf(num, sizeof(num), "%.17g", metrics_[i].value);
    if (i > 0) json += ",";
    json += JsonString(metrics_[i].name) + ":{\"value\":" + num +
            ",\"unit\":" + JsonString(metrics_[i].unit) + "}";
  }
  json += "}}";
  printf("RESULT %s\n", json.c_str());
  fflush(stdout);
}

MixDeck MixDeck::TwoKinds(double share, uint64_t seed) {
  std::vector<int> cards(100, 0);
  std::fill_n(cards.begin(), static_cast<size_t>(share * 100 + 0.5), 1);
  return MixDeck(std::move(cards), seed);
}

int MixDeck::Next() {
  if (pos_ == deck_.size()) {
    for (size_t i = deck_.size(); i > 1; --i) {
      std::swap(deck_[i - 1], deck_[rng_.Uniform(i)]);
    }
    pos_ = 0;
  }
  return deck_[pos_++];
}

double Percentile(std::vector<int64_t>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double rank = p / 100.0 * static_cast<double>(v->size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>((*v)[lo]) +
         frac * static_cast<double>((*v)[hi] - (*v)[lo]);
}

uint64_t HashBytes(const char* data, size_t len) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001B3ull;
  }
  return h;
}

void FillPayload(uint64_t key_hash, uint64_t version, size_t len,
                 std::string* out) {
  out->resize(len);
  // SplitMix64 stream seeded by (key, version): every 8-byte word differs.
  uint64_t x = key_hash ^ (version * 0x9E3779B97F4A7C15ull);
  size_t i = 0;
  while (i < len) {
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    const size_t n = std::min<size_t>(8, len - i);
    memcpy(&(*out)[i], &z, n);
    i += n;
  }
}

std::unique_ptr<DeviceStack> MakeStack(const durassd::SsdConfig& cfg,
                                       bool write_barriers,
                                       SpanRecorder* traced) {
  auto s = std::make_unique<DeviceStack>();
  s->ssd = std::make_unique<SsdDevice>(cfg);
  if (traced != nullptr) {
    s->tracing = std::make_unique<TracingDevice>(s->ssd.get(), traced);
  }
  durassd::SimFileSystem::Options fso;
  fso.write_barriers = write_barriers;
  s->fs = std::make_unique<durassd::SimFileSystem>(s->top(), fso);
  return s;
}

StackCounters StackCounters::Read(DeviceStack& s) {
  const SsdDevice& dev = *s.ssd;
  StackCounters c;
  const SsdDevice::Stats& st = dev.stats();
  c.host_writes = st.host_writes;
  c.host_written_sectors = st.host_written_sectors;
  c.cache_read_hits = st.cache_read_hits;
  c.cache_read_misses = st.cache_read_misses;
  c.write_stalls = st.write_stalls;
  c.write_stall_time = st.write_stall_time;
  c.reads_stalled_by_flush = st.reads_stalled_by_flush;
  c.destage_absorbed = st.destage_absorbed;
  c.destage_batches = st.destage_batches;
  const durassd::Ftl::Stats& fs = dev.ftl().stats();
  c.gc_runs = fs.gc_runs;
  c.gc_programs = fs.gc_programs;
  c.gc_erases = fs.gc_erases;
  c.degraded_rejects = fs.degraded_rejects + st.degraded_write_rejects;
  const durassd::FlashArray::Stats& fl = dev.flash().stats();
  c.nand_programs = fl.programs;
  c.nand_bytes = fl.programs * dev.config().geometry.page_size;
  c.nand_reads = fl.reads;
  c.nand_erases = fl.erases;
  c.multi_plane_programs = fl.multi_plane_programs;
  c.submit_stall_time = s.top()->submit_stall_time();
  c.failed_cmds = s.tracing ? s.tracing->failed_cmds() : 0;
  const durassd::SimFileSystem::Stats& hs = s.fs->stats();
  c.fs_syncs = hs.syncs;
  c.fs_batched_syncs = hs.batched_syncs;
  c.fs_journal_writes = hs.journal_writes;
  c.fs_flush_cmds = hs.flush_cmds;
  return c;
}

StackCounters StackCounters::Sum(const std::vector<DeviceStack*>& stacks) {
  StackCounters sum;
  for (DeviceStack* s : stacks) sum += Read(*s);
  return sum;
}

#define PERFBENCH_COUNTER_FIELDS(X)                                         \
  X(host_writes) X(host_written_sectors) X(cache_read_hits)                 \
  X(cache_read_misses) X(write_stalls) X(write_stall_time)                  \
  X(reads_stalled_by_flush) X(destage_absorbed) X(destage_batches)          \
  X(gc_runs) X(gc_programs) X(gc_erases) X(degraded_rejects)                \
  X(nand_programs) X(nand_bytes) X(nand_reads) X(nand_erases)               \
  X(multi_plane_programs) X(submit_stall_time) X(failed_cmds) X(fs_syncs)   \
  X(fs_batched_syncs) X(fs_journal_writes) X(fs_flush_cmds)

StackCounters StackCounters::operator-(const StackCounters& base) const {
  StackCounters d;
#define PERFBENCH_SUB(f) d.f = f - base.f;
  PERFBENCH_COUNTER_FIELDS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
  return d;
}

StackCounters& StackCounters::operator+=(const StackCounters& o) {
#define PERFBENCH_ADD(f) f += o.f;
  PERFBENCH_COUNTER_FIELDS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
  return *this;
}

void ResetDeviceMetrics(const std::vector<DeviceStack*>& stacks) {
  for (DeviceStack* s : stacks) s->ssd->metrics().Reset();
}

void ReportEndToEnd(const Args& args, const TimedPhase& tp, const OpLog& log,
                    const StackCounters& delta, double recovery_sim_ms,
                    Report* rep) {
  if (!args.samples_path.empty() && !WriteSamples(log, args.samples_path)) {
    rep->Fail("cannot write latency samples to " + args.samples_path);
  }
  const double wall_s =
      static_cast<double>(tp.timed_end_ns - tp.timed_start_ns) / 1e9;
  const double sim_s = static_cast<double>(tp.makespan) / 1e9;
  rep->Set("wall_ops_per_s", Ratio(static_cast<double>(tp.ops), wall_s),
           "ops/s");
  rep->Set("timed_wall_s", wall_s, "s");

  rep->Set("setup_s",
           static_cast<double>(tp.timed_start_ns - tp.process_start_ns) / 1e9,
           "s");
  rep->Set("sim_ops_per_s", Ratio(static_cast<double>(tp.ops), sim_s),
           "ops/s");
  rep->Set("timed_ops", static_cast<double>(tp.ops), "count");
  rep->Set("sim_makespan_s", sim_s, "s");
  rep->Set("timed_nand_bytes", static_cast<double>(delta.nand_bytes), "B");
  rep->Set("timed_user_bytes", static_cast<double>(log.user_bytes), "B");
  rep->Set("nand_bytes_per_user_byte",
           Ratio(static_cast<double>(delta.nand_bytes),
                 static_cast<double>(log.user_bytes)),
           "ratio");
  rep->Set("recovery_sim_ms", recovery_sim_ms, "ms");
  rep->attempted += log.attempted;
  rep->failed += log.failed();
  if (log.failed() > 0) {
    rep->Fail(std::to_string(log.bad_status) + " ops returned an error and " +
              std::to_string(log.wrong_bytes) +
              " reads returned wrong bytes; first: " + log.first_error);
  }
  const size_t reads = log.read_ns.size();
  const size_t writes = log.write_ns.size();
  if (reads < 1000 || writes < 1000) {
    rep->Fail("a latency class has fewer than 1000 samples (reads " +
              std::to_string(reads) + ", writes " + std::to_string(writes) +
              ")");
  }
}

void ReportStackLayers(const Args& args, const TimedPhase& tp,
                       const StackCounters& d,
                       const std::vector<DeviceStack*>& stacks,
                       const SpanRecorder& rec, const SpanSummary& spans,
                       Report* rep) {
  if (args.trace && !args.spans_path.empty() &&
      !rec.WriteTsv(args.spans_path)) {
    rep->Fail("cannot write spans to " + args.spans_path);
  }
  const double ops = static_cast<double>(tp.ops);
  const auto per_op_us = [&](Layer l) {
    return Ratio(static_cast<double>(spans.self_ns[static_cast<size_t>(l)]) /
                     1e3,
                 ops);
  };
  if (args.trace) {
    // The sim layer is everything in the timed phase no other layer covers:
    // the closed-loop scheduler, input generation and result checks.
    int64_t other = 0;
    for (size_t l = 0; l < kNumLayers; ++l) {
      if (l != static_cast<size_t>(Layer::kSim)) other += spans.self_ns[l];
    }
    const double sim_self =
        static_cast<double>(tp.timed_end_ns - tp.timed_start_ns - other);
    rep->Set("sim.self_us_per_op", Ratio(sim_self / 1e3, ops), "us");
    rep->Set("host.self_us_per_op", per_op_us(Layer::kHost), "us");
    rep->Set("ssd.us_per_op", per_op_us(Layer::kSsd), "us");
    rep->Set("ssd.write_us", spans.MeanUs("ssd.write"), "us");
    rep->Set("ssd.read_us", spans.MeanUs("ssd.read"), "us");
    rep->Set("ssd.flush_us", spans.MeanUs("ssd.flush"), "us");
    std::vector<int64_t> w, r, f;
    for (const Span& s : rec.spans()) {
      if (s.layer != Layer::kSsd) continue;
      const int64_t v = s.v_done - s.v_issue;
      if (strcmp(s.name, "ssd.write") == 0) w.push_back(v);
      if (strcmp(s.name, "ssd.read") == 0) r.push_back(v);
      if (strcmp(s.name, "ssd.flush") == 0) f.push_back(v);
    }
    rep->Set("ssd.write_sim_p50_us", Percentile(&w, 50) / 1e3, "us");
    rep->Set("ssd.write_sim_p99_us", Percentile(&w, 99) / 1e3, "us");
    rep->Set("ssd.read_sim_p50_us", Percentile(&r, 50) / 1e3, "us");
    rep->Set("ssd.read_sim_p99_us", Percentile(&r, 99) / 1e3, "us");
    rep->Set("ssd.flush_sim_p50_us", Percentile(&f, 50) / 1e3, "us");
    rep->Set("ssd.flush_sim_p99_us", Percentile(&f, 99) / 1e3, "us");
    rep->Set("ssd.failed_cmds", static_cast<double>(d.failed_cmds), "count");
  }
  durassd::Histogram ncq, drain;
  for (DeviceStack* s : stacks) {
    const auto& hs = s->ssd->metrics().histograms();
    const auto n = hs.find("ssd.ncq_wait_ns");
    if (n != hs.end()) ncq.Merge(n->second);
    const auto f = hs.find("ssd.flush_drain_ns");
    if (f != hs.end()) drain.Merge(f->second);
  }
  rep->Set("ssd.ncq_wait_sim_us", ncq.Mean() / 1e3, "us");
  rep->Set("ssd.frame_stall_sim_us",
           Ratio(static_cast<double>(d.write_stall_time) / 1e3,
                 static_cast<double>(d.host_writes)),
           "us");
  rep->Set("ssd.write_stalls", static_cast<double>(d.write_stalls), "count");
  rep->Set("ssd.flush_drain_sim_us", drain.Mean() / 1e3, "us");
  rep->Set("ssd.reads_stalled_by_flush",
           static_cast<double>(d.reads_stalled_by_flush), "count");
  rep->Set("ssd.cache_read_hit_ratio",
           Ratio(static_cast<double>(d.cache_read_hits),
                 static_cast<double>(d.cache_read_hits + d.cache_read_misses)),
           "ratio");
  rep->Set("ssd.destage_absorbed_ratio",
           Ratio(static_cast<double>(d.destage_absorbed),
                 static_cast<double>(d.host_written_sectors)),
           "ratio");
  rep->Set("ssd.sectors_per_destage_batch",
           Ratio(static_cast<double>(d.host_written_sectors -
                                     d.destage_absorbed),
                 static_cast<double>(d.destage_batches)),
           "count");
  const double sector = stacks.empty() ? 4096.0 : stacks[0]->ssd->sector_size();
  rep->Set("ssd.write_amp",
           Ratio(static_cast<double>(d.nand_bytes),
                 static_cast<double>(d.host_written_sectors) * sector),
           "ratio");
  rep->Set("ssd.gc_runs", static_cast<double>(d.gc_runs), "count");
  rep->Set("ssd.gc_erases", static_cast<double>(d.gc_erases), "count");
  rep->Set("ssd.gc_relocations_per_erase",
           Ratio(static_cast<double>(d.gc_programs),
                 static_cast<double>(d.gc_erases)),
           "ratio");
  rep->Set("flash.programs_per_op",
           Ratio(static_cast<double>(d.nand_programs), ops), "1/op");
  rep->Set("flash.reads_per_op", Ratio(static_cast<double>(d.nand_reads), ops),
           "1/op");
  rep->Set("flash.erases_per_op",
           Ratio(static_cast<double>(d.nand_erases), ops), "1/op");
  rep->Set("flash.multi_plane_ratio",
           Ratio(2.0 * static_cast<double>(d.multi_plane_programs),
                 static_cast<double>(d.nand_programs)),
           "ratio");
  rep->Set("host.flush_cmds", static_cast<double>(d.fs_flush_cmds), "count");
  rep->Set("host.batched_sync_ratio",
           Ratio(static_cast<double>(d.fs_batched_syncs),
                 static_cast<double>(d.fs_syncs)),
           "ratio");
  rep->Set("host.journal_writes_per_op",
           Ratio(static_cast<double>(d.fs_journal_writes), ops), "1/op");
  rep->Set("host.submit_stall_sim_us",
           Ratio(static_cast<double>(d.submit_stall_time) / 1e3, ops), "us");
}

double PeakRssMb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace perfbench
