#ifndef DURASSD_BENCH_BENCH_JSON_H_
#define DURASSD_BENCH_BENCH_JSON_H_

// Machine-readable bench output (`--json <path>`). Every bench binary emits
// one document with a stable schema so run_benches.sh --json can aggregate
// them into BENCH_results.json:
//
//   {
//     "schema_version": 1,
//     "bench": "<binary name>",
//     "quick": false,
//     "config": { ... bench-wide knobs ... },
//     "results": [
//       {
//         "name": "<row label>",
//         "wall_seconds": 1.25,
//         "failed_ops": 0,
//         "params": { ... per-row knobs ... },
//         "throughput": {"value": 1234.5, "unit": "txn/s"},
//         "latency_ns": {"count","mean","min","p25",...,"p999","max"},
//         "values": { ... extra scalar outputs (WA, reductions, ...) ... },
//         "engine": {"db": {...}, "wal": {...}, "pool": {...}}
//                   or {"kv": {...}},
//         "device": {"stats": {...}, "faults": {...}, "store": {...},
//                    "metrics": {...}},
//         "metrics": {"histograms": { ... engine latency histograms ... }}
//       }, ...
//     ]
//   }
//
// Every count comes from the Stats struct of the component that keeps it
// ("engine" and "device.stats"/"faults"/"store"); the "metrics" sections
// hold the registries' histograms. "wall_seconds" is the host time the row
// took: since the previous row was added (or the BenchJson was made, for
// the first). Sections a bench does not populate are simply absent. Text
// output is unchanged; JSON is written on top of it at exit.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/json.h"
#include "common/metrics.h"
#include "db/database.h"
#include "kv/kvstore.h"
#include "ssd/ssd_device.h"

namespace durassd {

namespace bench_json_internal {

inline std::string Scalar(uint64_t v) {
  JsonWriter w;
  w.Uint(v);
  return w.TakeString();
}
inline std::string Scalar(int64_t v) {
  JsonWriter w;
  w.Int(v);
  return w.TakeString();
}
inline std::string Scalar(double v) {
  JsonWriter w;
  w.Double(v);
  return w.TakeString();
}
inline std::string Scalar(bool v) {
  JsonWriter w;
  w.Bool(v);
  return w.TakeString();
}
inline std::string Scalar(const std::string& v) {
  JsonWriter w;
  w.String(v);
  return w.TakeString();
}
inline std::string Scalar(const char* v) { return Scalar(std::string(v)); }

using Fields = std::vector<std::pair<std::string, std::string>>;

inline void AppendFields(const Fields& fields, JsonWriter* w) {
  w->BeginObject();
  for (const auto& [key, raw] : fields) {
    w->Key(key);
    w->Raw(raw);
  }
  w->EndObject();
}

inline void AppendDeviceJson(const SsdDevice& dev, JsonWriter* w) {
  const SsdDevice::Stats& s = dev.stats();
  const Ftl::Stats& ftl = dev.ftl().stats();
  const FlashArray::Stats& flash = dev.flash().stats();
  const SectorStore::Stats& store = dev.flash().store().stats();
  w->BeginObject();
  w->Key("stats");
  w->BeginObject();
  w->Key("host_writes"); w->Uint(s.host_writes);
  w->Key("host_written_sectors"); w->Uint(s.host_written_sectors);
  w->Key("host_reads"); w->Uint(s.host_reads);
  w->Key("host_read_sectors"); w->Uint(s.host_read_sectors);
  w->Key("cache_read_hits"); w->Uint(s.cache_read_hits);
  w->Key("cache_read_misses"); w->Uint(s.cache_read_misses);
  w->Key("cache_full_hits"); w->Uint(s.cache_full_hits);
  w->Key("cache_partial_hits"); w->Uint(s.cache_partial_hits);
  w->Key("flushes"); w->Uint(s.flushes);
  w->Key("write_stalls"); w->Uint(s.write_stalls);
  w->Key("write_stall_time_ns"); w->Int(s.write_stall_time);
  w->Key("dumped_pages"); w->Uint(s.dumped_pages);
  w->Key("replayed_pages"); w->Uint(s.replayed_pages);
  w->Key("dropped_incomplete"); w->Uint(s.dropped_incomplete);
  w->Key("capacitor_overruns"); w->Uint(s.capacitor_overruns);
  w->Key("reads_stalled_by_flush"); w->Uint(s.reads_stalled_by_flush);
  w->Key("degraded_write_rejects"); w->Uint(s.degraded_write_rejects);
  w->Key("barriers"); w->Uint(s.barriers);
  w->Key("destage_absorbed"); w->Uint(s.destage_absorbed);
  w->Key("destage_batches"); w->Uint(s.destage_batches);
  w->Key("multi_plane_programs"); w->Uint(flash.multi_plane_programs);
  w->Key("log_segments"); w->Uint(s.log_segments);
  w->Key("log_segment_sectors"); w->Uint(s.log_segment_sectors);
  w->Key("log_replayed_segments"); w->Uint(s.log_replayed_segments);
  w->Key("log_torn_segments"); w->Uint(s.log_torn_segments);
  w->Key("log_recovered_sectors"); w->Uint(s.log_recovered_sectors);
  w->Key("log_dropped_sectors"); w->Uint(s.log_dropped_sectors);
  w->Key("gc_runs"); w->Uint(ftl.gc_runs);
  w->Key("degraded"); w->Bool(dev.degraded());
  w->Key("write_amplification"); w->Double(dev.WriteAmplification());
  w->EndObject();
  w->Key("faults");
  w->BeginObject();
  w->Key("ecc_corrected"); w->Uint(ftl.ecc_corrected);
  w->Key("read_retries"); w->Uint(ftl.read_retries);
  w->Key("uncorrectable_reads"); w->Uint(ftl.uncorrectable_reads);
  w->Key("program_fails"); w->Uint(flash.program_fails);
  w->Key("erase_fails"); w->Uint(flash.erase_fails);
  w->Key("retired_blocks"); w->Uint(flash.bad_blocks);
  w->EndObject();
  w->Key("store");
  w->BeginObject();
  w->Key("live_frames"); w->Uint(store.live_frames);
  w->Key("live_bytes"); w->Uint(store.live_bytes);
  w->Key("chunk_bytes"); w->Uint(store.chunk_bytes);
  w->Key("resident_bytes"); w->Uint(store.resident_bytes);
  w->EndObject();
  w->Key("metrics");
  dev.metrics().AppendJson(w);
  w->EndObject();
}

inline void AppendEngineJson(const Database& db, JsonWriter* w) {
  const Database::Stats& s = db.stats();
  const Wal::Stats& wal = db.wal_stats();
  const BufferPool::Stats pool = db.pool_stats();
  w->BeginObject();
  w->Key("db");
  w->BeginObject();
  w->Key("txns_committed"); w->Uint(s.txns_committed);
  w->Key("txns_aborted"); w->Uint(s.txns_aborted);
  w->Key("puts"); w->Uint(s.puts);
  w->Key("gets"); w->Uint(s.gets);
  w->Key("deletes"); w->Uint(s.deletes);
  w->Key("scans"); w->Uint(s.scans);
  w->Key("checkpoints"); w->Uint(s.checkpoints);
  w->Key("recovered_records"); w->Uint(s.recovered_records);
  w->Key("undone_loser_txns"); w->Uint(s.undone_loser_txns);
  w->Key("torn_pages_repaired"); w->Uint(s.torn_pages_repaired);
  w->Key("degraded_aborts"); w->Uint(s.degraded_aborts);
  w->Key("ordered_wal_elisions"); w->Uint(s.ordered_wal_elisions);
  w->EndObject();
  w->Key("wal");
  w->BeginObject();
  w->Key("appends"); w->Uint(wal.appends);
  w->Key("syncs"); w->Uint(wal.syncs);
  w->Key("group_rides"); w->Uint(wal.group_rides);
  w->Key("bytes_written"); w->Uint(wal.bytes_written);
  w->Key("pad_bytes"); w->Uint(wal.pad_bytes);
  w->Key("sync_groups"); w->Uint(wal.sync_groups);
  w->Key("max_group_commit"); w->Uint(wal.max_group_commit);
  w->Key("barrier_commits"); w->Uint(wal.barrier_commits);
  w->EndObject();
  w->Key("pool");
  w->BeginObject();
  w->Key("hits"); w->Uint(pool.hits);
  w->Key("misses"); w->Uint(pool.misses);
  w->Key("evictions"); w->Uint(pool.evictions);
  w->Key("dirty_evictions"); w->Uint(pool.dirty_evictions);
  w->Key("reads_blocked_by_writes"); w->Uint(pool.reads_blocked_by_writes);
  w->Key("checkpoint_page_flushes"); w->Uint(pool.checkpoint_page_flushes);
  w->EndObject();
  w->EndObject();
}

inline void AppendEngineJson(const KvStore& kv, JsonWriter* w) {
  const KvStore::Stats& s = kv.stats();
  w->BeginObject();
  w->Key("kv");
  w->BeginObject();
  w->Key("puts"); w->Uint(s.puts);
  w->Key("gets"); w->Uint(s.gets);
  w->Key("deletes"); w->Uint(s.deletes);
  w->Key("commits"); w->Uint(s.commits);
  w->Key("node_appends"); w->Uint(s.node_appends);
  w->Key("doc_appends"); w->Uint(s.doc_appends);
  w->Key("recovered_seq"); w->Uint(s.recovered_seq);
  w->Key("degraded_aborts"); w->Uint(s.degraded_aborts);
  w->Key("sync_groups"); w->Uint(s.sync_groups);
  w->Key("max_group_commit"); w->Uint(s.max_group_commit);
  w->Key("barrier_commits"); w->Uint(s.barrier_commits);
  w->EndObject();
  w->EndObject();
}

}  // namespace bench_json_internal

/// One row of a bench's results table. Build with the fluent setters, then
/// hand it to BenchJson::Add. All sections are optional except the name.
class BenchResult {
 public:
  explicit BenchResult(std::string name) : name_(std::move(name)) {}

  template <typename T>
  BenchResult& Param(const char* key, T v) {
    params_.emplace_back(key, bench_json_internal::Scalar(v));
    return *this;
  }

  BenchResult& Throughput(double value, const char* unit) {
    JsonWriter w;
    w.BeginObject();
    w.Key("value"); w.Double(value);
    w.Key("unit"); w.String(unit);
    w.EndObject();
    throughput_ = w.TakeString();
    return *this;
  }

  /// Percentile summary of a latency histogram (fixed Percentile math).
  BenchResult& LatencyNs(const Histogram& h) {
    JsonWriter w;
    AppendHistogramJson(h, &w);
    latency_ = w.TakeString();
    return *this;
  }

  /// Extra scalar outputs: write amplification, reduction factors, counts.
  template <typename T>
  BenchResult& Value(const char* key, T v) {
    values_.emplace_back(key, bench_json_internal::Scalar(v));
    return *this;
  }

  /// Workload-driver operations that failed: a non-OK status other than an
  /// expected NotFound. scripts/bench_compare.py fails a row with any.
  BenchResult& FailedOps(uint64_t n) {
    failed_ops_ = bench_json_internal::Scalar(n);
    return *this;
  }

  /// Device section: the device's and its FTL's Stats, the fault counts of
  /// the FTL and the flash array, the sector store's Stats, and the
  /// device's histograms.
  BenchResult& Device(const SsdDevice& dev) {
    JsonWriter w;
    bench_json_internal::AppendDeviceJson(dev, &w);
    device_ = w.TakeString();
    return *this;
  }

  /// Engine section from the engine's Stats structs (minibase: database,
  /// WAL and buffer pool; kvstore: the store), plus its histograms.
  template <typename EngineT>
  BenchResult& Engine(const EngineT& engine) {
    JsonWriter w;
    bench_json_internal::AppendEngineJson(engine, &w);
    engine_ = w.TakeString();
    return Metrics(engine.metrics());
  }

  /// Engine-level histograms (a Database's or KvStore's registry).
  BenchResult& Metrics(const MetricsRegistry& m) {
    metrics_ = m.ToJson();
    return *this;
  }

  void AppendTo(JsonWriter* w, double wall_seconds) const {
    w->BeginObject();
    w->Key("name");
    w->String(name_);
    w->Key("wall_seconds");
    w->Double(wall_seconds);
    if (!failed_ops_.empty()) {
      w->Key("failed_ops");
      w->Raw(failed_ops_);
    }
    if (!params_.empty()) {
      w->Key("params");
      bench_json_internal::AppendFields(params_, w);
    }
    if (!throughput_.empty()) {
      w->Key("throughput");
      w->Raw(throughput_);
    }
    if (!latency_.empty()) {
      w->Key("latency_ns");
      w->Raw(latency_);
    }
    if (!values_.empty()) {
      w->Key("values");
      bench_json_internal::AppendFields(values_, w);
    }
    if (!engine_.empty()) {
      w->Key("engine");
      w->Raw(engine_);
    }
    if (!device_.empty()) {
      w->Key("device");
      w->Raw(device_);
    }
    if (!metrics_.empty()) {
      w->Key("metrics");
      w->Raw(metrics_);
    }
    w->EndObject();
  }

 private:
  std::string name_;
  std::string failed_ops_;
  bench_json_internal::Fields params_;
  std::string throughput_;
  std::string latency_;
  bench_json_internal::Fields values_;
  std::string engine_;
  std::string device_;
  std::string metrics_;
};

/// Accumulates a bench run's config + results and writes the document at
/// the end. When no --json path was given, every call is a cheap no-op and
/// nothing is written.
class BenchJson {
 public:
  /// Scans argv for "--json <path>" or "--json=<path>"; empty when absent.
  static std::string PathFromArgs(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        return argv[i + 1];
      }
      if (std::strncmp(argv[i], "--json=", 7) == 0) {
        return argv[i] + 7;
      }
    }
    return "";
  }

  BenchJson(std::string bench_name, std::string path, bool quick)
      : bench_(std::move(bench_name)), path_(std::move(path)), quick_(quick) {}

  bool enabled() const { return !path_.empty(); }

  template <typename T>
  BenchJson& Config(const char* key, T v) {
    config_.emplace_back(key, bench_json_internal::Scalar(v));
    return *this;
  }

  /// Adds a row, timed since the previous one.
  void Add(BenchResult result) {
    const auto now = std::chrono::steady_clock::now();
    JsonWriter w;
    result.AppendTo(&w,
                    std::chrono::duration<double>(now - last_row_).count());
    last_row_ = now;
    results_.push_back(w.TakeString());
  }

  std::string Document() const {
    JsonWriter w;
    w.BeginObject();
    w.Key("schema_version"); w.Uint(1);
    w.Key("bench"); w.String(bench_);
    w.Key("quick"); w.Bool(quick_);
    w.Key("config");
    bench_json_internal::AppendFields(config_, &w);
    w.Key("results");
    w.BeginArray();
    for (const std::string& r : results_) w.Raw(r);
    w.EndArray();
    // Terminal completeness marker, written last: a truncated document (the
    // bench crashed or was killed mid-write) cannot contain it, so the
    // aggregation script and bench_compare.py reject partial output instead
    // of silently comparing against it.
    w.Key("complete"); w.Bool(true);
    w.EndObject();
    return w.TakeString();
  }

  /// Adds a workload driver run's failed operations to the bench's total.
  /// Counts with or without --json: any failure fails the bench.
  void CountFailedOps(uint64_t n) { failed_ops_ += n; }

  /// Writes the document (when --json was given) and returns the process
  /// exit status: 1 when the write failed or a driver operation failed.
  int Finish() const {
    const bool written = WriteFile();
    if (failed_ops_ > 0) {
      std::fprintf(stderr, "%s: %llu workload operations failed\n",
                   bench_.c_str(),
                   static_cast<unsigned long long>(failed_ops_));
      return 1;
    }
    return written ? 0 : 1;
  }

  /// Writes the document (plus trailing newline) to the --json path.
  /// Returns true when disabled or written successfully.
  bool WriteFile() const {
    if (!enabled()) return true;
    FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path_.c_str());
      return false;
    }
    const std::string doc = Document();
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                    std::fputc('\n', f) != EOF;
    std::fclose(f);
    if (!ok) std::fprintf(stderr, "short write to %s\n", path_.c_str());
    return ok;
  }

 private:
  std::string bench_;
  std::string path_;
  bool quick_;
  bench_json_internal::Fields config_;
  std::vector<std::string> results_;
  std::chrono::steady_clock::time_point last_row_ =
      std::chrono::steady_clock::now();
  uint64_t failed_ops_ = 0;
};

}  // namespace durassd

#endif  // DURASSD_BENCH_BENCH_JSON_H_
