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
//         "failed_ops": 0,
//         "params": { ... per-row knobs ... },
//         "throughput": {"value": 1234.5, "unit": "txn/s"},
//         "latency_ns": {"count","mean","min","p25",...,"p999","max"},
//         "values": { ... extra scalar outputs (WA, reductions, ...) ... },
//         "device": {"stats": {...}, "faults": {...}, "metrics": {...}},
//         "metrics": { ... engine-level registry snapshot ... }
//       }, ...
//     ]
//   }
//
// Sections a bench does not populate are simply absent. Text output is
// unchanged; JSON is written on top of it at exit.

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/json.h"
#include "common/metrics.h"
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
  const SsdDevice::FaultStats f = dev.fault_stats();
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
  w->Key("destage_absorbed"); w->Uint(s.destage_absorbed);
  w->Key("destage_batches"); w->Uint(s.destage_batches);
  w->Key("multi_plane_programs"); w->Uint(dev.flash().stats().multi_plane_programs);
  w->Key("log_segments"); w->Uint(s.log_segments);
  w->Key("log_segment_sectors"); w->Uint(s.log_segment_sectors);
  w->Key("log_replayed_segments"); w->Uint(s.log_replayed_segments);
  w->Key("log_torn_segments"); w->Uint(s.log_torn_segments);
  w->Key("log_recovered_sectors"); w->Uint(s.log_recovered_sectors);
  w->Key("log_dropped_sectors"); w->Uint(s.log_dropped_sectors);
  w->Key("write_amplification"); w->Double(dev.WriteAmplification());
  w->EndObject();
  w->Key("faults");
  w->BeginObject();
  w->Key("ecc_corrected"); w->Uint(f.ecc_corrected);
  w->Key("read_retries"); w->Uint(f.read_retries);
  w->Key("uncorrectable_reads"); w->Uint(f.uncorrectable_reads);
  w->Key("program_fails"); w->Uint(f.program_fails);
  w->Key("erase_fails"); w->Uint(f.erase_fails);
  w->Key("retired_blocks"); w->Uint(f.retired_blocks);
  w->EndObject();
  w->Key("metrics");
  dev.metrics().AppendJson(w);
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

  /// Device section: Stats + FaultStats + the device's metrics registry.
  BenchResult& Device(const SsdDevice& dev) {
    JsonWriter w;
    bench_json_internal::AppendDeviceJson(dev, &w);
    device_ = w.TakeString();
    return *this;
  }

  /// Engine-level registry snapshot (Database/KvStore metrics).
  BenchResult& Metrics(const MetricsRegistry& m) {
    metrics_ = m.ToJson();
    return *this;
  }

  void AppendTo(JsonWriter* w) const {
    w->BeginObject();
    w->Key("name");
    w->String(name_);
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

  void Add(BenchResult result) {
    JsonWriter w;
    result.AppendTo(&w);
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
  uint64_t failed_ops_ = 0;
};

}  // namespace durassd

#endif  // DURASSD_BENCH_BENCH_JSON_H_
