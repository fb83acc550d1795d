#ifndef DURASSD_COMMON_METRICS_H_
#define DURASSD_COMMON_METRICS_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/histogram.h"
#include "common/json.h"
#include "common/types.h"

namespace durassd {

/// Named metrics for one component tree: counters, gauges, and latency
/// histograms, registered once and updated through stable pointers, so the
/// hot path is a plain increment / Histogram::Record with no lookup.
///
/// Layering convention: each top-level component (SsdDevice, Database,
/// KvStore) owns a registry; sub-layers (Ftl, Wal, DoubleWriteBuffer)
/// receive a pointer to their owner's registry and register their own
/// metrics under a dotted prefix ("ftl.program_ns", "wal.sync_ns", ...).
///
/// Metrics are observational only: recording never advances virtual time,
/// so an instrumented run produces bit-identical simulation results to an
/// uninstrumented one.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) a counter. The returned pointer is stable for the
  /// registry's lifetime; increment it directly.
  uint64_t* Counter(const std::string& name) { return &counters_[name]; }
  /// Registers (or finds) a gauge (last-value semantics).
  double* Gauge(const std::string& name) { return &gauges_[name]; }
  /// Registers (or finds) a latency histogram (nanosecond samples).
  Histogram* GetHistogram(const std::string& name) {
    return &histograms_[name];
  }

  const std::map<std::string, uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Zeroes every registered metric (pointers stay valid).
  void Reset();

  /// Appends a snapshot as one JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{"name":{count,mean,...}}}
  void AppendJson(JsonWriter* w) const;
  std::string ToJson() const;

 private:
  // std::map: stable node addresses (pointer registration) + deterministic
  // iteration order for the snapshot.
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Appends the standard percentile summary for one histogram:
/// {"count":N,"mean":..,"min":..,"p25":..,"p50":..,"p75":..,"p90":..,
///  "p99":..,"p999":..,"max":..} — all times in nanoseconds.
void AppendHistogramJson(const Histogram& h, JsonWriter* w);

}  // namespace durassd

#endif  // DURASSD_COMMON_METRICS_H_
