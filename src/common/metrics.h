#ifndef DURASSD_COMMON_METRICS_H_
#define DURASSD_COMMON_METRICS_H_

#include <map>
#include <string>

#include "common/histogram.h"
#include "common/json.h"

namespace durassd {

/// Named latency histograms for one component tree, registered once and
/// updated through stable pointers, so the hot path is a plain
/// Histogram::Record with no lookup. Counts are not kept here: each one
/// lives in the `Stats` struct of the component that counts it.
///
/// Layering convention: each top-level component (SsdDevice, Database,
/// KvStore) owns a registry; sub-layers (Ftl, Wal, DoubleWriteBuffer)
/// receive a pointer to their owner's registry and register their own
/// histograms under a dotted prefix ("ftl.program_ns", "wal.sync_ns", ...).
///
/// Metrics are observational only: recording never advances virtual time,
/// so an instrumented run produces bit-identical simulation results to an
/// uninstrumented one.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) a latency histogram (nanosecond samples). The
  /// returned pointer is stable for the registry's lifetime.
  Histogram* GetHistogram(const std::string& name) {
    return &histograms_[name];
  }

  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Empties every registered histogram (pointers stay valid).
  void Reset();

  /// Appends a snapshot as one JSON object:
  /// {"histograms":{"name":{count,mean,...}}}
  void AppendJson(JsonWriter* w) const;
  std::string ToJson() const;

 private:
  // std::map: stable node addresses (pointer registration) + deterministic
  // iteration order for the snapshot.
  std::map<std::string, Histogram> histograms_;
};

/// Appends the standard percentile summary for one histogram:
/// {"count":N,"mean":..,"min":..,"p25":..,"p50":..,"p75":..,"p90":..,
///  "p99":..,"p999":..,"max":..} — all times in nanoseconds.
void AppendHistogramJson(const Histogram& h, JsonWriter* w);

}  // namespace durassd

#endif  // DURASSD_COMMON_METRICS_H_
