#include "common/metrics.h"

namespace durassd {

void MetricsRegistry::Reset() {
  for (auto& [name, h] : histograms_) h.Reset();
}

void AppendHistogramJson(const Histogram& h, JsonWriter* w) {
  w->BeginObject();
  w->Key("count");
  w->Uint(h.count());
  w->Key("mean");
  w->Double(h.Mean());
  w->Key("min");
  w->Int(h.min());
  w->Key("p25");
  w->Int(h.Percentile(25));
  w->Key("p50");
  w->Int(h.Percentile(50));
  w->Key("p75");
  w->Int(h.Percentile(75));
  w->Key("p90");
  w->Int(h.Percentile(90));
  w->Key("p99");
  w->Int(h.Percentile(99));
  w->Key("p999");
  w->Int(h.Percentile(99.9));
  w->Key("max");
  w->Int(h.max());
  w->EndObject();
}

void MetricsRegistry::AppendJson(JsonWriter* w) const {
  w->BeginObject();
  w->Key("histograms");
  w->BeginObject();
  for (const auto& [name, h] : histograms_) {
    w->Key(name);
    AppendHistogramJson(h, w);
  }
  w->EndObject();
  w->EndObject();
}

std::string MetricsRegistry::ToJson() const {
  JsonWriter w;
  AppendJson(&w);
  return w.TakeString();
}

}  // namespace durassd
