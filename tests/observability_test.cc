// Tests for the observability layer: histogram percentile math (property-
// checked against exact sorted-sample percentiles), MetricsRegistry,
// Tracer, the JSON writer/parser pair, the bench --json schema, the
// host_writes accounting fix, and the no-perturbation guarantee.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_json.h"
#include "common/histogram.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "db/database.h"
#include "host/sim_file.h"
#include "kv/kvstore.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"
#include "tests/json_value.h"
#include "workloads/fiosim.h"

namespace durassd {
namespace {

// ---------------------------------------------------------------------------
// Histogram percentiles: property test against exact order statistics.

SimTime ExactPercentile(std::vector<SimTime> samples, double p) {
  std::sort(samples.begin(), samples.end());
  if (p <= 0) return samples.front();
  if (p >= 100) return samples.back();
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  return samples[static_cast<size_t>(rank + 0.5)];
}

// The histogram buckets grow ~4% geometrically, so any reported percentile
// must sit within one bucket ratio of the exact order statistic.
void CheckPercentiles(const std::vector<SimTime>& samples) {
  Histogram h;
  for (SimTime s : samples) h.Record(s);
  ASSERT_EQ(h.count(), samples.size());
  for (double p : {0.0, 1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    const double exact = static_cast<double>(ExactPercentile(samples, p));
    const double got = static_cast<double>(h.Percentile(p));
    // 5% relative tolerance (bucket ratio ~4%) plus 2ns absolute slack for
    // the tiny-value buckets.
    EXPECT_NEAR(got, exact, 0.05 * exact + 2.0)
        << "p=" << p << " exact=" << exact << " got=" << got;
    EXPECT_GE(h.Percentile(p), h.min()) << "p=" << p;
    EXPECT_LE(h.Percentile(p), h.max()) << "p=" << p;
  }
}

TEST(HistogramPropertyTest, UniformSamples) {
  Random rng(11);
  std::vector<SimTime> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(static_cast<SimTime>(rng.Uniform(10 * kMillisecond)) + 1);
  }
  CheckPercentiles(samples);
}

TEST(HistogramPropertyTest, LogNormalSamples) {
  Random rng(12);
  std::vector<SimTime> samples;
  for (int i = 0; i < 20000; ++i) {
    // Box-Muller normal, exponentiated: spans ~1us..100ms like real fsync
    // latency tails.
    const double u1 = rng.NextDouble() + 1e-12;
    const double u2 = rng.NextDouble();
    const double n = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.28318530718 * u2);
    samples.push_back(static_cast<SimTime>(std::exp(13.0 + 1.5 * n)) + 1);
  }
  CheckPercentiles(samples);
}

TEST(HistogramPropertyTest, PointMass) {
  // Every sample identical: all percentiles must equal that value exactly
  // (the pre-fix code reported the bucket upper bound instead).
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(123456);
  for (double p : {0.0, 50.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(h.Percentile(p), 123456) << "p=" << p;
  }
}

TEST(HistogramPropertyTest, TwoPointMass) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.Record(1000);
  for (int i = 0; i < 10; ++i) h.Record(1000000);
  EXPECT_EQ(h.Percentile(50), 1000);
  EXPECT_EQ(h.Percentile(99), 1000000);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000000);
}

TEST(HistogramEdgeTest, MergeIntoEmptyAndReset) {
  Histogram a;
  Histogram b;
  for (int i = 1; i <= 100; ++i) b.Record(i * 1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_DOUBLE_EQ(a.Mean(), b.Mean());
  EXPECT_EQ(a.Percentile(50), b.Percentile(50));

  // Merging an empty histogram changes nothing.
  Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.min(), b.min());

  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.min(), 0);
  EXPECT_EQ(a.max(), 0);
  EXPECT_EQ(a.Percentile(50), 0);

  // A reset histogram records fresh samples correctly (stale min/max gone).
  a.Record(777);
  EXPECT_EQ(a.min(), 777);
  EXPECT_EQ(a.max(), 777);
  EXPECT_EQ(a.Percentile(50), 777);
}

TEST(HistogramEdgeTest, ZeroAndNegativeClampedSafely) {
  Histogram h;
  h.Record(0);
  h.Record(0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.max(), 0);
}

// ---------------------------------------------------------------------------
// JSON writer + parser.

TEST(JsonWriterTest, NestedStructure) {
  JsonWriter w;
  w.BeginObject();
  w.Key("iops");
  w.Double(1234.5);
  w.Key("ok");
  w.Bool(true);
  w.Key("tags");
  w.BeginArray();
  w.String("a");
  w.Int(-3);
  w.EndArray();
  w.Key("nested");
  w.BeginObject();
  w.Key("n");
  w.Uint(7);
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"iops\":1234.5,\"ok\":true,\"tags\":[\"a\",-3],"
            "\"nested\":{\"n\":7}}");
}

TEST(JsonWriterTest, EscapesControlAndQuotes) {
  JsonWriter w;
  w.BeginObject();
  w.Key("k\"ey");
  w.String("line1\nline2\ttab\\slash");
  w.EndObject();
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(w.str(), &v));
  const JsonValue* s = v.Find("k\"ey");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->AsString(), "line1\nline2\ttab\\slash");
}

TEST(JsonParserTest, ParsesScalarsAndRejectsMalformed) {
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse("[1, -2.5, 1e3, true, false, null, \"x\"]", &v));
  ASSERT_TRUE(v.is_array());
  ASSERT_EQ(v.AsArray().size(), 7u);
  EXPECT_DOUBLE_EQ(v.AsArray()[1].AsDouble(), -2.5);
  EXPECT_DOUBLE_EQ(v.AsArray()[2].AsDouble(), 1000.0);
  EXPECT_TRUE(v.AsArray()[3].AsBool());
  EXPECT_EQ(v.AsArray()[6].AsString(), "x");

  EXPECT_FALSE(JsonValue::Parse("{\"a\":}", &v));
  EXPECT_FALSE(JsonValue::Parse("[1,", &v));
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing", &v));
  EXPECT_FALSE(JsonValue::Parse("", &v));
}

TEST(JsonRoundTripTest, WriterOutputAlwaysParses) {
  JsonWriter w;
  w.BeginObject();
  w.Key("raw");
  w.Raw("{\"pre\":[1,2]}");
  w.Key("d");
  w.Double(0.1);
  w.EndObject();
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(w.str(), &v));
  const JsonValue* raw = v.Find("raw");
  ASSERT_NE(raw, nullptr);
  ASSERT_NE(raw->Find("pre"), nullptr);
  EXPECT_EQ(raw->Find("pre")->AsArray().size(), 2u);
}

// ---------------------------------------------------------------------------
// MetricsRegistry.

TEST(MetricsRegistryTest, StablePointersAndIdempotentRegistration) {
  MetricsRegistry m;
  Histogram* h = m.GetHistogram("ssd.lat_ns");
  h->Record(100);
  // Registering more histograms must not move existing nodes (std::map).
  for (int i = 0; i < 100; ++i) m.GetHistogram("pad." + std::to_string(i));
  EXPECT_EQ(m.GetHistogram("ssd.lat_ns"), h);
  EXPECT_EQ(m.histograms().at("ssd.lat_ns").count(), 1u);
}

TEST(MetricsRegistryTest, ResetZeroesEverythingPointersSurvive) {
  MetricsRegistry m;
  Histogram* h = m.GetHistogram("h");
  h->Record(42);
  m.Reset();
  EXPECT_EQ(h->count(), 0u);
  // Pointers still live and usable.
  h->Record(7);
  EXPECT_EQ(m.histograms().at("h").count(), 1u);
  EXPECT_EQ(m.histograms().at("h").max(), 7);
}

TEST(MetricsRegistryTest, SnapshotJsonParsesWithAllSections) {
  // The registry holds histograms only: counts live in Stats structs.
  MetricsRegistry m;
  m.GetHistogram("a.lat")->Record(1000);
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(m.ToJson(), &v));
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.AsObject().size(), 1u);
  ASSERT_NE(v.Find("histograms"), nullptr);
  const JsonValue* h = v.Find("histograms")->Find("a.lat");
  ASSERT_NE(h, nullptr);
  for (const char* key : {"count", "mean", "min", "p25", "p50", "p75", "p90",
                          "p99", "p999", "max"}) {
    EXPECT_NE(h->Find(key), nullptr) << key;
  }
  EXPECT_DOUBLE_EQ(h->Find("count")->AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(h->Find("p50")->AsDouble(), 1000.0);
}

// ---------------------------------------------------------------------------
// Tracer.

TEST(TracerTest, RecordsTypedEventsInOrder) {
  Tracer t(16);
  t.Record(10, TraceEventType::kCmdStart, 5, 8);
  t.Record(20, TraceEventType::kCmdAck, 5, 8);
  const auto events = t.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].t, 10);
  EXPECT_EQ(events[0].type, TraceEventType::kCmdStart);
  EXPECT_EQ(events[0].a0, 5u);
  EXPECT_EQ(events[0].a1, 8u);
  EXPECT_EQ(events[1].type, TraceEventType::kCmdAck);
  EXPECT_EQ(t.recorded(), 2u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TracerTest, RingWrapDropsOldestKeepsNewest) {
  Tracer t(8);
  for (uint64_t i = 0; i < 20; ++i) {
    t.Record(static_cast<SimTime>(i), TraceEventType::kWalAppend, i, 0);
  }
  EXPECT_EQ(t.recorded(), 20u);
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.dropped(), 12u);
  const auto events = t.Events();
  ASSERT_EQ(events.size(), 8u);
  // Oldest retained is #12, newest is #19, in order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a0, 12 + i);
  }
}

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer t(8);
  t.set_enabled(false);
  t.Record(1, TraceEventType::kFsync, 0, 0);
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_EQ(t.size(), 0u);
  t.set_enabled(true);
  t.Record(2, TraceEventType::kFsync, 0, 0);
  EXPECT_EQ(t.recorded(), 1u);
}

TEST(TracerTest, JsonlExportOneValidObjectPerLine) {
  Tracer t(8);
  t.Record(100, TraceEventType::kFlushStart, 3, 0);
  t.Record(250, TraceEventType::kFlushDone, 150, 3);
  std::string out;
  t.AppendJsonl(&out);
  std::istringstream lines(out);
  std::string line;
  std::vector<JsonValue> parsed;
  while (std::getline(lines, line)) {
    JsonValue v;
    ASSERT_TRUE(JsonValue::Parse(line, &v)) << line;
    parsed.push_back(v);
  }
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].Find("type")->AsString(),
            TraceEventTypeName(TraceEventType::kFlushStart));
  EXPECT_DOUBLE_EQ(parsed[0].Find("t")->AsDouble(), 100.0);
  EXPECT_DOUBLE_EQ(parsed[1].Find("a0")->AsDouble(), 150.0);
}

TEST(TracerTest, DegradedModeEventNamesAreStable) {
  // The trace schema is an external contract (JSONL consumers key on these
  // strings): the degraded-mode events must keep their names.
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kDegraded), "degraded");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kTxnAbort), "txn_abort");
  EXPECT_STREQ(TraceEventTypeName(TraceEventType::kInvariantViolation),
               "invariant_violation");
}

TEST(TracerTest, DeviceEmitsCmdAndFlushEvents) {
  SsdConfig cfg = SsdConfig::Tiny(true);
  SsdDevice dev(cfg);
  Tracer tracer(1 << 12);
  dev.set_tracer(&tracer);
  const std::string data(cfg.sector_size, 'x');
  SimTime t = 0;
  for (Lpn l = 0; l < 4; ++l) t = dev.Write(t, l, data).done;
  t = dev.Flush(t).done;
  std::string payload;
  dev.Read(t, 0, 1, &payload);

  uint64_t starts = 0, acks = 0, flush_starts = 0, flush_dones = 0, reads = 0;
  for (const TraceEvent& e : tracer.Events()) {
    switch (e.type) {
      case TraceEventType::kCmdStart: starts++; break;
      case TraceEventType::kCmdAck: acks++; break;
      case TraceEventType::kFlushStart: flush_starts++; break;
      case TraceEventType::kFlushDone: flush_dones++; break;
      case TraceEventType::kReadStart: reads++; break;
      default: break;
    }
  }
  EXPECT_EQ(starts, 4u);
  EXPECT_EQ(acks, 4u);
  EXPECT_EQ(flush_starts, 1u);
  EXPECT_EQ(flush_dones, 1u);
  EXPECT_EQ(reads, 1u);
}

TEST(TracerTest, DeviceRegistersLatencyHistograms) {
  SsdConfig cfg = SsdConfig::Tiny(true);
  SsdDevice dev(cfg);
  const std::string data(cfg.sector_size, 'x');
  SimTime t = 0;
  for (Lpn l = 0; l < 8; ++l) t = dev.Write(t, l, data).done;
  const auto& hists = dev.metrics().histograms();
  ASSERT_NE(hists.find("ssd.ncq_wait_ns"), hists.end());
  ASSERT_NE(hists.find("ssd.fw_ns"), hists.end());
  EXPECT_EQ(hists.at("ssd.fw_ns").count(), 8u);
  ASSERT_NE(hists.find("ftl.program_ns"), hists.end());
}

// ---------------------------------------------------------------------------
// Bench --json schema.

TEST(BenchJsonTest, DocumentMatchesSchema) {
  Histogram lat;
  for (int i = 1; i <= 100; ++i) lat.Record(i * 1000);
  MetricsRegistry reg;
  reg.GetHistogram("db.txn_ns")->Record(4200);

  BenchJson json("unit_test_bench", "", true);
  json.Config("ops", uint64_t{1000}).Config("threads", uint64_t{4});
  BenchResult row("cfg=a");
  row.Param("barriers", true)
      .Throughput(9876.5, "iops")
      .LatencyNs(lat)
      .Value("write_amplification", 1.25)
      .Metrics(reg);
  json.Add(std::move(row));

  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(json.Document(), &v));
  EXPECT_DOUBLE_EQ(v.Find("schema_version")->AsDouble(), 1.0);
  EXPECT_EQ(v.Find("bench")->AsString(), "unit_test_bench");
  EXPECT_TRUE(v.Find("quick")->AsBool());
  EXPECT_DOUBLE_EQ(v.Find("config")->Find("ops")->AsDouble(), 1000.0);
  ASSERT_TRUE(v.Find("results")->is_array());
  ASSERT_EQ(v.Find("results")->AsArray().size(), 1u);

  const JsonValue& r = v.Find("results")->AsArray()[0];
  EXPECT_EQ(r.Find("name")->AsString(), "cfg=a");
  // Host seconds since the BenchJson was made (the first row's start).
  ASSERT_NE(r.Find("wall_seconds"), nullptr);
  EXPECT_GE(r.Find("wall_seconds")->AsDouble(), 0.0);
  EXPECT_TRUE(r.Find("params")->Find("barriers")->AsBool());
  EXPECT_DOUBLE_EQ(r.Find("throughput")->Find("value")->AsDouble(), 9876.5);
  EXPECT_EQ(r.Find("throughput")->Find("unit")->AsString(), "iops");
  const JsonValue* l = r.Find("latency_ns");
  ASSERT_NE(l, nullptr);
  EXPECT_DOUBLE_EQ(l->Find("count")->AsDouble(), 100.0);
  // p50 of 1k..100k uniform grid: within one bucket of 50000.
  EXPECT_NEAR(l->Find("p50")->AsDouble(), 50000.0, 3000.0);
  EXPECT_DOUBLE_EQ(r.Find("values")->Find("write_amplification")->AsDouble(),
                   1.25);
  EXPECT_DOUBLE_EQ(r.Find("metrics")->Find("histograms")->Find("db.txn_ns")
                       ->Find("max")->AsDouble(), 4200.0);
  // Sections not populated are absent, not null.
  EXPECT_EQ(r.Find("device"), nullptr);
  EXPECT_EQ(r.Find("engine"), nullptr);

  // A device row's store section carries the sector store's four counts.
  SsdDevice dev(SsdConfig::Tiny(true));
  BenchJson dev_json("unit_test_bench", "", true);
  BenchResult dev_row("cfg=b");
  dev_row.Device(dev);
  dev_json.Add(std::move(dev_row));
  JsonValue dv;
  ASSERT_TRUE(JsonValue::Parse(dev_json.Document(), &dv));
  const JsonValue* store =
      dv.Find("results")->AsArray()[0].Find("device")->Find("store");
  ASSERT_NE(store, nullptr);
  std::vector<std::string> keys;
  for (const auto& [key, value] : store->AsObject()) {
    EXPECT_TRUE(value.is_number()) << key;
    keys.push_back(key);
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"chunk_bytes", "live_bytes",
                                            "live_frames", "resident_bytes"}));
}

TEST(BenchJsonTest, DeviceSectionHasStatsFaultsMetrics) {
  SsdConfig cfg = SsdConfig::Tiny(true);
  SsdDevice dev(cfg);
  const std::string data(cfg.sector_size, 'x');
  dev.Write(0, 0, data);

  BenchJson json("dev_bench", "", false);
  BenchResult row("only");
  row.Device(dev);
  json.Add(std::move(row));
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(json.Document(), &v));
  const JsonValue& r = v.Find("results")->AsArray()[0];
  const JsonValue* d = r.Find("device");
  ASSERT_NE(d, nullptr);
  EXPECT_DOUBLE_EQ(d->Find("stats")->Find("host_writes")->AsDouble(), 1.0);
  for (const char* key : {"barriers", "degraded_write_rejects", "gc_runs"}) {
    EXPECT_DOUBLE_EQ(d->Find("stats")->Find(key)->AsDouble(), 0.0) << key;
  }
  EXPECT_FALSE(d->Find("stats")->Find("degraded")->AsBool());
  EXPECT_NE(d->Find("faults")->Find("program_fails"), nullptr);
  // The one written sector sits in one 4 KiB frame of a 1 MiB chunk, and
  // only that frame has been written.
  const JsonValue* store = d->Find("store");
  ASSERT_NE(store, nullptr);
  EXPECT_DOUBLE_EQ(store->Find("live_frames")->AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(store->Find("live_bytes")->AsDouble(), 4096.0);
  EXPECT_DOUBLE_EQ(store->Find("chunk_bytes")->AsDouble(), 1048576.0);
  EXPECT_DOUBLE_EQ(store->Find("resident_bytes")->AsDouble(), 4096.0);
  EXPECT_NE(d->Find("metrics")->Find("histograms"), nullptr);
  EXPECT_EQ(d->Find("metrics")->Find("counters"), nullptr);
}

TEST(BenchJsonTest, EngineSectionCarriesStatsAndHistograms) {
  SsdConfig cfg = SsdConfig::Tiny(true);
  cfg.geometry.blocks_per_plane = 128;  // Room for the default DB layout.
  cfg.geometry.pages_per_block = 32;
  SsdDevice dev(cfg);
  SimFileSystem fs(&dev, SimFileSystem::Options{});
  IoContext io;
  auto db = Database::Open(io, &fs, &fs, Database::Options{});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto tree = (*db)->CreateTree(io, "t");
  ASSERT_TRUE(tree.ok());
  auto txn = (*db)->Begin(io);
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE((*db)->Put(io, *txn, *tree, "k", "v").ok());
  ASSERT_TRUE((*db)->Commit(io, *txn).ok());
  auto kv = KvStore::Open(io, &fs, "obs.couch", KvStore::Options{});
  ASSERT_TRUE(kv.ok()) << kv.status().ToString();
  ASSERT_TRUE((*kv)->Put(io, "k", "v").ok());

  BenchJson json("engine_bench", "", false);
  BenchResult db_row("minibase");
  db_row.Engine(**db);
  json.Add(std::move(db_row));
  BenchResult kv_row("kvstore");
  kv_row.Engine(**kv);
  json.Add(std::move(kv_row));
  JsonValue v;
  ASSERT_TRUE(JsonValue::Parse(json.Document(), &v));
  const JsonValue& dr = v.Find("results")->AsArray()[0];
  const JsonValue* e = dr.Find("engine");
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->Find("db")->Find("txns_committed")->AsDouble(),
                   static_cast<double>((*db)->stats().txns_committed));
  EXPECT_DOUBLE_EQ(e->Find("wal")->Find("appends")->AsDouble(),
                   static_cast<double>((*db)->wal_stats().appends));
  EXPECT_GT(e->Find("wal")->Find("appends")->AsDouble(), 0.0);
  for (const char* key : {"dirty_evictions", "reads_blocked_by_writes"}) {
    EXPECT_NE(e->Find("pool")->Find(key), nullptr) << key;
  }
  EXPECT_NE(dr.Find("metrics")->Find("histograms")->Find("db.txn_ns"),
            nullptr);

  const JsonValue& kr = v.Find("results")->AsArray()[1];
  ASSERT_NE(kr.Find("engine"), nullptr);
  EXPECT_EQ(kr.Find("engine")->Find("db"), nullptr);
  EXPECT_DOUBLE_EQ(kr.Find("engine")->Find("kv")->Find("puts")->AsDouble(),
                   1.0);
  EXPECT_NE(kr.Find("metrics")->Find("histograms")->Find("kv.commit_ns"),
            nullptr);
}

TEST(BenchJsonTest, PathFromArgsBothForms) {
  const char* a1[] = {"bin", "--quick", "--json", "/tmp/x.json"};
  EXPECT_EQ(BenchJson::PathFromArgs(4, const_cast<char**>(a1)), "/tmp/x.json");
  const char* a2[] = {"bin", "--json=/tmp/y.json"};
  EXPECT_EQ(BenchJson::PathFromArgs(2, const_cast<char**>(a2)), "/tmp/y.json");
  const char* a3[] = {"bin", "--quick"};
  EXPECT_EQ(BenchJson::PathFromArgs(2, const_cast<char**>(a3)), "");
  // Trailing --json with no value is ignored, not an out-of-bounds read.
  const char* a4[] = {"bin", "--json"};
  EXPECT_EQ(BenchJson::PathFromArgs(2, const_cast<char**>(a4)), "");
}

// ---------------------------------------------------------------------------
// host_writes accounting fix: failed writes must not count.

TEST(WriteAccountingTest, FailedWriteThroughProgramDoesNotCount) {
  SsdConfig cfg = SsdConfig::Tiny(true);
  cfg.cache_enabled = false;  // Write-through: program before ack.
  SsdDevice dev(cfg);
  const std::string data(cfg.sector_size, 'x');

  // Fail the first program and every retry, so the failure surfaces to
  // the host.
  for (uint32_t i = 0; i <= Ftl::kProgramRetryLimit; ++i) {
    dev.fault_injector().FailProgramAfter(i);
  }
  const auto fail = dev.Write(0, 0, data);
  ASSERT_FALSE(fail.status.ok());
  EXPECT_EQ(dev.stats().host_writes, 0u);
  EXPECT_EQ(dev.stats().host_written_sectors, 0u);

  // A subsequent successful write counts exactly once.
  const auto ok = dev.Write(fail.done, 0, data);
  ASSERT_TRUE(ok.status.ok());
  EXPECT_EQ(dev.stats().host_writes, 1u);
  EXPECT_EQ(dev.stats().host_written_sectors, 1u);
}

TEST(WriteAccountingTest, SuccessfulWritesCountSectors) {
  SsdConfig cfg = SsdConfig::Tiny(true);
  SsdDevice dev(cfg);
  const std::string data(2 * cfg.sector_size, 'x');
  SimTime t = 0;
  for (int i = 0; i < 3; ++i) t = dev.Write(t, 0, data).done;
  EXPECT_EQ(dev.stats().host_writes, 3u);
  EXPECT_EQ(dev.stats().host_written_sectors, 6u);
}

// ---------------------------------------------------------------------------
// Read-cache accounting: every host-read sector is either a hit or a miss.

TEST(ReadAccountingTest, HitsPlusMissesEqualHostReadSectors) {
  SsdConfig cfg = SsdConfig::Tiny(true);
  SsdDevice dev(cfg);
  const std::string data(cfg.sector_size, 'r');
  SimTime t = 0;
  for (Lpn l = 0; l < 6; ++l) t = dev.Write(t, l, data).done;

  std::string out;
  // Full hit: both sectors resident.
  ASSERT_TRUE(dev.Read(t, 0, 2, &out).status.ok());
  // Full miss: never written (unmapped reads count as misses too).
  ASSERT_TRUE(dev.Read(t, 40, 2, &out).status.ok());
  // Partial: one resident sector, one unwritten.
  ASSERT_TRUE(dev.Read(t, 5, 2, &out).status.ok());

  const SsdDevice::Stats& s = dev.stats();
  EXPECT_EQ(s.host_read_sectors, 6u);
  EXPECT_EQ(s.cache_read_hits + s.cache_read_misses, s.host_read_sectors);
  EXPECT_EQ(s.cache_read_hits, 3u);
  EXPECT_EQ(s.cache_read_misses, 3u);
  EXPECT_EQ(s.cache_full_hits, 1u);
  EXPECT_EQ(s.cache_partial_hits, 1u);
}

// ---------------------------------------------------------------------------
// No-perturbation guarantee: observability never advances virtual time.

TEST(NoPerturbationTest, TracedRunIsBitIdenticalToUntracedRun) {
  FioJob job;
  job.threads = 8;
  job.ops = 4000;
  job.block_bytes = 4 * kKiB;
  job.working_set_bytes = 8 * kMiB;

  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.store_data = false;

  SsdDevice plain(cfg);
  const FioResult base = RunFio(&plain, job);

  SsdDevice traced(cfg);
  Tracer tracer(1 << 14);
  traced.set_tracer(&tracer);
  const FioResult instrumented = RunFio(&traced, job);

  // Virtual-time results must be bit-identical with tracing attached and
  // every metrics histogram recording.
  EXPECT_EQ(instrumented.duration, base.duration);
  EXPECT_DOUBLE_EQ(instrumented.iops, base.iops);
  EXPECT_EQ(instrumented.latency.count(), base.latency.count());
  EXPECT_EQ(instrumented.latency.min(), base.latency.min());
  EXPECT_EQ(instrumented.latency.max(), base.latency.max());
  EXPECT_EQ(instrumented.latency.Percentile(99), base.latency.Percentile(99));
  EXPECT_EQ(traced.stats().host_written_sectors,
            plain.stats().host_written_sectors);

  // The instrumented run actually observed something.
  EXPECT_GT(tracer.recorded(), 0u);
  EXPECT_GT(traced.metrics().histograms().at("ssd.ncq_wait_ns").count(), 0u);
}

}  // namespace
}  // namespace durassd
