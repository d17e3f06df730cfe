// The one snapshot: one entry per name under its kind, nothing recorded
// while the switch is off, sorted series and counters with {total, 1s, 10s,
// 60s}, its JSON and Prometheus renderings, and the background exporter
// (manual injected clock; no wall-time dependence in assertions).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/temp_path.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "snapshot_lookup.hpp"
#include "util/json.hpp"
#include "util/json_read.hpp"

namespace odq::obs {
namespace {

constexpr std::uint64_t kSec = 1000000;

using testsnap::count_named;
using testsnap::find_named;

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(true);
    metrics_reset();
  }
  void TearDown() override {
    metrics_reset();
    set_metrics_enabled(false);
  }
};

// Repeated lookups return one object, so the name is listed once in the
// snapshot; a lookup as the other kind throws and lists nothing under it.
TEST_F(TelemetryTest, RegistryReturnsSameObjectAndChecksKinds) {
  EXPECT_EQ(&series("t.reg.series"), &series("t.reg.series"));
  series("t.reg.series").record(4);
  counter("t.reg.counter").add(1);
  counter("t.reg.counter").add(2);
  EXPECT_THROW(counter("t.reg.series"), std::invalid_argument);
  EXPECT_THROW(series("t.reg.counter"), std::invalid_argument);

  const MetricsSnapshot snap = metrics_snapshot(1 * kSec);
  EXPECT_EQ(count_named(snap.series, "t.reg.series"), 1);
  EXPECT_EQ(count_named(snap.counters, "t.reg.series"), 0);
  EXPECT_EQ(count_named(snap.counters, "t.reg.counter"), 1);
  EXPECT_EQ(count_named(snap.series, "t.reg.counter"), 0);
  EXPECT_EQ(find_named(snap.counters, "t.reg.counter").total, 3);
  EXPECT_EQ(find_named(snap.series, "t.reg.series").total.count, 1u);
}

// With the switch off nothing reaches the snapshot: the total and every
// window stay empty for both kinds, though the epoch advanced.
TEST_F(TelemetryTest, DisabledRecordsNothing) {
  Series& s = series("t.gate.series");
  Counter& c = counter("t.gate.counter");
  set_metrics_enabled(false);
  s.record(42);
  c.increment();
  const MetricsSnapshot snap = metrics_snapshot(2 * kSec);
  set_metrics_enabled(true);

  const SeriesSnapshot ss = find_named(snap.series, "t.gate.series");
  EXPECT_EQ(ss.total.count, 0u);
  for (const WindowStats& w : ss.windows) EXPECT_EQ(w.count, 0u);
  const CounterSnapshot cs = find_named(snap.counters, "t.gate.counter");
  EXPECT_EQ(cs.total, 0);
  for (std::int64_t w : cs.windows) EXPECT_EQ(w, 0);
}

TEST_F(TelemetryTest, SnapshotCarriesSortedSeriesAndCounters) {
  series("t.snap.zz").record(100);
  series("t.snap.aa").record(200);
  counter("t.snap.mm").add(7);

  const MetricsSnapshot snap = metrics_snapshot(3 * kSec);
  EXPECT_EQ(snap.generated_us, 3 * kSec);
  for (std::size_t i = 1; i < snap.series.size(); ++i) {
    EXPECT_LT(snap.series[i - 1].name, snap.series[i].name);
  }
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }

  bool saw_aa = false, saw_mm = false;
  for (const SeriesSnapshot& s : snap.series) {
    if (s.name == "t.snap.aa") {
      saw_aa = true;
      EXPECT_EQ(s.total.count, 1u);
      EXPECT_EQ(s.total.mean, 200.0);
      // The snapshot's advance folded the sample into epoch 3, so every
      // window sees it.
      for (const WindowStats& w : s.windows) {
        EXPECT_EQ(w.count, 1u);
        EXPECT_GE(w.p50, 200u);
      }
    }
  }
  for (const CounterSnapshot& c : snap.counters) {
    if (c.name == "t.snap.mm") {
      saw_mm = true;
      EXPECT_EQ(c.total, 7);
      for (std::int64_t w : c.windows) EXPECT_EQ(w, 7);
    }
  }
  EXPECT_TRUE(saw_aa);
  EXPECT_TRUE(saw_mm);
}

TEST_F(TelemetryTest, JsonDocumentParsesWithSchemaTag) {
  series("t.json.lat").record(1234);
  counter("t.json.req").add(3);
  const MetricsSnapshot snap = metrics_snapshot(1 * kSec);

  util::JsonWriter w;
  metrics_to_json(snap, w);
  const util::StatusOr<util::JsonValue> parsed = util::json_try_parse(w.take());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const util::JsonValue& doc = *parsed;

  EXPECT_EQ(doc.at("bench").str, "odq_telemetry");
  EXPECT_EQ(doc.at("schema_version").num,
            static_cast<double>(kMetricsSchemaVersion));
  ASSERT_EQ(doc.at("windows_s").arr.size(), kMetricWindowsS.size());
  EXPECT_EQ(doc.at("windows_s").arr[0].num, 1.0);

  const util::JsonValue& series = doc.at("series").at("t.json.lat");
  for (const char* win : {"total", "1s", "10s", "60s"}) {
    ASSERT_TRUE(series.has(win)) << win;
    EXPECT_EQ(series.at(win).at("count").num, 1.0);
    EXPECT_GE(series.at(win).at("p99").num, 1234.0);
  }
  EXPECT_EQ(doc.at("counters").at("t.json.req").at("total").num, 3.0);
  EXPECT_EQ(doc.at("counters").at("t.json.req").at("1s").num, 3.0);
}

TEST_F(TelemetryTest, PrometheusExpositionHasSummaryAndCounterLines) {
  series("t.prom.latency_us").record(500);
  counter("t.prom.requests").add(9);
  const MetricsSnapshot snap = metrics_snapshot(1 * kSec);

  const std::string text = metrics_to_prometheus(snap);
  EXPECT_NE(text.find("# TYPE odq_t_prom_latency_us summary"),
            std::string::npos);
  EXPECT_NE(text.find("odq_t_prom_latency_us{window=\"1s\",quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("odq_t_prom_latency_us_count{window=\"total\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("odq_t_prom_latency_us_sum{window=\"total\"} 500"),
            std::string::npos);
  EXPECT_NE(text.find("odq_t_prom_requests_total 9"), std::string::npos);
  EXPECT_NE(text.find("odq_trace_dropped_events_total"), std::string::npos);
}

TEST_F(TelemetryTest, SnapshotSurfacesTraceDroppedEvents) {
  // The droppedEvents counter rides along in every snapshot so starved
  // trace buffers are visible from odq_top, not just the trace file.
  EXPECT_EQ(metrics_snapshot(0).trace_dropped_events,
            trace_dropped_events());
}

TEST_F(TelemetryTest, ExporterFlushOnceWritesBothFilesAtomically) {
  const std::string json_path =
      testutil::temp_path("odq_telemetry_test.json");
  const std::string prom_path =
      testutil::temp_path("odq_telemetry_test.prom");
  series("t.exp.lat").record(777);
  counter("t.exp.req").add(2);

  std::uint64_t fake_now = 5 * kSec;
  MetricsExporterConfig cfg;
  cfg.json_path = json_path;
  cfg.prom_path = prom_path;
  cfg.now_us = [&fake_now] { return fake_now; };
  MetricsExporter exporter(cfg);

  const MetricsSnapshot first = exporter.flush_once();
  EXPECT_EQ(first.flush_seq, 1u);
  EXPECT_EQ(first.generated_us, 5 * kSec);
  EXPECT_EQ(exporter.flush_count(), 1u);

  const util::StatusOr<util::JsonValue> doc =
      util::json_try_parse_file(json_path);
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  EXPECT_EQ(doc->at("bench").str, "odq_telemetry");
  EXPECT_EQ(doc->at("flush_seq").num, 1.0);
  EXPECT_EQ(doc->at("series").at("t.exp.lat").at("total").at("count").num,
            1.0);

  // Re-flush at a later epoch: the file is atomically replaced (no .tmp
  // residue) and the 1s window has drained while the total persists.
  fake_now = 20 * kSec;
  series("t.exp.lat").record(888);
  const MetricsSnapshot second = exporter.flush_once();
  EXPECT_EQ(second.flush_seq, 2u);
  const util::StatusOr<util::JsonValue> doc2 =
      util::json_try_parse_file(json_path);
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(doc2->at("series").at("t.exp.lat").at("total").at("count").num,
            2.0);
  EXPECT_EQ(doc2->at("series").at("t.exp.lat").at("1s").at("count").num, 1.0);
  std::FILE* tmp = std::fopen((json_path + ".tmp").c_str(), "r");
  EXPECT_EQ(tmp, nullptr) << "tmp file left behind";
  if (tmp != nullptr) std::fclose(tmp);

  std::remove(json_path.c_str());
  std::remove(prom_path.c_str());
}

TEST_F(TelemetryTest, ExporterStopDrainsFinalSamples) {
  const std::string json_path =
      testutil::temp_path("odq_telemetry_drain.json");
  std::atomic<std::uint64_t> fake_now{1 * kSec};
  MetricsExporterConfig cfg;
  cfg.json_path = json_path;
  cfg.flush_interval_ms = 1;
  cfg.now_us = [&fake_now] { return fake_now.load(); };
  MetricsExporter exporter(cfg);
  exporter.start();

  // A sample recorded while the flusher runs must be on disk after stop()
  // even if no periodic flush happened to see it: stop() drains.
  counter("t.drain.req").add(5);
  exporter.stop();
  EXPECT_GE(exporter.flush_count(), 1u);

  const util::StatusOr<util::JsonValue> doc =
      util::json_try_parse_file(json_path);
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  EXPECT_EQ(doc->at("counters").at("t.drain.req").at("total").num, 5.0);

  exporter.stop();  // idempotent
  std::remove(json_path.c_str());
}

TEST_F(TelemetryTest, ExporterWithBadPathReportsButDoesNotThrowFromStop) {
  MetricsExporterConfig cfg;
  cfg.json_path = "/nonexistent-dir/odq_telemetry.json";
  cfg.flush_interval_ms = 1;
  cfg.now_us = [] { return std::uint64_t{0}; };
  MetricsExporter exporter(cfg);
  exporter.start();
  exporter.stop();  // swallows the write failure; flush_once would throw
  EXPECT_THROW(exporter.flush_once(), std::runtime_error);
}

}  // namespace
}  // namespace odq::obs
