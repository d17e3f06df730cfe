// Metrics registry: the switch, kinds, sharded recording, reset, level
// peaks and the snapshot's sorting, typing and JSON form.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/proptest.hpp"
#include "json_checker.hpp"
#include "obs/trace.hpp"
#include "snapshot_lookup.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace odq::obs {
namespace {

constexpr std::uint64_t kSec = 1000000;

using testsnap::count_named;
using testsnap::find_named;

class MetricsTest : public ::testing::Test {
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

TEST_F(MetricsTest, DisabledRecordsNothing) {
  Counter& c = counter("t.disabled.counter");
  Series& s = series("t.disabled.series");
  set_metrics_enabled(false);
  c.add(5);
  s.record(42);
  set_metrics_enabled(true);
  EXPECT_EQ(c.total(), 0);
  EXPECT_EQ(s.total().count(), 0u);
}

TEST_F(MetricsTest, RegistryReturnsSameObjectAndChecksKinds) {
  EXPECT_EQ(&counter("t.registry.counter"), &counter("t.registry.counter"));
  EXPECT_EQ(&series("t.registry.series"), &series("t.registry.series"));
  // One namespace: a name registered as one kind refuses the other.
  EXPECT_THROW(series("t.registry.counter"), std::invalid_argument);
  EXPECT_THROW(counter("t.registry.series"), std::invalid_argument);
}

TEST_F(MetricsTest, ParallelCountsMatchSerialExactly) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  Counter& serial_c = counter("t.det.serial_counter");
  Counter& parallel_c = counter("t.det.parallel_counter");
  Series& serial_s = series("t.det.serial_series");
  Series& parallel_s = series("t.det.parallel_series");

  // Each thread records its own seeded stream; the serial run replays all
  // four streams on one thread.
  auto record = [](Counter& c, Series& s, int t) {
    util::Rng rng(testprop::case_seed(static_cast<std::uint64_t>(t)));
    for (int i = 0; i < kPerThread; ++i) {
      const std::uint64_t v = rng.uniform_u64(1 << 20);
      c.add(static_cast<std::int64_t>(v % 7));
      s.record(v);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(record, std::ref(parallel_c), std::ref(parallel_s), t);
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) record(serial_c, serial_s, t);

  EXPECT_EQ(parallel_c.total(), serial_c.total());
  const LogHistogram p = parallel_s.total(), s = serial_s.total();
  EXPECT_EQ(p.count(), s.count());
  EXPECT_EQ(p.sum(), s.sum());
  for (std::size_t i = 0; i < kLogHistBuckets; ++i) {
    ASSERT_EQ(p.bucket_count(i), s.bucket_count(i)) << "bucket " << i;
  }

  // The snapshot's windows see the same merged values.
  const MetricsSnapshot snap = metrics_snapshot(7 * kSec);
  EXPECT_EQ(find_named(snap.counters, "t.det.parallel_counter").windows[0],
            serial_c.total());
  const SeriesSnapshot ps = find_named(snap.series, "t.det.parallel_series");
  EXPECT_EQ(ps.windows[0].count, s.count());
  EXPECT_EQ(ps.windows[0].p99, s.quantile(0.99));
}

TEST_F(MetricsTest, ResetZeroesButKeepsHandles) {
  Counter& c = counter("t.reset.c");
  Series& s = series("t.reset.s");
  c.add(7);
  s.record(25);
  c.advance(1 * kSec);
  s.advance(1 * kSec);
  metrics_reset();
  EXPECT_EQ(c.total(), 0);
  EXPECT_EQ(c.window(60), 0);
  EXPECT_EQ(s.total().count(), 0u);
  EXPECT_EQ(s.window(60).count(), 0u);
  c.add(1);
  EXPECT_EQ(c.total(), 1);
  EXPECT_EQ(&counter("t.reset.c"), &c);
}

// Levels (queue depth, in-flight) are series samples, so the series' max
// is the peak level the deleted gauge watermark used to track: exact below
// 32, at most 1/32 high above. The all-time peak stays in total(); a
// window's peak re-arms once the epoch that held it ages out.
TEST_F(MetricsTest, GaugeWatermarkTracksPeakAndRearmsOnTake) {
  Series& depth = series("t.wm.depth");
  for (std::uint64_t v : {1, 4, 5, 3, 2}) depth.record(v);
  depth.advance(1 * kSec);
  EXPECT_EQ(depth.total().max(), 5u);
  EXPECT_EQ(depth.window(1).max(), 5u);

  depth.record(3);
  depth.advance(3 * kSec);
  EXPECT_EQ(depth.window(1).max(), 3u);
  EXPECT_EQ(depth.window(10).max(), 5u);
  EXPECT_EQ(depth.total().max(), 5u);

  metrics_reset();
  EXPECT_EQ(depth.total().max(), 0u);

  for (std::uint64_t peak = 32; peak < 100000; peak = peak * 3 + 1) {
    Series& s = series("t.wm.peak" + std::to_string(peak));
    s.record(peak / 2);
    s.record(peak);
    s.record(1);
    const std::uint64_t max = s.total().max();
    EXPECT_GE(max, peak);
    EXPECT_LE(max * 32, peak * 33) << "peak " << peak;
  }
}

// The snapshot and its JSON carry a level series' peak in "max", which is
// where odq_serve and odq_top read the queue-depth peak from.
TEST_F(MetricsTest, SnapshotCarriesGaugeWatermarkInMax) {
  Series& level = series("t.wm.snap");
  level.record(7);
  level.record(2);
  const SeriesSnapshot first =
      find_named(metrics_snapshot(1 * kSec).series, "t.wm.snap");
  EXPECT_EQ(first.total.max, 7u);
  EXPECT_EQ(first.windows[0].max, 7u);

  level.record(2);
  const MetricsSnapshot snap = metrics_snapshot(2 * kSec);
  const SeriesSnapshot second = find_named(snap.series, "t.wm.snap");
  EXPECT_EQ(second.total.max, 7u);
  EXPECT_EQ(second.windows[0].max, 2u);  // the 1 s window re-armed
  EXPECT_EQ(second.windows[1].max, 7u);

  util::JsonWriter w;
  metrics_to_json(snap, w);
  const testjson::Value doc = testjson::parse(w.take());
  const testjson::Value& json = doc.at("series").at("t.wm.snap");
  EXPECT_EQ(json.at("total").at("max").num, 7.0);
  EXPECT_EQ(json.at("1s").at("max").num, 2.0);
}

TEST_F(MetricsTest, SnapshotIsSortedAndTyped) {
  // Registered out of name order, the two kinds interleaved.
  counter("t.typed.d").add(2);
  series("t.typed.c").record(3);
  counter("t.typed.b").add(5);
  series("t.typed.a").record(9);

  const MetricsSnapshot snap = metrics_snapshot(1 * kSec);
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
  for (std::size_t i = 1; i < snap.series.size(); ++i) {
    EXPECT_LT(snap.series[i - 1].name, snap.series[i].name);
  }
  // Each name is listed once, under its own kind only.
  for (const char* name : {"t.typed.b", "t.typed.d"}) {
    EXPECT_EQ(count_named(snap.counters, name), 1) << name;
    EXPECT_EQ(count_named(snap.series, name), 0) << name;
  }
  for (const char* name : {"t.typed.a", "t.typed.c"}) {
    EXPECT_EQ(count_named(snap.series, name), 1) << name;
    EXPECT_EQ(count_named(snap.counters, name), 0) << name;
  }
  EXPECT_EQ(find_named(snap.counters, "t.typed.d").total, 2);
  EXPECT_EQ(find_named(snap.counters, "t.typed.b").total, 5);
  EXPECT_EQ(find_named(snap.series, "t.typed.c").total.count, 1u);
  EXPECT_EQ(find_named(snap.series, "t.typed.a").total.mean, 9.0);
}

TEST_F(MetricsTest, SnapshotIncludesSyntheticTraceDroppedEventsCounter) {
  // Span loss must be visible wherever metrics are, even though no metric
  // registered under a trace.* name feeds it: both renderings of the
  // snapshot carry the trace layer's own count.
  const MetricsSnapshot snap = metrics_snapshot(1 * kSec);
  EXPECT_EQ(snap.trace_dropped_events, trace_dropped_events());

  util::JsonWriter w;
  metrics_to_json(snap, w);
  const testjson::Value doc = testjson::parse(w.take());
  EXPECT_EQ(doc.at("trace_dropped_events").num,
            static_cast<double>(snap.trace_dropped_events));

  const std::string text = metrics_to_prometheus(snap);
  EXPECT_NE(text.find("# TYPE odq_trace_dropped_events_total counter\n"
                      "odq_trace_dropped_events_total " +
                      std::to_string(snap.trace_dropped_events) + "\n"),
            std::string::npos);
}

TEST_F(MetricsTest, JsonSnapshotParses) {
  counter("t.json.counter").add(3);
  series("t.json.level").record(5);
  series("t.json.fraction_bp").record(basis_points(0.75));

  util::JsonWriter w;
  metrics_to_json(metrics_snapshot(1 * kSec), w);
  const testjson::Value doc = testjson::parse(w.take());
  ASSERT_EQ(doc.kind, testjson::Value::Kind::kObject);
  const testjson::Value& c = doc.at("counters").at("t.json.counter");
  EXPECT_EQ(c.at("total").num, 3.0);
  EXPECT_EQ(c.at("60s").num, 3.0);
  const testjson::Value& level = doc.at("series").at("t.json.level");
  EXPECT_EQ(level.at("total").at("count").num, 1.0);
  EXPECT_EQ(level.at("total").at("p50").num, 5.0);
  // Fractions travel as basis points; the mean is exact.
  const testjson::Value& bp = doc.at("series").at("t.json.fraction_bp");
  EXPECT_EQ(bp.at("total").at("mean").num, 7500.0);
  EXPECT_EQ(bp.at("10s").at("count").num, 1.0);
}

// The shard cache is keyed by address and checked by generation: a
// recorder built where a destroyed one lived must start from a fresh shard,
// never write through the predecessor's freed one (ASan's use-after-free
// check guards this in CI).
TEST_F(MetricsTest, RecorderAtARecycledAddressGetsAFreshShard) {
  std::optional<Counter> c;
  std::optional<Series> s;
  for (int i = 1; i <= 8; ++i) {
    c.emplace("t.recycled.counter");
    s.emplace("t.recycled.series");
    c->add(i);
    s->record(static_cast<std::uint64_t>(i));
    EXPECT_EQ(c->total(), i);
    EXPECT_EQ(s->total().count(), 1u);
    EXPECT_EQ(s->total().sum(), static_cast<std::uint64_t>(i));
    c.reset();
    s.reset();
  }
}

}  // namespace
}  // namespace odq::obs
