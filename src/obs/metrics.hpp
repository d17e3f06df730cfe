// Metrics registry: the one substrate for every live signal in the process.
//
// Two kinds of named metric, both sharded per thread and windowed:
//
//  * Counter — a monotonically increasing integer ("serve.requests",
//    "odq.conv.predictor_macs").
//  * Series — a distribution of non-negative integer samples in the
//    log-bucketed layout of obs/histogram.hpp ("serve.latency_us",
//    "serve.queue_depth", fractions in basis points). The name carries the
//    unit; docs/observability.md lists them.
//
// Switch: ODQ_METRICS (any non-empty value except "0") or
// set_metrics_enabled(). Collection defaults to off, and every record path
// starts with one relaxed atomic load and branches out. When on, a record
// touches only the calling thread's own shard: Counter::add is one relaxed
// RMW, Series::record two.
//
// Time model — recording and the rings never read a clock:
//
//  * Recording is clock-free: values land in cumulative per-thread shards.
//  * advance(now_us) folds the cumulative delta since the previous advance
//    into the ring slot for epoch now_us / 1e6 (1-second epochs,
//    kMetricRingSlots slots). The *caller* supplies the monotonic clock:
//    the MetricsExporter injects one via its config, and tests drive a
//    manual clock through epoch skips and jumps.
//  * window(seconds) merges the ring slots whose epoch tag lies in
//    (current_epoch - seconds, current_epoch]. Stale slots (tags older than
//    the window, e.g. after a clock jump past the whole ring) are excluded
//    by the tag check; no eager clearing is needed.
//
// Snapshot: metrics_snapshot(now_us) advances every metric and returns
// {total, 1s, 10s, 60s} for each. metrics_to_json() renders it as the
// {"bench":"odq_telemetry",...} document and metrics_to_prometheus() as
// Prometheus text. MetricsExporter rewrites both files atomically (tmp +
// rename) on a background thread, so readers tailing them (tools/odq_top)
// always see a complete document or none.
//
// Usage on a hot-ish path (resolve the handle once, outside the loop):
//
//   static obs::Counter& c = obs::counter("odq.conv.outputs");
//   c.add(n);
//
// Handles stay valid for the process lifetime; the registry never deletes
// a metric (metrics_reset() zeroes values but keeps the objects).
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.hpp"

namespace odq::util {
class JsonWriter;
}  // namespace odq::util

namespace odq::obs {

// Global metrics switch. Initialized from ODQ_METRICS on first query.
bool metrics_enabled();
void set_metrics_enabled(bool on);

// Reporting windows, in seconds, smallest first. The ring must span the
// largest window plus slack for the in-progress epoch.
inline constexpr std::array<int, 3> kMetricWindowsS = {1, 10, 60};
inline constexpr std::size_t kMetricRingSlots = 64;

// Fractions are recorded as integer basis points (0..10000).
inline std::uint64_t basis_points(double fraction) {
  return static_cast<std::uint64_t>(
      std::llround(std::clamp(fraction, 0.0, 1.0) * 10000.0));
}

// Ring of 1-second epoch slots over a cumulative value V (a Counter's
// int64 total, a Series' LogHistogram). Snapshot-side only; the mutex is
// never taken by recorders.
template <class V>
class EpochRing {
 public:
  // Fold `cum - (cum at the previous advance)` into the slot for epoch
  // now_us / 1e6. A now_us older than the current epoch folds into the
  // current slot (monotonic clocks shouldn't go back; be safe).
  void advance(std::uint64_t now_us, V cum);

  // Merged value over the last `seconds` epochs ending at the epoch of the
  // latest advance(). Values recorded after that advance are not yet
  // visible (they fold in on the next advance).
  V window(int seconds) const;

  void reset();

 private:
  struct Slot {
    std::int64_t epoch = -1;
    V data{};
  };

  mutable std::mutex mutex_;
  V last_cum_{};
  std::int64_t cur_epoch_ = -1;
  std::array<Slot, kMetricRingSlots> ring_;
};

// Monotonic counter: per-thread cells, a cumulative total and the ring.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::int64_t delta) {
    if (!metrics_enabled()) return;
    cells_.local().fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }

  const std::string& name() const { return name_; }
  std::int64_t total() const;
  void advance(std::uint64_t now_us) { ring_.advance(now_us, total()); }
  std::int64_t window(int seconds) const { return ring_.window(seconds); }
  void reset();

 private:
  std::string name_;
  PerThreadShards<std::atomic<std::int64_t>> cells_;
  EpochRing<std::int64_t> ring_;
};

// Sample series: a ShardedLogHistogram plus the ring. Levels (queue depth,
// in-flight requests) are recorded as samples, so the series' max is the
// peak level: exact below 32, at most 1/32 high above.
class Series {
 public:
  explicit Series(std::string name) : name_(std::move(name)) {}
  Series(const Series&) = delete;
  Series& operator=(const Series&) = delete;

  void record(std::uint64_t v) {
    if (!metrics_enabled()) return;
    live_.record(v);
  }

  const std::string& name() const { return name_; }
  // Cumulative histogram since creation/reset (all shards merged).
  LogHistogram total() const { return live_.merged(); }
  void advance(std::uint64_t now_us) { ring_.advance(now_us, total()); }
  LogHistogram window(int seconds) const { return ring_.window(seconds); }
  void reset();

 private:
  std::string name_;
  ShardedLogHistogram live_;
  EpochRing<LogHistogram> ring_;
};

// Registry lookups: create-on-first-use, then the same object for the same
// name. Counters and series share one namespace; asking for a name as the
// other kind throws std::invalid_argument. A lookup takes the registry
// mutex, so record sites resolve their handles once.
Counter& counter(const std::string& name);
Series& series(const std::string& name);

// Zero every registered metric (handles stay valid). Test/tool helper.
void metrics_reset();

// -- Snapshot / exposition ------------------------------------------------

struct WindowStats {
  std::uint64_t count = 0;
  double mean = 0.0;
  std::uint64_t min = 0, max = 0;
  std::uint64_t p50 = 0, p95 = 0, p99 = 0, p999 = 0;
};

struct SeriesSnapshot {
  std::string name;
  WindowStats total;
  // Indexed like kMetricWindowsS.
  std::array<WindowStats, kMetricWindowsS.size()> windows;
};

struct CounterSnapshot {
  std::string name;
  std::int64_t total = 0;
  std::array<std::int64_t, kMetricWindowsS.size()> windows{};
};

struct MetricsSnapshot {
  std::uint64_t generated_us = 0;
  std::uint64_t flush_seq = 0;
  // obs::trace_dropped_events(): span loss from ODQ_TRACE_MAX_EVENTS
  // saturation is visible wherever metrics are, not only in the trace.
  std::uint64_t trace_dropped_events = 0;
  std::vector<SeriesSnapshot> series;     // sorted by name
  std::vector<CounterSnapshot> counters;  // sorted by name
};

// Advance every registered metric to now_us and snapshot it. Deterministic
// once recorders have quiesced.
MetricsSnapshot metrics_snapshot(std::uint64_t now_us);

// Steady-clock microseconds since the first call: the exporter's default
// clock, for one-shot snapshots outside an exporter.
std::uint64_t metrics_clock_us();

// The {"bench":"odq_telemetry",...} document. Bumping the layout requires
// bumping kMetricsSchemaVersion (gated by the telemetry row in
// tools/testdata/serve_baseline.json).
inline constexpr int kMetricsSchemaVersion = 1;
void metrics_to_json(const MetricsSnapshot& snap, util::JsonWriter& w);

// Prometheus text exposition (summary-style quantile lines per window;
// metric names get an odq_ prefix and dots become underscores).
std::string metrics_to_prometheus(const MetricsSnapshot& snap);

// -- Exporter -------------------------------------------------------------

struct MetricsExporterConfig {
  std::string json_path;  // "" skips the JSON snapshot file
  std::string prom_path;  // "" skips the Prometheus file
  std::uint64_t flush_interval_ms = 250;
  // Monotonic microsecond clock driving the epoch ring. Defaults to
  // metrics_clock_us.
  std::function<std::uint64_t()> now_us;
};

// Background flusher: every flush_interval_ms, snapshot the registry and
// atomically rewrite the configured files. stop() performs a final drain
// flush (so values recorded up to shutdown are on disk) and joins;
// idempotent, and the destructor calls it.
class MetricsExporter {
 public:
  explicit MetricsExporter(MetricsExporterConfig cfg);
  ~MetricsExporter();

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  void start();
  void stop();

  // One snapshot-and-write cycle; returns the snapshot it wrote. Usable
  // without start() for manual-clock tests and one-shot tools.
  MetricsSnapshot flush_once();

  std::uint64_t flush_count() const {
    return flush_seq_.load(std::memory_order_relaxed);
  }

 private:
  void run();

  MetricsExporterConfig cfg_;
  std::atomic<std::uint64_t> flush_seq_{0};

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool started_ = false;
  std::thread thread_;
};

}  // namespace odq::obs
