#include "obs/metrics.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"

namespace odq::obs {

namespace {

std::atomic<int> g_metrics_enabled{-1};  // -1: read ODQ_METRICS on first use

}  // namespace

bool metrics_enabled() {
  int v = g_metrics_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* env = std::getenv("ODQ_METRICS");
    v = (env != nullptr && env[0] != '\0' && std::string(env) != "0") ? 1 : 0;
    g_metrics_enabled.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void set_metrics_enabled(bool on) {
  g_metrics_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

// -- Epoch ring -----------------------------------------------------------

namespace {

void fold(std::int64_t& into, std::int64_t v) { into += v; }
void fold(LogHistogram& into, const LogHistogram& v) { into.merge(v); }

std::int64_t minus(std::int64_t cum, std::int64_t last) { return cum - last; }
LogHistogram minus(LogHistogram cum, const LogHistogram& last) {
  cum.subtract(last);
  return cum;
}

bool is_zero(std::int64_t v) { return v == 0; }
bool is_zero(const LogHistogram& h) { return h.empty(); }

}  // namespace

template <class V>
void EpochRing<V>::advance(std::uint64_t now_us, V cum) {
  const auto e = static_cast<std::int64_t>(now_us / 1000000);
  std::lock_guard<std::mutex> lock(mutex_);
  const V delta = minus(cum, last_cum_);
  last_cum_ = std::move(cum);

  cur_epoch_ = std::max(e, cur_epoch_);
  if (is_zero(delta)) return;
  Slot& s = ring_[static_cast<std::size_t>(cur_epoch_) % kMetricRingSlots];
  if (s.epoch != cur_epoch_) {
    s.epoch = cur_epoch_;
    s.data = V{};
  }
  fold(s.data, delta);
}

template <class V>
V EpochRing<V>::window(int seconds) const {
  std::lock_guard<std::mutex> lock(mutex_);
  V out{};
  if (cur_epoch_ < 0) return out;
  for (const Slot& s : ring_) {
    if (s.epoch > cur_epoch_ - seconds && s.epoch <= cur_epoch_) {
      fold(out, s.data);
    }
  }
  return out;
}

template <class V>
void EpochRing<V>::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  last_cum_ = V{};
  cur_epoch_ = -1;
  ring_.fill(Slot{});
}

template class EpochRing<std::int64_t>;
template class EpochRing<LogHistogram>;

// -- Counter / Series -----------------------------------------------------

std::int64_t Counter::total() const {
  std::int64_t sum = 0;
  cells_.for_each([&sum](const std::atomic<std::int64_t>& c) {
    sum += c.load(std::memory_order_relaxed);
  });
  return sum;
}

void Counter::reset() {
  cells_.for_each([](std::atomic<std::int64_t>& c) {
    c.store(0, std::memory_order_relaxed);
  });
  ring_.reset();
}

void Series::reset() {
  live_.reset();
  ring_.reset();
}

// -- Registry -------------------------------------------------------------

namespace {

struct Registry {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Series>> series;
};

// Leaked on purpose: worker threads may record during static destruction.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

// Find-or-create `name` in `mine`, refusing a name `other` already holds.
template <class T, class Other>
T& lookup(std::map<std::string, std::unique_ptr<T>>& mine,
          const std::map<std::string, std::unique_ptr<Other>>& other,
          const std::string& name, const char* other_kind) {
  auto it = mine.find(name);
  if (it == mine.end()) {
    if (other.count(name) > 0) {
      throw std::invalid_argument("metric '" + name + "' is a " + other_kind);
    }
    it = mine.emplace(name, std::make_unique<T>(name)).first;
  }
  return *it->second;
}

}  // namespace

Counter& counter(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return lookup(r.counters, r.series, name, "series");
}

Series& series(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return lookup(r.series, r.counters, name, "counter");
}

void metrics_reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (auto& [_, c] : r.counters) c->reset();
  for (auto& [_, s] : r.series) s->reset();
}

// -- Snapshot / exposition ------------------------------------------------

namespace {

WindowStats window_stats(const LogHistogram& h) {
  WindowStats s;
  s.count = h.count();
  s.mean = h.mean();
  s.min = h.min();
  s.max = h.max();
  s.p50 = h.quantile(0.50);
  s.p95 = h.quantile(0.95);
  s.p99 = h.quantile(0.99);
  s.p999 = h.quantile(0.999);
  return s;
}

}  // namespace

MetricsSnapshot metrics_snapshot(std::uint64_t now_us) {
  // Collect stable handles under the registry lock, then advance/read each
  // metric under its own ring lock. std::map keeps both lists name-sorted.
  std::vector<Series*> series;
  std::vector<Counter*> counters;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (auto& [_, s] : r.series) series.push_back(s.get());
    for (auto& [_, c] : r.counters) counters.push_back(c.get());
  }

  MetricsSnapshot snap;
  snap.generated_us = now_us;
  snap.trace_dropped_events = trace_dropped_events();
  for (Series* s : series) {
    s->advance(now_us);
    SeriesSnapshot out;
    out.name = s->name();
    out.total = window_stats(s->total());
    for (std::size_t i = 0; i < kMetricWindowsS.size(); ++i) {
      out.windows[i] = window_stats(s->window(kMetricWindowsS[i]));
    }
    snap.series.push_back(std::move(out));
  }
  for (Counter* c : counters) {
    c->advance(now_us);
    CounterSnapshot out;
    out.name = c->name();
    out.total = c->total();
    for (std::size_t i = 0; i < kMetricWindowsS.size(); ++i) {
      out.windows[i] = c->window(kMetricWindowsS[i]);
    }
    snap.counters.push_back(std::move(out));
  }
  return snap;
}

std::uint64_t metrics_clock_us() {
  using clock_type = std::chrono::steady_clock;
  static const clock_type::time_point epoch = clock_type::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(clock_type::now() -
                                                            epoch)
          .count());
}

namespace {

std::string window_label(int seconds) {
  return std::to_string(seconds) + "s";
}

void write_window_stats(util::JsonWriter& w, const WindowStats& s) {
  w.begin_object();
  w.kv("count", s.count);
  w.kv("mean", s.mean);
  w.kv("min", s.min);
  w.kv("max", s.max);
  w.kv("p50", s.p50);
  w.kv("p95", s.p95);
  w.kv("p99", s.p99);
  w.kv("p999", s.p999);
  w.end_object();
}

}  // namespace

void metrics_to_json(const MetricsSnapshot& snap, util::JsonWriter& w) {
  w.begin_object();
  w.kv("bench", "odq_telemetry");
  w.kv("schema_version", kMetricsSchemaVersion);
  w.kv("generated_us", snap.generated_us);
  w.kv("flush_seq", snap.flush_seq);
  w.kv("trace_dropped_events", snap.trace_dropped_events);
  w.key("windows_s");
  w.begin_array();
  for (int s : kMetricWindowsS) w.value(s);
  w.end_array();
  w.key("series");
  w.begin_object();
  for (const SeriesSnapshot& s : snap.series) {
    w.key(s.name);
    w.begin_object();
    w.key("total");
    write_window_stats(w, s.total);
    for (std::size_t i = 0; i < kMetricWindowsS.size(); ++i) {
      w.key(window_label(kMetricWindowsS[i]));
      write_window_stats(w, s.windows[i]);
    }
    w.end_object();
  }
  w.end_object();
  w.key("counters");
  w.begin_object();
  for (const CounterSnapshot& c : snap.counters) {
    w.key(c.name);
    w.begin_object();
    w.kv("total", c.total);
    for (std::size_t i = 0; i < kMetricWindowsS.size(); ++i) {
      w.kv(window_label(kMetricWindowsS[i]), c.windows[i]);
    }
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

namespace {

// "serve.latency_us" -> "odq_serve_latency_us": Prometheus metric names
// allow [a-zA-Z0-9_:]; everything else becomes '_'.
std::string prom_name(const std::string& name) {
  std::string out = "odq_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string metrics_to_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(4096);
  for (const SeriesSnapshot& s : snap.series) {
    const std::string m = prom_name(s.name);
    out += "# TYPE " + m + " summary\n";
    struct QLine {
      const char* q;
      std::uint64_t WindowStats::* field;
    };
    static constexpr QLine kQ[] = {
        {"0.5", &WindowStats::p50},
        {"0.95", &WindowStats::p95},
        {"0.99", &WindowStats::p99},
        {"0.999", &WindowStats::p999},
    };
    auto emit = [&](const std::string& window, const WindowStats& ws) {
      for (const QLine& q : kQ) {
        out += m + "{window=\"" + window + "\",quantile=\"" + q.q + "\"} " +
               std::to_string(ws.*(q.field)) + '\n';
      }
      out += m + "_count{window=\"" + window + "\"} " +
             std::to_string(ws.count) + '\n';
      out += m + "_sum{window=\"" + window + "\"} " +
             std::to_string(static_cast<std::uint64_t>(
                 ws.mean * double(ws.count) + 0.5)) +
             '\n';
    };
    emit("total", s.total);
    for (std::size_t i = 0; i < kMetricWindowsS.size(); ++i) {
      emit(window_label(kMetricWindowsS[i]), s.windows[i]);
    }
  }
  for (const CounterSnapshot& c : snap.counters) {
    const std::string m = prom_name(c.name);
    out += "# TYPE " + m + "_total counter\n";
    out += m + "_total " + std::to_string(c.total) + '\n';
    for (std::size_t i = 0; i < kMetricWindowsS.size(); ++i) {
      out += m + "{window=\"" + window_label(kMetricWindowsS[i]) + "\"} " +
             std::to_string(c.windows[i]) + '\n';
    }
  }
  out += "# TYPE odq_trace_dropped_events_total counter\n";
  out += "odq_trace_dropped_events_total " +
         std::to_string(snap.trace_dropped_events) + '\n';
  return out;
}

// -- Exporter -------------------------------------------------------------

MetricsExporter::MetricsExporter(MetricsExporterConfig cfg)
    : cfg_(std::move(cfg)) {
  if (!cfg_.now_us) cfg_.now_us = metrics_clock_us;
}

MetricsExporter::~MetricsExporter() { stop(); }

MetricsSnapshot MetricsExporter::flush_once() {
  MetricsSnapshot snap = metrics_snapshot(cfg_.now_us());
  snap.flush_seq = flush_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!cfg_.json_path.empty()) {
    util::JsonWriter w;
    metrics_to_json(snap, w);
    util::write_file_atomic(cfg_.json_path, w.take()).throw_if_error();
  }
  if (!cfg_.prom_path.empty()) {
    util::write_file_atomic(cfg_.prom_path, metrics_to_prometheus(snap))
        .throw_if_error();
  }
  return snap;
}

void MetricsExporter::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { run(); });
}

void MetricsExporter::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    started_ = false;
  }
  // Final drain: everything recorded before stop() was called is advanced
  // into the ring and on disk after this flush.
  try {
    flush_once();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "odq metrics flush: %s\n", e.what());
  }
}

void MetricsExporter::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    lock.unlock();
    try {
      flush_once();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "odq metrics flush: %s\n", e.what());
    }
    lock.lock();
    cv_.wait_for(lock, std::chrono::milliseconds(cfg_.flush_interval_ms),
                 [this] { return stopping_; });
  }
}

}  // namespace odq::obs
