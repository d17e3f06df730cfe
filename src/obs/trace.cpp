#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string_view>

#include "util/atomic_file.hpp"
#include "util/json.hpp"

namespace odq::obs {

namespace {

std::atomic<int> g_trace_enabled{-1};  // -1: read ODQ_TRACE on first use
std::atomic<std::uint64_t> g_dropped_events{0};

// Per-thread span-buffer capacity; saturation increments the dropped-events
// counter instead of growing without bound (or silently losing data).
std::size_t trace_max_events() {
  static const std::size_t cap = [] {
    const char* env = std::getenv("ODQ_TRACE_MAX_EVENTS");
    if (env != nullptr && env[0] != '\0') {
      const long long v = std::atoll(env);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    return static_cast<std::size_t>(1) << 20;  // 1M events per thread
  }();
  return cap;
}

// At-exit flush destination (guarded by its own mutex: tools may set it
// while workers record).
struct FlushState {
  std::mutex mutex;
  std::string path;
  bool atexit_registered = false;
};

FlushState& flush_state() {
  static FlushState* s = new FlushState;  // leaked: used during exit
  return *s;
}

void flush_trace_at_exit() {
  std::string path;
  {
    FlushState& s = flush_state();
    std::lock_guard<std::mutex> lock(s.mutex);
    path = s.path;
  }
  if (path.empty()) return;
  try {
    write_chrome_trace(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "odq trace flush: %s\n", e.what());
  }
}

// True when an ODQ_TRACE value names an output file rather than acting as
// a pure on/off switch.
bool env_value_is_path(const std::string& v) {
  return v.find('/') != std::string::npos ||
         (v.size() > 5 && v.compare(v.size() - 5, 5, ".json") == 0);
}

using clock_type = std::chrono::steady_clock;

clock_type::time_point trace_epoch() {
  static const clock_type::time_point epoch = clock_type::now();
  return epoch;
}

struct EventBuffer {
  std::mutex mutex;
  std::uint32_t tid = 0;
  std::vector<TraceEvent> events;
};

struct Collector {
  std::mutex mutex;
  std::vector<std::unique_ptr<EventBuffer>> buffers;
  std::uint32_t next_tid = 0;
};

// Leaked on purpose: worker threads may record during static destruction.
Collector& collector() {
  static Collector* c = new Collector;
  return *c;
}

EventBuffer& thread_buffer() {
  thread_local EventBuffer* buf = [] {
    Collector& c = collector();
    std::lock_guard<std::mutex> lock(c.mutex);
    c.buffers.push_back(std::make_unique<EventBuffer>());
    c.buffers.back()->tid = c.next_tid++;
    return c.buffers.back().get();
  }();
  return *buf;
}

// Active request id for this thread; -1 outside any TraceRequestScope.
thread_local std::int64_t t_req_id = -1;

// Attach "req_id" to the event's first free argument slot when a request
// scope is active. An explicit req_id argument wins (no duplicate key).
void attach_request_id(TraceEvent& ev) {
  if (t_req_id < 0) return;
  constexpr const char* kReqIdKey = "req_id";
  auto is_req_id = [](const char* n) {
    return n != nullptr && std::string_view(n) == "req_id";
  };
  if (is_req_id(ev.arg_name) || is_req_id(ev.arg2_name)) return;
  if (ev.arg_name == nullptr) {
    ev.arg_name = kReqIdKey;
    ev.arg_value = t_req_id;
  } else if (ev.arg2_name == nullptr) {
    ev.arg2_name = kReqIdKey;
    ev.arg2_value = t_req_id;
  }
}

}  // namespace

std::int64_t trace_request_id() { return t_req_id; }

TraceRequestScope::TraceRequestScope(std::int64_t req_id) : prev_(t_req_id) {
  t_req_id = req_id;
}

TraceRequestScope::~TraceRequestScope() { t_req_id = prev_; }

bool trace_enabled() {
  int v = g_trace_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* env = std::getenv("ODQ_TRACE");
    const std::string val = env != nullptr ? env : "";
    v = (!val.empty() && val != "0") ? 1 : 0;
    if (v != 0 && env_value_is_path(val)) trace_set_flush_path(val);
    g_trace_enabled.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

namespace {

// Probe ODQ_TRACE at static init so a file-valued setting registers its
// at-exit flush even when the process throws before the first span —
// the run then leaves an empty-but-valid trace instead of nothing.
const bool g_trace_env_probe = trace_enabled();

}  // namespace

void set_trace_enabled(bool on) {
  if (on) trace_epoch();  // anchor the timeline before the first span
  g_trace_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

void trace_set_flush_path(const std::string& path) {
  FlushState& s = flush_state();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.path = path;
  if (!path.empty() && !s.atexit_registered) {
    s.atexit_registered = true;
    std::atexit(flush_trace_at_exit);
  }
}

std::uint64_t trace_dropped_events() {
  return g_dropped_events.load(std::memory_order_relaxed);
}

double trace_now_us() {
  return std::chrono::duration<double, std::micro>(clock_type::now() -
                                                   trace_epoch())
      .count();
}

std::uint32_t trace_thread_id() { return thread_buffer().tid; }

void trace_record(std::string name, double ts_us, double dur_us,
                  const char* arg_name, std::int64_t arg_value,
                  const char* arg2_name, std::int64_t arg2_value) {
  if (!trace_enabled()) return;
  EventBuffer& buf = thread_buffer();
  TraceEvent ev;
  ev.name = std::move(name);
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.tid = buf.tid;
  ev.arg_name = arg_name;
  ev.arg_value = arg_value;
  ev.arg2_name = arg2_name;
  ev.arg2_value = arg2_value;
  attach_request_id(ev);
  std::lock_guard<std::mutex> lock(buf.mutex);
  if (buf.events.size() >= trace_max_events()) {
    g_dropped_events.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.events.push_back(std::move(ev));
}

void TraceSpan::begin(const char* name) {
  active_ = true;
  name_ = name;
  start_us_ = trace_now_us();
}

void TraceSpan::begin_owned(std::string name) {
  active_ = true;
  name_ = std::move(name);
  start_us_ = trace_now_us();
}

void TraceSpan::end() {
  // Record even if tracing was switched off mid-span: a started span must
  // not dangle, and flush-after-disable is the normal tool shutdown order.
  const double now = trace_now_us();
  EventBuffer& buf = thread_buffer();
  TraceEvent ev;
  ev.name = std::move(name_);
  ev.ts_us = start_us_;
  ev.dur_us = now - start_us_;
  ev.tid = buf.tid;
  ev.arg_name = arg_name_;
  ev.arg_value = arg_value_;
  ev.arg2_name = arg2_name_;
  ev.arg2_value = arg2_value_;
  attach_request_id(ev);
  std::lock_guard<std::mutex> lock(buf.mutex);
  if (buf.events.size() >= trace_max_events()) {
    g_dropped_events.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.events.push_back(std::move(ev));
}

std::vector<TraceEvent> trace_events() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mutex);
  std::vector<TraceEvent> out;
  for (const auto& buf : c.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mutex);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  return out;
}

void trace_clear() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mutex);
  for (const auto& buf : c.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mutex);
    buf->events.clear();
  }
  g_dropped_events.store(0, std::memory_order_relaxed);
}

std::string trace_to_json() {
  util::JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  // Extra top-level key; trace viewers ignore unknown members.
  w.kv("droppedEvents", static_cast<std::uint64_t>(trace_dropped_events()));
  w.key("traceEvents");
  w.begin_array();
  for (const TraceEvent& ev : trace_events()) {
    w.begin_object();
    w.kv("name", ev.name);
    w.kv("ph", "X");
    w.kv("ts", ev.ts_us);
    w.kv("dur", ev.dur_us);
    w.kv("pid", std::int64_t{1});
    w.kv("tid", static_cast<std::int64_t>(ev.tid));
    if (ev.arg_name != nullptr || ev.arg2_name != nullptr) {
      w.key("args");
      w.begin_object();
      if (ev.arg_name != nullptr) w.kv(ev.arg_name, ev.arg_value);
      if (ev.arg2_name != nullptr) w.kv(ev.arg2_name, ev.arg2_value);
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

void write_chrome_trace(const std::string& path) {
  util::write_file_atomic(path, trace_to_json()).throw_if_error();
}

}  // namespace odq::obs
