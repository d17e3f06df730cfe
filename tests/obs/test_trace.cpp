// Trace profiler: JSON well-formedness, span nesting, multi-thread capture.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "json_checker.hpp"
#include "util/thread_pool.hpp"

namespace odq {
namespace {

// Size the global pool to 4 workers before anything touches it: the pool is
// constructed on first use, and this initializer runs before main().
const int kForcePoolSize = [] {
  ::setenv("ODQ_THREADS", "4", 1);
  return 4;
}();

// Cap per-thread span buffers (read once on first record) so the
// saturation test below can fill one without recording a million spans.
// Generous enough that no other test in this binary comes near it.
const int kForceTraceCap = [] {
  ::setenv("ODQ_TRACE_MAX_EVENTS", "4096", 1);
  return 4096;
}();

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_trace_enabled(true);
    obs::trace_clear();
  }
  void TearDown() override {
    obs::trace_clear();
    obs::set_trace_enabled(false);
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  obs::set_trace_enabled(false);
  { ODQ_TRACE_SPAN("should.not.appear"); }
  obs::trace_record("also.not", 0.0, 1.0);
  EXPECT_TRUE(obs::trace_events().empty());
}

TEST_F(TraceTest, SpanRecordsNameDurationAndArg) {
  {
    obs::TraceSpan span("unit.test");
    span.arg("items", 42);
  }
  const std::vector<obs::TraceEvent> events = obs::trace_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit.test");
  EXPECT_GE(events[0].dur_us, 0.0);
  EXPECT_GE(events[0].ts_us, 0.0);
  ASSERT_NE(events[0].arg_name, nullptr);
  EXPECT_STREQ(events[0].arg_name, "items");
  EXPECT_EQ(events[0].arg_value, 42);
}

TEST_F(TraceTest, JsonIsWellFormedChromeFormat) {
  {
    ODQ_TRACE_SPAN("outer");
    ODQ_TRACE_SPAN("inner \"quoted\"\n");
  }
  const testjson::Value doc = testjson::parse(obs::trace_to_json());
  ASSERT_EQ(doc.kind, testjson::Value::Kind::kObject);
  ASSERT_TRUE(doc.has("traceEvents"));
  const testjson::Value& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, testjson::Value::Kind::kArray);
  ASSERT_EQ(events.arr.size(), 2u);
  for (const testjson::Value& e : events.arr) {
    EXPECT_EQ(e.at("ph").str, "X");
    EXPECT_EQ(e.at("pid").num, 1.0);
    EXPECT_EQ(e.at("name").kind, testjson::Value::Kind::kString);
    EXPECT_EQ(e.at("ts").kind, testjson::Value::Kind::kNumber);
    EXPECT_EQ(e.at("dur").kind, testjson::Value::Kind::kNumber);
    EXPECT_EQ(e.at("tid").kind, testjson::Value::Kind::kNumber);
  }
  // The escaped name round-trips.
  const bool found = std::any_of(
      events.arr.begin(), events.arr.end(), [](const testjson::Value& e) {
        return e.at("name").str == "inner \"quoted\"\n";
      });
  EXPECT_TRUE(found);
}

TEST_F(TraceTest, ParallelForCapturesWorkerSpansThatNest) {
  ASSERT_EQ(util::ThreadPool::global().size(), 4u);
  std::atomic<std::int64_t> sum{0};
  {
    ODQ_TRACE_SPAN("test.parallel_region");
    util::parallel_for(
        64,
        [&](std::int64_t b, std::int64_t e) {
          ODQ_TRACE_SPAN("test.chunk");
          for (std::int64_t i = b; i < e; ++i) {
            sum.fetch_add(i, std::memory_order_relaxed);
          }
          // Yield so several workers get a share even on a 1-core host.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        },
        /*grain=*/1);
  }
  EXPECT_EQ(sum.load(), 64 * 63 / 2);

  const std::vector<obs::TraceEvent> events = obs::trace_events();
  // At least: the region span, pool.parallel_for and the per-chunk spans
  // from more than one thread. The caller runs chunks too and one pool.task
  // may run several, so pool.task counts are not pinned.
  std::map<std::string, int> count;
  std::map<std::uint32_t, int> by_tid;
  for (const obs::TraceEvent& e : events) {
    ++count[e.name];
    if (e.name == "test.chunk") ++by_tid[e.tid];
  }
  EXPECT_EQ(count["test.parallel_region"], 1);
  EXPECT_EQ(count["pool.parallel_for"], 1);
  EXPECT_GE(count["test.chunk"], 4);
  EXPECT_GE(by_tid.size(), 2u) << "chunks should run on multiple threads";

  // Spans on each thread obey stack discipline: sorted by start time, every
  // span either nests inside the previous open span or starts after it
  // ends. "X" events from scoped RAII spans can never partially overlap.
  std::map<std::uint32_t, std::vector<const obs::TraceEvent*>> per_tid;
  for (const obs::TraceEvent& e : events) per_tid[e.tid].push_back(&e);
  const double slack_us = 1.0;  // clock granularity
  for (auto& [tid, list] : per_tid) {
    std::sort(list.begin(), list.end(),
              [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
                return a->ts_us < b->ts_us;
              });
    std::vector<const obs::TraceEvent*> open;
    for (const obs::TraceEvent* e : list) {
      while (!open.empty() &&
             open.back()->ts_us + open.back()->dur_us <= e->ts_us + slack_us) {
        open.pop_back();
      }
      for (const obs::TraceEvent* outer : open) {
        EXPECT_LE(e->ts_us + e->dur_us,
                  outer->ts_us + outer->dur_us + slack_us)
            << e->name << " escapes enclosing span " << outer->name
            << " on tid " << tid;
      }
      open.push_back(e);
    }
  }

  // And the whole thing still serializes to valid JSON.
  const testjson::Value doc = testjson::parse(obs::trace_to_json());
  EXPECT_EQ(doc.at("traceEvents").arr.size(), events.size());
}

TEST_F(TraceTest, SpanCarriesTwoArgsIntoEventAndJson) {
  {
    obs::TraceSpan span("two.args");
    span.arg("batch_size", 4);
    span.arg("batch_id", 17);
    span.arg("batch_size", 5);  // re-using a key overwrites its slot
  }
  const std::vector<obs::TraceEvent> events = obs::trace_events();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_NE(events[0].arg_name, nullptr);
  EXPECT_STREQ(events[0].arg_name, "batch_size");
  EXPECT_EQ(events[0].arg_value, 5);
  ASSERT_NE(events[0].arg2_name, nullptr);
  EXPECT_STREQ(events[0].arg2_name, "batch_id");
  EXPECT_EQ(events[0].arg2_value, 17);

  // Both land in one "args" object in the Chrome JSON.
  const testjson::Value doc = testjson::parse(obs::trace_to_json());
  const testjson::Value& e = doc.at("traceEvents").arr[0];
  EXPECT_EQ(e.at("args").at("batch_size").num, 5.0);
  EXPECT_EQ(e.at("args").at("batch_id").num, 17.0);
}

TEST_F(TraceTest, RequestScopeTagsSpansAndNests) {
  EXPECT_EQ(obs::trace_request_id(), -1);
  {
    obs::TraceRequestScope outer(42);
    EXPECT_EQ(obs::trace_request_id(), 42);
    { obs::TraceSpan span("scoped.outer"); }
    {
      obs::TraceRequestScope inner(43);
      EXPECT_EQ(obs::trace_request_id(), 43);
      { obs::TraceSpan span("scoped.inner"); }
    }
    EXPECT_EQ(obs::trace_request_id(), 42);  // nesting restores
    obs::trace_record("scoped.record", 0.0, 1.0, "phase", 2);
  }
  EXPECT_EQ(obs::trace_request_id(), -1);
  { obs::TraceSpan span("scoped.after"); }

  std::map<std::string, const obs::TraceEvent*> by_name;
  const std::vector<obs::TraceEvent> events = obs::trace_events();
  for (const obs::TraceEvent& e : events) by_name[e.name] = &e;

  auto req_id_of = [](const obs::TraceEvent& e) -> std::int64_t {
    if (e.arg_name != nullptr && std::string(e.arg_name) == "req_id") {
      return e.arg_value;
    }
    if (e.arg2_name != nullptr && std::string(e.arg2_name) == "req_id") {
      return e.arg2_value;
    }
    return -1;
  };
  ASSERT_EQ(by_name.size(), 4u);
  EXPECT_EQ(req_id_of(*by_name["scoped.outer"]), 42);
  EXPECT_EQ(req_id_of(*by_name["scoped.inner"]), 43);
  // The auto-tag fills the free slot next to explicit arguments.
  EXPECT_EQ(req_id_of(*by_name["scoped.record"]), 42);
  EXPECT_STREQ(by_name["scoped.record"]->arg_name, "phase");
  // Outside any scope, no req_id is attached.
  EXPECT_EQ(req_id_of(*by_name["scoped.after"]), -1);
}

TEST_F(TraceTest, ExplicitReqIdWinsOverScopeAutoTag) {
  obs::TraceRequestScope scope(99);
  obs::trace_record("explicit.req", 0.0, 1.0, "req_id", 7);
  const std::vector<obs::TraceEvent> events = obs::trace_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].arg_name, "req_id");
  EXPECT_EQ(events[0].arg_value, 7);
  // No duplicate req_id in the second slot.
  EXPECT_EQ(events[0].arg2_name, nullptr);
}

TEST_F(TraceTest, ClearDropsEvents) {
  { ODQ_TRACE_SPAN("x"); }
  ASSERT_FALSE(obs::trace_events().empty());
  obs::trace_clear();
  EXPECT_TRUE(obs::trace_events().empty());
}

TEST_F(TraceTest, WriteChromeTraceThrowsOnBadPath) {
  { ODQ_TRACE_SPAN("x"); }
  EXPECT_THROW(obs::write_chrome_trace("/nonexistent-dir/x.trace.json"),
               std::runtime_error);
}

TEST_F(TraceTest, BufferSaturationCountsDroppedEvents) {
  ASSERT_EQ(obs::trace_dropped_events(), 0u);
  const int flood = kForceTraceCap + 904;
  for (int i = 0; i < flood; ++i) {
    obs::trace_record("test.flood", 0.0, 1.0);
  }
  // This thread's buffer holds exactly the cap; the rest were dropped and
  // counted instead of silently lost or growing without bound.
  EXPECT_EQ(obs::trace_events().size(), static_cast<std::size_t>(kForceTraceCap));
  EXPECT_EQ(obs::trace_dropped_events(), 904u);
  const testjson::Value doc = testjson::parse(obs::trace_to_json());
  EXPECT_EQ(doc.at("droppedEvents").num, 904.0);
  // trace_clear() frees the buffers and resets the counter.
  obs::trace_clear();
  EXPECT_EQ(obs::trace_dropped_events(), 0u);
}

}  // namespace
}  // namespace odq
