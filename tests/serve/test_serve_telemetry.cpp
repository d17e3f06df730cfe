// Serving telemetry under load: the background exporter flushing while
// workers record (the TSan target — run with -fsanitize=thread in CI), the
// valid-or-absent snapshot contract for concurrent readers, and per-request
// trace-ID propagation from the engine down into the conv phase spans for
// over-SLO exemplars.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/proptest.hpp"
#include "common/temp_path.hpp"
#include "core/odq.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/model.hpp"
#include "nn/pooling.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "serve/session.hpp"
#include "util/json_read.hpp"
#include "util/status.hpp"

namespace odq::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;

// Keep the conv work on the engine worker thread (pool size 1, sized
// before first use): the thread-local TraceRequestScope then tags the
// odq.* phase spans the session emits, which the linkage test pins.
// ODQ results are bit-exact at any pool size, so this loses no coverage.
const int kForcePoolSize = [] {
  ::setenv("ODQ_THREADS", "1", 1);
  return 1;
}();

class ServeTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::metrics_reset();
  }
  void TearDown() override {
    obs::metrics_reset();
    obs::set_metrics_enabled(false);
    obs::trace_clear();
    obs::set_trace_enabled(false);
  }
};

// Deterministic compute-light session so the load test exercises the
// telemetry plumbing, not the conv stack.
class DoubleSession : public InferenceSession {
 public:
  Tensor run(const Tensor& input) override {
    Tensor out(input.shape());
    for (std::int64_t i = 0; i < input.numel(); ++i) out[i] = input[i] * 2;
    return out;
  }
  std::string scheme() const override { return "double"; }
};

// The TSan satellite: a 1ms background flusher advancing every registered
// series while 4 workers record latencies/batch sizes/queue depths, and a
// concurrent reader tailing the snapshot file. Any lock-ordering or shard
// race in the histogram/metrics registry shows up here under -fsanitize=thread; the
// reader pins the valid-or-absent contract (atomic rename means a reader
// never observes a torn document).
TEST_F(ServeTelemetryTest, ExporterFlushesConcurrentlyWithServingLoad) {
  const std::string snap_path =
      testutil::temp_path("odq_serve_telemetry_tsan.json");
  std::remove(snap_path.c_str());

  obs::MetricsExporterConfig ecfg;
  ecfg.json_path = snap_path;
  ecfg.flush_interval_ms = 1;
  obs::MetricsExporter exporter(ecfg);
  exporter.start();

  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const util::StatusOr<util::JsonValue> doc =
          util::json_try_parse_file(snap_path);
      if (doc.ok()) {
        reads.fetch_add(1, std::memory_order_relaxed);
        EXPECT_EQ(doc->at("bench").str, "odq_telemetry");
      } else {
        // Before the first flush the file may not exist; it must never be
        // readable-but-torn.
        EXPECT_EQ(doc.status().code(), util::StatusCode::kNotFound)
            << doc.status().to_string();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int kRequests = 300;
  EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.max_batch = 4;
  cfg.flush_timeout_us = 200;
  ServeEngine engine(cfg, [](int) { return std::make_unique<DoubleSession>(); });
  std::vector<std::future<InferResponse>> futs;
  futs.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    Tensor t(Shape{1, 1, 1, 1});
    t[0] = static_cast<float>(i);
    auto f = engine.submit(std::move(t));
    ASSERT_TRUE(f.ok());
    futs.push_back(std::move(*f));
  }
  for (int i = 0; i < kRequests; ++i) {
    const InferResponse res = futs[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(res.status.ok());
    EXPECT_EQ(res.output[0], 2.0f * static_cast<float>(i));
  }
  engine.shutdown();

  done.store(true);
  reader.join();
  exporter.stop();  // drain flush: the final snapshot sees every sample

  const util::StatusOr<util::JsonValue> doc =
      util::json_try_parse_file(snap_path);
  ASSERT_TRUE(doc.ok()) << doc.status().to_string();
  EXPECT_GE(doc->at("counters").at("serve.requests").at("total").num,
            static_cast<double>(kRequests));
  EXPECT_GE(
      doc->at("series").at("serve.latency_us").at("total").at("count").num,
      static_cast<double>(kRequests));
  ASSERT_TRUE(doc->at("series").has("serve.latency_us.double"));
  EXPECT_GE(exporter.flush_count(), 1u);
  std::remove(snap_path.c_str());
}

// Each engine event is written once to the registry and once to
// EngineStats, so with the switch on the two agree exactly.
TEST_F(ServeTelemetryTest, MetricsCountEachRequestExactlyOnce) {
  constexpr int kRequests = 64;
  EngineConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 4;
  cfg.flush_timeout_us = 200;
  ServeEngine engine(cfg, [](int) { return std::make_unique<DoubleSession>(); });
  std::vector<std::future<InferResponse>> futs;
  for (int i = 0; i < kRequests; ++i) {
    Tensor t(Shape{1, 1, 1, 1});
    t[0] = static_cast<float>(i);
    auto f = engine.submit(std::move(t));
    ASSERT_TRUE(f.ok());
    futs.push_back(std::move(*f));
  }
  for (auto& f : futs) ASSERT_TRUE(f.get().status.ok());
  engine.shutdown();

  const EngineStats stats = engine.stats();
  EXPECT_EQ(obs::counter("serve.requests").total(), kRequests);
  EXPECT_EQ(obs::series("serve.latency_us").total().count(),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(obs::counter("serve.batches").total(),
            static_cast<std::int64_t>(stats.batches));
  EXPECT_EQ(obs::series("serve.batch_size").total().sum(),
            static_cast<std::uint64_t>(kRequests));
  // One +1 and one -1 level sample per request.
  EXPECT_EQ(obs::series("serve.in_flight").total().count(),
            static_cast<std::uint64_t>(2 * kRequests));
  EXPECT_EQ(obs::counter("serve.errors").total(), 0);
}

// Total of counter `name` in a fresh snapshot; -1 when it is not registered.
std::int64_t snapshot_total(const std::string& name) {
  for (const obs::CounterSnapshot& c : obs::metrics_snapshot(0).counters) {
    if (c.name == name) return c.total;
  }
  return -1;
}

// A rejected submit's tenant is free-form, so with the switch off its
// serve.rejected.<tenant> handle must not even be looked up: no registry
// entry appears. With the switch on the rejection is attributed.
TEST_F(ServeTelemetryTest, SwitchOffRejectionRegistersNoTenantMetric) {
  const std::string name = "serve.rejected.tenant-never-seen";
  ServeEngine engine(EngineConfig{},
                     [](int) { return std::make_unique<DoubleSession>(); });
  engine.shutdown();  // every submit is now refused
  SubmitOptions opts;
  opts.tenant = "tenant-never-seen";

  obs::set_metrics_enabled(false);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(engine.submit(Tensor(Shape{1, 1, 1, 1}), opts).ok());
  }
  EXPECT_EQ(engine.stats().rejected, 3u);
  EXPECT_EQ(snapshot_total(name), -1);

  obs::set_metrics_enabled(true);
  EXPECT_FALSE(engine.submit(Tensor(Shape{1, 1, 1, 1}), opts).ok());
  EXPECT_EQ(snapshot_total(name), 1);
}

// The acceptance-criteria trace check: with an aggressive SLO every request
// is an exemplar candidate, and for at least one request the engine-level
// spans (serve.exec / serve.request / serve.queue_wait) and the conv phase
// spans underneath the session run (odq.pack / odq.gemm / ...) must carry
// the same req_id — the whole path of one request is linkable in the trace.
TEST_F(ServeTelemetryTest, OverSloRequestTraceLinksPhasesByReqId) {
  obs::set_trace_enabled(true);
  obs::trace_clear();

  auto make_model_session = [] {
    nn::Model m("serve-telemetry-test");
    m.add<nn::Conv2d>(2, 4, 3, 1, 1);
    m.add<nn::ReLU>();
    m.add<nn::GlobalAvgPool>();
    m.add<nn::Flatten>();
    m.add<nn::Linear>(4, 3);
    nn::kaiming_init(m, 23);
    core::OdqConfig ocfg;
    ocfg.threshold = 0.15f;
    return std::make_unique<ModelSession>(
        std::move(m), make_conv_executor("odq", ocfg), "odq");
  };

  EngineConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 4;
  cfg.flush_timeout_us = 1000;
  cfg.slo_us = 1;  // everything real is over a 1 us SLO
  ServeEngine engine(cfg, [&](int) { return make_model_session(); });

  constexpr int kRequests = 8;
  std::vector<std::future<InferResponse>> futs;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    util::Rng rng(testprop::case_seed(i));
    auto f = engine.submit(testprop::random_activations(rng, Shape{1, 2, 6, 6}));
    ASSERT_TRUE(f.ok());
    futs.push_back(std::move(*f));
  }
  for (auto& f : futs) ASSERT_TRUE(f.get().status.ok());
  engine.shutdown();
  EXPECT_EQ(engine.stats().slo_violations, static_cast<std::uint64_t>(kRequests));

  // Group span names by the req_id argument (either arg slot).
  std::map<std::int64_t, std::set<std::string>> by_req;
  for (const obs::TraceEvent& e : obs::trace_events()) {
    std::int64_t req_id = -1;
    if (e.arg_name != nullptr && std::string(e.arg_name) == "req_id") {
      req_id = e.arg_value;
    } else if (e.arg2_name != nullptr &&
               std::string(e.arg2_name) == "req_id") {
      req_id = e.arg2_value;
    }
    if (req_id >= 0) by_req[req_id].insert(e.name);
  }

  bool linked = false;
  for (const auto& [req_id, names] : by_req) {
    const bool engine_side = names.count("serve.exec") > 0 &&
                             names.count("serve.request") > 0 &&
                             names.count("serve.queue_wait") > 0;
    bool conv_side = false;
    for (const std::string& n : names) {
      if (n.rfind("odq.", 0) == 0) conv_side = true;
    }
    if (engine_side && conv_side) linked = true;
  }
  EXPECT_TRUE(linked)
      << "no request had engine spans and odq.* phase spans sharing a req_id "
      << "(requests with tagged spans: " << by_req.size() << ")";
}

}  // namespace
}  // namespace odq::serve
