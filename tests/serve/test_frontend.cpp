// ServeFrontEnd: admission control (unknown tenant, per-tenant queue
// limits, overload shed), virtual-time weighted fair queueing, deadline
// shedding at dispatch, degraded dispatch for best-effort tenants, and the
// LoadShedController's hysteresis — all with a deterministic echo session
// so scheduling decisions are observable as execution order.
#include "serve/frontend.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/degrade.hpp"
#include "serve/engine.hpp"
#include "serve/session.hpp"
#include "util/status.hpp"

namespace odq::serve {
namespace {

using tensor::Shape;
using tensor::Tensor;
using util::StatusCode;

Tensor scalar_input(float v) {
  Tensor t(Shape{1, 1, 1, 1});
  t[0] = v;
  return t;
}

// Echo session: run = 2x, run_degraded = 3x, gateable, and it records the
// order inputs reached the worker — the probe the WFQ test reads.
struct EchoState {
  std::mutex m;
  std::condition_variable cv;
  bool gated = false;
  std::vector<float> run_order;

  void release() {
    {
      std::lock_guard<std::mutex> lock(m);
      gated = false;
    }
    cv.notify_all();
  }
};

class EchoSession : public InferenceSession {
 public:
  explicit EchoSession(EchoState* state) : state_(state) {}

  tensor::Tensor run(const tensor::Tensor& input) override {
    wait_and_record(input);
    Tensor out = input;
    for (std::int64_t i = 0; i < out.numel(); ++i) out[i] *= 2.0f;
    return out;
  }
  tensor::Tensor run_degraded(const tensor::Tensor& input) override {
    wait_and_record(input);
    Tensor out = input;
    for (std::int64_t i = 0; i < out.numel(); ++i) out[i] *= 3.0f;
    return out;
  }
  std::string scheme() const override { return "echo"; }
  std::string degraded_scheme() const override { return "echo-lite"; }

 private:
  void wait_and_record(const tensor::Tensor& input) {
    std::unique_lock<std::mutex> lock(state_->m);
    state_->cv.wait(lock, [&] { return !state_->gated; });
    state_->run_order.push_back(input[0]);
  }
  EchoState* state_;
};

// Single worker, single-request batches, queue capacity 1: with the
// session gated, one request occupies the worker, one the engine queue,
// and the third parks the dispatcher in the engine's blocking push — every
// later submission then waits in the tenant queues where WFQ can see it.
EngineConfig tiny_engine_config() {
  EngineConfig cfg;
  cfg.num_workers = 1;
  cfg.queue_capacity = 1;
  cfg.max_batch = 1;
  cfg.flush_timeout_us = 100;
  return cfg;
}

FrontEndConfig two_tenant_config() {
  FrontEndConfig cfg;
  TenantSpec gold;
  gold.name = "gold";
  gold.weight = 2.0;
  gold.queue_limit = 16;
  TenantSpec bronze;
  bronze.name = "bronze";
  bronze.weight = 1.0;
  bronze.queue_limit = 16;
  bronze.best_effort = true;
  cfg.tenants = {gold, bronze};
  return cfg;
}

// Park the dispatcher: worker busy (gated), engine queue full, dispatcher
// blocked pushing. Returns the plug futures (gold tenant).
std::vector<std::future<InferResponse>> plug_pipeline(
    ServeFrontEnd& fe, float base_value) {
  std::vector<std::future<InferResponse>> plugs;
  for (int i = 0; i < 3; ++i) {
    auto r = fe.submit(scalar_input(base_value + i), "gold");
    EXPECT_TRUE(r.ok()) << r.status().to_string();
    plugs.push_back(std::move(r.value()));
  }
  // All three must leave the tenant queues (worker + engine queue +
  // blocked dispatcher) before callers submit the requests under test.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fe.backlog() != 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ADD_FAILURE() << "dispatcher never absorbed the plug requests";
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return plugs;
}

TEST(ServeFrontEnd, RejectsUnknownTenant) {
  EchoState state;
  ServeEngine engine(tiny_engine_config(),
                     [&](int) { return std::make_unique<EchoSession>(&state); });
  ServeFrontEnd fe(engine, two_tenant_config());
  auto r = fe.submit(scalar_input(1.0f), "nobody");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  fe.shutdown();
  engine.shutdown();
}

TEST(ServeFrontEnd, InvalidTenantRostersAreRefusedAtConstruction) {
  EchoState state;
  ServeEngine engine(tiny_engine_config(),
                     [&](int) { return std::make_unique<EchoSession>(&state); });
  FrontEndConfig empty;
  EXPECT_THROW(ServeFrontEnd(engine, empty), std::invalid_argument);

  FrontEndConfig dup = two_tenant_config();
  dup.tenants.push_back(dup.tenants[0]);
  EXPECT_THROW(ServeFrontEnd(engine, dup), std::invalid_argument);

  FrontEndConfig bad_weight = two_tenant_config();
  bad_weight.tenants[0].weight = 0.0;
  EXPECT_THROW(ServeFrontEnd(engine, bad_weight), std::invalid_argument);
  engine.shutdown();
}

TEST(ServeFrontEnd, QueueLimitRejectionIsTypedAndCounted) {
  obs::set_metrics_enabled(true);
  obs::counter("serve.rejected.bronze").reset();

  EchoState state;
  state.gated = true;
  ServeEngine engine(tiny_engine_config(),
                     [&](int) { return std::make_unique<EchoSession>(&state); });
  FrontEndConfig cfg = two_tenant_config();
  cfg.tenants[1].queue_limit = 2;
  ServeFrontEnd fe(engine, cfg);
  auto plugs = plug_pipeline(fe, 100.0f);

  std::vector<std::future<InferResponse>> accepted;
  for (int i = 0; i < 2; ++i) {
    auto r = fe.submit(scalar_input(1.0f + i), "bronze");
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    accepted.push_back(std::move(r.value()));
  }
  auto refused = fe.submit(scalar_input(3.0f), "bronze");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fe.all_tenant_stats().at("bronze").rejected, 1u);
  EXPECT_EQ(fe.all_tenant_stats().at("bronze").accepted, 2u);
  EXPECT_EQ(obs::counter("serve.rejected.bronze").total(), 1);

  state.release();
  for (auto& f : plugs) EXPECT_TRUE(f.get().status.ok());
  for (auto& f : accepted) EXPECT_TRUE(f.get().status.ok());
  fe.shutdown();
  engine.shutdown();
  obs::set_metrics_enabled(false);
}

TEST(ServeFrontEnd, WeightedFairQueueingDrainsByWeight) {
  EchoState state;
  state.gated = true;
  ServeEngine engine(tiny_engine_config(),
                     [&](int) { return std::make_unique<EchoSession>(&state); });
  ServeFrontEnd fe(engine, two_tenant_config());
  auto plugs = plug_pipeline(fe, 100.0f);

  // Backlogged together: gold (weight 2) must drain twice as fast as
  // bronze (weight 1). Finish tags — gold: v+.5, v+1, v+1.5; bronze: v+1,
  // v+2, v+3; ties break by roster order (gold first). Expected dispatch:
  // g1 g2 b1 g3 b2 b3.
  std::vector<std::future<InferResponse>> futures;
  for (const float v : {1.0f, 2.0f, 3.0f}) {
    auto r = fe.submit(scalar_input(v), "gold");
    ASSERT_TRUE(r.ok());
    futures.push_back(std::move(r.value()));
  }
  for (const float v : {11.0f, 12.0f, 13.0f}) {
    auto r = fe.submit(scalar_input(v), "bronze");
    ASSERT_TRUE(r.ok());
    futures.push_back(std::move(r.value()));
  }
  state.release();
  for (auto& f : futures) {
    const InferResponse res = f.get();
    ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  }
  fe.shutdown();
  engine.shutdown();

  ASSERT_EQ(state.run_order.size(), 9u);  // 3 plugs + 6 test requests
  const std::vector<float> tail(state.run_order.begin() + 3,
                                state.run_order.end());
  EXPECT_EQ(tail, (std::vector<float>{1, 2, 11, 3, 12, 13}));
  EXPECT_EQ(fe.all_tenant_stats().at("gold").dispatched, 6u);
  EXPECT_EQ(fe.all_tenant_stats().at("bronze").dispatched, 3u);
}

TEST(ServeFrontEnd, ExpiredDeadlineIsShedAtDispatchWithoutRunning) {
  EchoState state;
  ServeEngine engine(tiny_engine_config(),
                     [&](int) { return std::make_unique<EchoSession>(&state); });
  ServeFrontEnd fe(engine, two_tenant_config());

  SubmitOptions opts;
  opts.deadline = std::chrono::steady_clock::now() -
                  std::chrono::milliseconds(5);  // already dead
  auto r = fe.submit(scalar_input(7.0f), "gold", opts);
  ASSERT_TRUE(r.ok()) << r.status().to_string();  // admission accepts it
  const InferResponse res = r.value().get();
  EXPECT_EQ(res.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(fe.all_tenant_stats().at("gold").deadline_shed, 1u);

  fe.shutdown();
  engine.shutdown();
  EXPECT_TRUE(state.run_order.empty());  // the model never ran
}

TEST(ServeFrontEnd, BestEffortTenantsDegradeUnderLoadGoldDoesNot) {
  EchoState state;
  state.gated = true;
  ServeEngine engine(tiny_engine_config(),
                     [&](int) { return std::make_unique<EchoSession>(&state); });
  FrontEndConfig cfg = two_tenant_config();
  cfg.degrade.degrade_high = 1;  // any backlog -> level 1
  cfg.degrade.shed_high = 0;     // never refuse outright here
  cfg.degrade.low_water = 0;
  cfg.degrade.down_hold = 1000;  // stay up for the whole test
  ServeFrontEnd fe(engine, cfg);
  auto plugs = plug_pipeline(fe, 100.0f);

  auto bronze = fe.submit(scalar_input(5.0f), "bronze");
  ASSERT_TRUE(bronze.ok());
  auto gold = fe.submit(scalar_input(6.0f), "gold");
  ASSERT_TRUE(gold.ok());
  EXPECT_GE(fe.degrade_level(), 1);

  state.release();
  const InferResponse bres = bronze.value().get();
  ASSERT_TRUE(bres.status.ok()) << bres.status.to_string();
  EXPECT_TRUE(bres.degraded);
  EXPECT_EQ(bres.scheme, "echo-lite");
  EXPECT_FLOAT_EQ(bres.output[0], 15.0f);  // 3x: the degraded path ran

  const InferResponse gres = gold.value().get();
  ASSERT_TRUE(gres.status.ok());
  EXPECT_FALSE(gres.degraded);  // guaranteed tenants keep the full scheme
  EXPECT_EQ(gres.scheme, "echo");
  EXPECT_FLOAT_EQ(gres.output[0], 12.0f);

  EXPECT_EQ(fe.all_tenant_stats().at("bronze").degraded, 1u);
  EXPECT_EQ(fe.all_tenant_stats().at("gold").degraded, 0u);
  for (auto& f : plugs) EXPECT_TRUE(f.get().status.ok());
  fe.shutdown();
  engine.shutdown();
}

TEST(ServeFrontEnd, Level2ShedsBestEffortAtAdmission) {
  EchoState state;
  state.gated = true;
  ServeEngine engine(tiny_engine_config(),
                     [&](int) { return std::make_unique<EchoSession>(&state); });
  FrontEndConfig cfg = two_tenant_config();
  cfg.degrade.degrade_high = 1;
  cfg.degrade.shed_high = 2;
  cfg.degrade.low_water = 0;
  cfg.degrade.down_hold = 1000;
  ServeFrontEnd fe(engine, cfg);
  auto plugs = plug_pipeline(fe, 100.0f);

  // Two queued gold requests push the backlog to shed_high = 2.
  std::vector<std::future<InferResponse>> queued;
  for (const float v : {1.0f, 2.0f}) {
    auto r = fe.submit(scalar_input(v), "gold");
    ASSERT_TRUE(r.ok());
    queued.push_back(std::move(r.value()));
  }
  EXPECT_EQ(fe.degrade_level(), 2);

  auto shed = fe.submit(scalar_input(9.0f), "bronze");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(fe.all_tenant_stats().at("bronze").shed, 1u);

  // Guaranteed traffic is still admitted at level 2.
  auto gold = fe.submit(scalar_input(3.0f), "gold");
  ASSERT_TRUE(gold.ok()) << gold.status().to_string();
  queued.push_back(std::move(gold.value()));

  state.release();
  for (auto& f : plugs) EXPECT_TRUE(f.get().status.ok());
  for (auto& f : queued) EXPECT_TRUE(f.get().status.ok());
  fe.shutdown();
  engine.shutdown();
}

TEST(ServeFrontEnd, ShutdownDrainsQueuedRequestsIntoTheEngine) {
  EchoState state;
  state.gated = true;
  ServeEngine engine(tiny_engine_config(),
                     [&](int) { return std::make_unique<EchoSession>(&state); });
  ServeFrontEnd fe(engine, two_tenant_config());
  auto plugs = plug_pipeline(fe, 100.0f);
  std::vector<std::future<InferResponse>> queued;
  for (int i = 0; i < 4; ++i) {
    auto r = fe.submit(scalar_input(1.0f + i), i % 2 ? "gold" : "bronze");
    ASSERT_TRUE(r.ok());
    queued.push_back(std::move(r.value()));
  }
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    state.release();
  });
  fe.shutdown();  // must fulfill every admitted promise before returning
  releaser.join();
  for (auto& f : plugs) EXPECT_TRUE(f.get().status.ok());
  for (auto& f : queued) {
    const InferResponse res = f.get();
    EXPECT_TRUE(res.status.ok()) << res.status.to_string();
  }
  // After shutdown, admission refuses cleanly.
  auto late = fe.submit(scalar_input(99.0f), "gold");
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  engine.shutdown();
}

// ---------------------------------------------------------------------------
// LoadShedController
// ---------------------------------------------------------------------------

TEST(LoadShedController, EscalatesImmediatelyStepsDownWithHysteresis) {
  DegradeConfig cfg;
  cfg.degrade_high = 10;
  cfg.shed_high = 20;
  cfg.low_water = 4;
  cfg.down_hold = 3;
  LoadShedController shed(cfg);

  EXPECT_EQ(shed.observe(5), 0);
  EXPECT_EQ(shed.observe(10), 1);  // at the threshold: escalate now
  EXPECT_EQ(shed.observe(25), 2);  // skips straight to shedding
  // Recovery: needs down_hold consecutive observations at/below low_water,
  // one level at a time.
  EXPECT_EQ(shed.observe(4), 2);
  EXPECT_EQ(shed.observe(4), 2);
  EXPECT_EQ(shed.observe(4), 1);  // third quiet observation: 2 -> 1
  EXPECT_EQ(shed.observe(4), 1);
  EXPECT_EQ(shed.observe(5), 1);  // above low_water: streak resets
  EXPECT_EQ(shed.observe(4), 1);
  EXPECT_EQ(shed.observe(4), 1);
  EXPECT_EQ(shed.observe(4), 0);
}

TEST(LoadShedController, ZeroThresholdsDisable) {
  DegradeConfig cfg;  // all zeros
  LoadShedController shed(cfg);
  EXPECT_EQ(shed.observe(1000000), 0);
}

TEST(LoadShedController, DeterministicAcrossReplays) {
  DegradeConfig cfg;
  cfg.degrade_high = 8;
  cfg.shed_high = 16;
  cfg.low_water = 2;
  cfg.down_hold = 2;
  // Same observation sequence, same level trace — the property the
  // fixed-seed overload bench leans on.
  const std::vector<std::size_t> load = {1, 9,  17, 30, 2, 2, 2,
                                         2, 10, 1,  2,  2, 2, 0};
  std::vector<int> first, second;
  {
    LoadShedController shed(cfg);
    for (const std::size_t p : load) first.push_back(shed.observe(p));
  }
  {
    LoadShedController shed(cfg);
    for (const std::size_t p : load) second.push_back(shed.observe(p));
  }
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.front(), 0);
  EXPECT_EQ(first.back(), 0);
}

}  // namespace
}  // namespace odq::serve
