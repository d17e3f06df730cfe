// ServeEngine: batcher coalescing determinism, deadline-flush timing,
// drain-and-shutdown, fault injection on the serve path, and end-to-end
// bit-identity of batched execution against the sequential single-request
// path with a real ODQ model session.
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/proptest.hpp"
#include "core/odq.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/model.hpp"
#include "nn/pooling.hpp"
#include "serve/session.hpp"
#include "util/fault.hpp"
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

// Deterministic fake session: output = input * 2. Optionally sleeps to
// simulate slow inference, and can be gated shut so a test controls exactly
// when the first batch finishes (for deterministic coalescing assertions).
struct EchoState {
  std::atomic<int> runs{0};
  std::chrono::milliseconds delay{0};

  std::mutex m;
  std::condition_variable cv;
  bool gated = false;  // when true, run() blocks until release()

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
  explicit EchoSession(std::shared_ptr<EchoState> state)
      : state_(std::move(state)) {}

  Tensor run(const Tensor& input) override {
    state_->runs.fetch_add(1);
    {
      std::unique_lock<std::mutex> lock(state_->m);
      state_->cv.wait(lock, [&] { return !state_->gated; });
    }
    if (state_->delay.count() > 0) std::this_thread::sleep_for(state_->delay);
    Tensor out(input.shape());
    for (std::int64_t i = 0; i < input.numel(); ++i) out[i] = input[i] * 2;
    return out;
  }

  std::string scheme() const override { return "echo"; }

 private:
  std::shared_ptr<EchoState> state_;
};

ServeEngine::SessionFactory echo_factory(std::shared_ptr<EchoState> state) {
  return [state](int) { return std::make_unique<EchoSession>(state); };
}

void wait_for_runs(const EchoState& state, int n) {
  while (state.runs.load() < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

class ServeEngineTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::fault_configure("");  // disarm anything a test armed
  }
};

TEST_F(ServeEngineTest, EveryRequestCompletesWithItsOwnAnswer) {
  auto state = std::make_shared<EchoState>();
  EngineConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 4;
  cfg.flush_timeout_us = 0;
  ServeEngine engine(cfg, echo_factory(state));

  std::vector<std::future<InferResponse>> futs;
  for (int i = 0; i < 50; ++i) {
    auto f = engine.submit(scalar_input(static_cast<float>(i)));
    ASSERT_TRUE(f.ok());
    futs.push_back(std::move(*f));
  }
  for (int i = 0; i < 50; ++i) {
    InferResponse res = futs[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(res.status.ok()) << res.status.to_string();
    ASSERT_EQ(res.output.numel(), 1);
    EXPECT_EQ(res.output[0], 2.0f * static_cast<float>(i));
  }
  engine.shutdown();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 50u);
  EXPECT_EQ(stats.completed, 50u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST_F(ServeEngineTest, CoalescingIsDeterministicUnderAGatedWorker) {
  // Gate the single worker shut, submit 1 + 3 requests, release: batch one
  // must carry exactly the first request, batch two exactly the other
  // three (their deadline expired while the worker was busy, max_batch 3).
  auto state = std::make_shared<EchoState>();
  state->gated = true;
  EngineConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 3;
  cfg.flush_timeout_us = 1000;
  ServeEngine engine(cfg, echo_factory(state));

  std::vector<std::future<InferResponse>> futs;
  auto f0 = engine.submit(scalar_input(0));
  ASSERT_TRUE(f0.ok());
  futs.push_back(std::move(*f0));
  wait_for_runs(*state, 1);  // worker is now blocked inside batch one
  for (int i = 1; i < 4; ++i) {
    auto f = engine.submit(scalar_input(static_cast<float>(i)));
    ASSERT_TRUE(f.ok());
    futs.push_back(std::move(*f));
  }
  state->release();

  EXPECT_EQ(futs[0].get().batch_size, 1u);
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(futs[static_cast<std::size_t>(i)].get().batch_size, 3u);
  }
  engine.shutdown();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.multi_request_batches, 1u);
  EXPECT_EQ(stats.max_batch_observed, 3u);
  ASSERT_EQ(stats.batch_size_hist.size(), 4u);  // max_batch + 1
  EXPECT_EQ(stats.batch_size_hist[1], 1u);
  EXPECT_EQ(stats.batch_size_hist[3], 1u);
}

TEST_F(ServeEngineTest, DeadlineFlushHoldsTheBatchOpen) {
  // max_batch 8 but only 3 requests: the batch must flush on the deadline,
  // carrying all three — and not before the oldest waited ~the timeout.
  auto state = std::make_shared<EchoState>();
  EngineConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 8;
  cfg.flush_timeout_us = 200000;  // 200ms
  ServeEngine engine(cfg, echo_factory(state));

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<InferResponse>> futs;
  for (int i = 0; i < 3; ++i) {
    auto f = engine.submit(scalar_input(static_cast<float>(i)));
    ASSERT_TRUE(f.ok());
    futs.push_back(std::move(*f));
  }
  for (auto& fut : futs) {
    InferResponse res = fut.get();
    ASSERT_TRUE(res.status.ok());
    EXPECT_EQ(res.batch_size, 3u);
  }
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_GE(waited, 100);  // lower bound only; upper is scheduler noise
  engine.shutdown();
  EXPECT_EQ(engine.stats().batches, 1u);
}

TEST_F(ServeEngineTest, ShutdownDrainsEveryInFlightRequest) {
  auto state = std::make_shared<EchoState>();
  state->delay = std::chrono::milliseconds(2);
  EngineConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 4;
  cfg.flush_timeout_us = 0;
  ServeEngine engine(cfg, echo_factory(state));

  std::vector<std::future<InferResponse>> futs;
  for (int i = 0; i < 20; ++i) {
    auto f = engine.submit(scalar_input(static_cast<float>(i)));
    ASSERT_TRUE(f.ok());
    futs.push_back(std::move(*f));
  }
  engine.shutdown();  // must drain, not drop

  for (auto& fut : futs) {
    InferResponse res = fut.get();
    EXPECT_TRUE(res.status.ok()) << res.status.to_string();
  }
  EXPECT_EQ(engine.stats().completed, 20u);

  // After shutdown, new submissions are refused with kUnavailable.
  auto rejected = engine.submit(scalar_input(0));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(engine.stats().rejected, 1u);

  engine.shutdown();  // idempotent
}

TEST_F(ServeEngineTest, TrySubmitRefusesWhenQueueIsFull) {
  auto state = std::make_shared<EchoState>();
  state->gated = true;
  EngineConfig cfg;
  cfg.num_workers = 1;
  cfg.queue_capacity = 1;
  cfg.max_batch = 1;
  cfg.flush_timeout_us = 0;
  ServeEngine engine(cfg, echo_factory(state));

  auto a = engine.submit(scalar_input(1));  // worker picks this up
  ASSERT_TRUE(a.ok());
  wait_for_runs(*state, 1);
  auto b = engine.submit(scalar_input(2));  // fills the 1-slot queue
  ASSERT_TRUE(b.ok());
  auto c = engine.try_submit(scalar_input(3));  // must refuse, not block
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kUnavailable);

  state->release();
  EXPECT_TRUE(a->get().status.ok());
  EXPECT_TRUE(b->get().status.ok());
  engine.shutdown();
  EXPECT_EQ(engine.stats().rejected, 1u);
}

TEST_F(ServeEngineTest, SubmitFaultReturnsStatusWithoutWedgingWorkers) {
  util::fault_configure("serve.submit:1");
  auto state = std::make_shared<EchoState>();
  EngineConfig cfg;
  cfg.num_workers = 1;
  ServeEngine engine(cfg, echo_factory(state));

  auto failed = engine.submit(scalar_input(1));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);

  // The engine keeps serving afterwards.
  auto ok = engine.submit(scalar_input(21));
  ASSERT_TRUE(ok.ok());
  InferResponse res = ok->get();
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.output[0], 42.0f);
  engine.shutdown();
  EXPECT_EQ(engine.stats().rejected, 1u);
  EXPECT_EQ(engine.stats().completed, 1u);
}

TEST_F(ServeEngineTest, BatchFaultFailsTheBatchButWorkerKeepsServing) {
  util::fault_configure("serve.batch:1");
  auto state = std::make_shared<EchoState>();
  EngineConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 1;
  cfg.flush_timeout_us = 0;
  ServeEngine engine(cfg, echo_factory(state));

  auto first = engine.submit(scalar_input(1));
  ASSERT_TRUE(first.ok());
  InferResponse failed = first->get();
  ASSERT_FALSE(failed.status.ok());
  EXPECT_EQ(failed.status.code(), StatusCode::kUnavailable);

  auto second = engine.submit(scalar_input(5));
  ASSERT_TRUE(second.ok());
  InferResponse res = second->get();
  ASSERT_TRUE(res.status.ok()) << res.status.to_string();
  EXPECT_EQ(res.output[0], 10.0f);
  engine.shutdown();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST_F(ServeEngineTest, BadInputShapeFailsThatRequestOnly) {
  auto state = std::make_shared<EchoState>();
  EngineConfig cfg;
  cfg.num_workers = 1;
  // A real ModelSession validates shapes; EchoSession doesn't, so use a
  // session wrapper that throws like ModelSession::run does.
  ServeEngine engine(cfg, [](int) -> std::unique_ptr<InferenceSession> {
    class Checked : public InferenceSession {
      Tensor run(const Tensor& input) override {
        if (input.shape().rank() != 4) {
          throw std::invalid_argument("expected one [1,C,H,W] sample");
        }
        return input;
      }
      std::string scheme() const override { return "checked"; }
    };
    return std::make_unique<Checked>();
  });

  auto bad = engine.submit(Tensor(Shape{3}));
  ASSERT_TRUE(bad.ok());  // accepted; the *response* carries the error
  InferResponse res = bad->get();
  ASSERT_FALSE(res.status.ok());
  EXPECT_EQ(res.status.code(), StatusCode::kInvalidArgument);

  auto good = engine.submit(scalar_input(3));
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->get().status.ok());
  engine.shutdown();
}

TEST_F(ServeEngineTest, NullSessionFactoryThrows) {
  EngineConfig cfg;
  cfg.num_workers = 2;
  EXPECT_THROW(
      ServeEngine(cfg, [](int) { return std::unique_ptr<InferenceSession>(); }),
      std::invalid_argument);
}

// The tentpole invariant end-to-end with a real model: batched execution
// through the engine is bit-identical to sequential single-request
// execution, regardless of worker count or how requests coalesced.
// A small conv net under `scheme`, optionally degrading to `degraded`.
std::unique_ptr<ModelSession> model_session(
    const std::string& scheme,
    std::shared_ptr<InferenceSession> degraded = nullptr) {
  nn::Model m("serve-test");
  m.add<nn::Conv2d>(2, 4, 3, 1, 1);
  m.add<nn::ReLU>();
  m.add<nn::Conv2d>(4, 4, 3, 1, 1);
  m.add<nn::ReLU>();
  m.add<nn::GlobalAvgPool>();
  m.add<nn::Flatten>();
  m.add<nn::Linear>(4, 3);
  nn::kaiming_init(m, 11);
  core::OdqConfig cfg;
  cfg.threshold = 0.15f;
  return std::make_unique<ModelSession>(
      std::move(m), make_conv_executor(scheme, cfg), scheme,
      std::move(degraded));
}

Tensor input_for(std::uint64_t i) {
  util::Rng rng(testprop::case_seed(i));
  return testprop::random_activations(rng, Shape{1, 2, 8, 8});
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST_F(ServeEngineTest, BatchedOdqServingIsBitIdenticalToSequential) {
  auto make_model_session = [] { return model_session("odq"); };

  constexpr int kRequests = 32;
  EngineConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 4;
  cfg.flush_timeout_us = 2000;
  ServeEngine engine(cfg,
                     [&](int) { return make_model_session(); });
  std::vector<std::future<InferResponse>> futs;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    auto f = engine.submit(input_for(i));
    ASSERT_TRUE(f.ok());
    futs.push_back(std::move(*f));
  }
  engine.shutdown();

  auto sequential = make_model_session();
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    InferResponse res = futs[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(res.status.ok()) << res.status.to_string();
    Tensor expected = sequential->run(input_for(i));
    ASSERT_EQ(expected.shape(), res.output.shape());
    ASSERT_EQ(std::memcmp(expected.data(), res.output.data(),
                          static_cast<std::size_t>(expected.numel()) *
                              sizeof(float)),
              0)
        << "request " << i << " diverged (batch_size " << res.batch_size
        << ", worker " << res.worker_id << ")";
  }
}

// A NaN pixel makes the ODQ executor refuse that request's forward: it
// fails alone with kInvalidArgument naming the conv, and the finite request
// in the same batch gets the answer the session gives it on its own.
TEST_F(ServeEngineTest, NonFiniteRequestFailsAloneInItsBatch) {
  const std::shared_ptr<InferenceSession> shared = model_session("odq");
  EngineConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 2;
  cfg.flush_timeout_us = 5000000;  // the batch closes when both arrived
  ServeEngine engine(cfg, [&](int) { return shared; });
  Tensor bad = input_for(0);
  bad[5] = std::numeric_limits<float>::quiet_NaN();
  auto bad_fut = engine.submit(bad);
  auto good_fut = engine.submit(input_for(1));
  ASSERT_TRUE(bad_fut.ok());
  ASSERT_TRUE(good_fut.ok());
  const InferResponse bad_res = bad_fut->get();
  const InferResponse good_res = good_fut->get();
  engine.shutdown();

  EXPECT_EQ(bad_res.batch_size, 2u);
  EXPECT_EQ(good_res.batch_size, 2u);
  EXPECT_EQ(bad_res.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_res.status.message().find("conv 0"), std::string::npos)
      << bad_res.status.to_string();
  ASSERT_TRUE(good_res.status.ok()) << good_res.status.to_string();
  EXPECT_TRUE(bitwise_equal(shared->run(input_for(1)), good_res.output));
  EXPECT_EQ(engine.stats().errors, 1u);
}

// One session returned for every worker: the workers run its model
// concurrently, and each output equals a fresh session's sequential run.
TEST_F(ServeEngineTest, OneSessionSharedByFourWorkersMatchesSequential) {
  constexpr int kRequests = 48;
  const std::shared_ptr<InferenceSession> shared = model_session("odq");
  EngineConfig cfg;
  cfg.num_workers = 4;
  cfg.max_batch = 4;
  ServeEngine engine(cfg, [&](int) { return shared; });
  std::vector<std::future<InferResponse>> futs(kRequests);
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int i = c; i < kRequests; i += 4) {
        futs[static_cast<std::size_t>(i)] =
            std::move(engine.submit(input_for(static_cast<std::uint64_t>(i)))
                          .value());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  engine.shutdown();

  auto sequential = model_session("odq");
  for (int i = 0; i < kRequests; ++i) {
    InferResponse res = futs[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(res.status.ok()) << res.status.to_string();
    EXPECT_TRUE(bitwise_equal(
        sequential->run(input_for(static_cast<std::uint64_t>(i))), res.output))
        << "request " << i << " (worker " << res.worker_id << ")";
  }
}

// run and run_degraded on one shared session, from several threads at once:
// each returns its own scheme's output, bitwise.
TEST(ModelSessionTest, ConcurrentRunAndRunDegradedKeepTheirSchemes) {
  constexpr int kInputs = 8;
  const auto session = model_session("odq", model_session("static_int8"));
  EXPECT_EQ(session->degraded_scheme(), "static_int8");
  auto primary = model_session("odq");
  auto degraded = model_session("static_int8");
  std::vector<Tensor> want_primary, want_degraded;
  for (int i = 0; i < kInputs; ++i) {
    want_primary.push_back(primary->run(input_for(i)));
    want_degraded.push_back(degraded->run(input_for(i)));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < 2 * kInputs; ++k) {
        const int i = (t + k) % kInputs;
        const bool degrade = (t + k) % 2 == 0;
        const Tensor out = degrade ? session->run_degraded(input_for(i))
                                   : session->run(input_for(i));
        if (!bitwise_equal(out, degrade ? want_degraded[i] : want_primary[i])) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace odq::serve
