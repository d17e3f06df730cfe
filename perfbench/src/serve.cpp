// perfbench: serve-open, an in-process ServeEngine under an open-loop
// Poisson phase and a closed-loop saturation phase.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "serve/engine.hpp"
#include "serve/session.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using odq::serve::InferResponse;
using odq::serve::ServeEngine;

odq::core::OdqConfig odq_config(float threshold) {
  odq::core::OdqConfig cfg;
  cfg.threshold = threshold;
  return cfg;
}

// A ModelSession-equivalent whose forward goes through a Tracer, so each
// request's conv and layer times land in a per-worker ledger.
class TracedSession : public odq::serve::InferenceSession {
 public:
  explicit TracedSession(float threshold)
      : model_(make_resnet20()),
        exec_(std::make_shared<odq::core::OdqConvExecutor>(
            odq_config(threshold))),
        tracer_(model_, exec_, exec_.get()) {}

  Tensor run(const Tensor& input) override {
    return tracer_.forward(input, false);
  }
  std::string scheme() const override { return "odq"; }
  const Ledger& ledger() const { return tracer_.ledger; }

 private:
  odq::nn::Model model_;
  std::shared_ptr<odq::core::OdqConvExecutor> exec_;
  Tracer tracer_;
};

std::unique_ptr<odq::serve::ModelSession> plain_session(float threshold) {
  return std::make_unique<odq::serve::ModelSession>(
      make_resnet20(),
      std::make_shared<odq::core::OdqConvExecutor>(odq_config(threshold)),
      "odq");
}

float serve_threshold(std::uint64_t seed) {
  odq::nn::Model model = make_resnet20();
  auto exec = std::make_shared<odq::core::OdqConvExecutor>(
      odq::core::OdqConfig{});
  model.set_conv_executor(exec);
  return calibrate_threshold(model, *exec, seed, /*calib_forwards=*/8);
}

struct PhaseCounts {
  std::int64_t attempted = 0, succeeded = 0, failed = 0, rejected = 0;
  std::string json() const {
    std::ostringstream os;
    os << "{\"attempted\": " << attempted << ", \"succeeded\": " << succeeded
       << ", \"failed\": " << failed << ", \"rejected\": " << rejected << "}";
    return os.str();
  }
};

struct ServeResult {
  PhaseCounts open, closed;
  std::vector<double> latency_ms;     // open loop, from each due time
  std::vector<double> queue_wait_ms;  // start - enqueue
  std::vector<double> exec_ms;        // done - start
  double generator_late_ms_max = 0.0;
  double batch_size_mean = 0.0;
  double multi_request_batch_share = 0.0;
  double saturated_rps = 0.0;
  std::vector<Sample> samples;
  Ledger ledger;
};

constexpr std::uint64_t kSampleEvery = 61;

void record(const InferResponse& res, PhaseCounts& pc, ServeResult& out,
            const Tensor& input, std::uint64_t id) {
  if (!res.status.ok()) {
    ++pc.failed;
    std::fprintf(stderr, "serve: request %llu failed: %s\n",
                 static_cast<unsigned long long>(id),
                 res.status.to_string().c_str());
    return;
  }
  ++pc.succeeded;
  if (id % kSampleEvery == 0 && out.samples.size() < 8) {
    out.samples.push_back({input, res.output});
  }
}

// One engine, set up `setups` times (the last one is kept); then an open
// loop for `open_s` seconds and a closed loop for `closed_s` seconds.
ServeResult serve_run(std::uint64_t seed, double open_s, double closed_s,
                      bool traced, int setups, std::vector<double>* setup_s) {
  ServeResult out;
  std::unique_ptr<ServeEngine> engine;
  std::vector<TracedSession*> traced_sessions;
  float threshold = 0.0f;
  odq::serve::EngineConfig cfg;
  cfg.num_workers = kServeWorkers;
  cfg.max_batch = kServeMaxBatch;
  cfg.flush_timeout_us = kServeFlushUs;
  for (int i = 0; i < setups; ++i) {
    engine.reset();
    traced_sessions.clear();
    const auto t0 = Clock::now();
    threshold = serve_threshold(seed);
    engine = std::make_unique<ServeEngine>(
        cfg, [&](int) -> std::unique_ptr<odq::serve::InferenceSession> {
          if (!traced) return plain_session(threshold);
          auto s = std::make_unique<TracedSession>(threshold);
          traced_sessions.push_back(s.get());
          return s;
        });
    std::vector<std::future<InferResponse>> warm;
    for (std::uint64_t w = 0; w < 2 * kServeMaxBatch; ++w) {
      warm.push_back(
          std::move(engine->submit(seeded_batch(seed, 2, w, 1)).value()));
    }
    for (auto& f : warm) f.get();
    if (setup_s) setup_s->push_back(ms_since(t0) / 1e3);
  }
  const odq::serve::EngineStats warm_stats = engine->stats();

  // Phase 1: Poisson arrivals at kServeRatePerS; one collector thread
  // waits on the futures in submission order.
  struct Pending {
    std::uint64_t id;
    double due_us;
    std::future<InferResponse> fut;
    Tensor input;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool gen_done = false;
  std::thread collector([&] {
    for (;;) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return gen_done || !pending.empty(); });
      if (pending.empty()) return;
      Pending p = std::move(pending.front());
      pending.pop_front();
      lock.unlock();
      const InferResponse res = p.fut.get();
      if (res.status.ok()) {
        out.latency_ms.push_back((res.done_us - p.due_us) / 1e3);
        out.queue_wait_ms.push_back((res.start_us - res.enqueue_us) / 1e3);
        out.exec_ms.push_back((res.done_us - res.start_us) / 1e3);
      }
      record(res, out.open, out, p.input, p.id);
    }
  });
  odq::util::Rng rng(seed * 7919ULL + 17);
  const auto t_ref = Clock::now();
  const double us_ref = engine->now_us();
  double due_off_us = 1000.0;
  for (std::uint64_t id = 0;; ++id) {
    due_off_us += -std::log(1.0 - rng.uniform()) / kServeRatePerS * 1e6;
    if (due_off_us > open_s * 1e6) break;
    Tensor x = seeded_batch(seed, 3, id, 1);
    const auto due = t_ref + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::micro>(
                                     due_off_us));
    std::this_thread::sleep_until(due);
    out.generator_late_ms_max =
        std::max(out.generator_late_ms_max, ms_since(due));
    ++out.open.attempted;
    auto fut = engine->submit(x, id);
    if (!fut.ok()) {
      ++out.open.rejected;
      continue;
    }
    std::lock_guard<std::mutex> lock(mu);
    pending.push_back({id, us_ref + due_off_us, std::move(fut.value()),
                       id % kSampleEvery == 0 ? x : Tensor()});
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    gen_done = true;
    cv.notify_one();
  }
  collector.join();
  const odq::serve::EngineStats open_stats = engine->stats();
  const double batches =
      static_cast<double>(open_stats.batches - warm_stats.batches);
  out.batch_size_mean =
      static_cast<double>(open_stats.completed - warm_stats.completed) /
      batches;
  out.multi_request_batch_share =
      static_cast<double>(open_stats.multi_request_batches -
                          warm_stats.multi_request_batches) /
      batches;

  // Phase 2: closed loop, the same thread keeps kServeWindow outstanding.
  if (closed_s > 0.0) {
    std::deque<Pending> window;
    std::uint64_t id = 1u << 30;
    // Response times per window of the phase, on the engine clock; the
    // rate is the median window's, so one stall does not decide it.
    const double start_us = engine->now_us();
    std::vector<std::vector<double>> windows(
        static_cast<std::size_t>(std::max(1.0, closed_s / kServeWindowS)));
    const auto t0 = Clock::now();
    const auto t_end = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(closed_s));
    auto submit = [&] {
      Tensor x = seeded_batch(seed, 5, id, 1);
      ++out.closed.attempted;
      auto fut = engine->submit(x, id);
      if (!fut.ok()) {
        ++out.closed.rejected;
      } else {
        window.push_back({id, 0.0, std::move(fut.value()),
                          id % kSampleEvery == 0 ? x : Tensor()});
      }
      ++id;
    };
    for (int i = 0; i < kServeWindow; ++i) submit();
    while (!window.empty()) {
      Pending p = std::move(window.front());
      window.pop_front();
      const InferResponse res = p.fut.get();
      record(res, out.closed, out, p.input, p.id);
      const auto w = static_cast<std::size_t>((res.done_us - start_us) / 1e6 /
                                              kServeWindowS);
      if (w < windows.size()) windows[w].push_back(res.done_us);
      if (Clock::now() < t_end) submit();
    }
    std::vector<double> rates;
    for (const std::vector<double>& done : windows) {
      if (done.size() < 2) continue;
      const auto [lo, hi] = std::minmax_element(done.begin(), done.end());
      rates.push_back(static_cast<double>(done.size() - 1) /
                      ((*hi - *lo) / 1e6));
    }
    out.saturated_rps = quantile(rates, 0.5);
  }
  engine->shutdown();
  for (TracedSession* s : traced_sessions) out.ledger.merge(s->ledger());
  return out;
}

void report_serve_layers(const ServeResult& s, Report& r) {
  r.set("serve.latency_ms_p99", quantile(s.latency_ms, 0.99), "ms");
  r.set("serve.queue_wait_ms_p50", quantile(s.queue_wait_ms, 0.5), "ms");
  r.set("serve.queue_wait_ms_p99", quantile(s.queue_wait_ms, 0.99), "ms");
  r.set("serve.exec_ms_p50", quantile(s.exec_ms, 0.5), "ms");
  r.set("serve.batch_size_mean", s.batch_size_mean, "requests");
  r.set("serve.multi_request_batch_share", s.multi_request_batch_share,
        "ratio");
  r.set("serve.generator_late_ms_max", s.generator_late_ms_max, "ms");
}

// Sampled responses must equal a sequential ModelSession::run bitwise.
void check_serve(const ServeResult& s, std::uint64_t seed, Report& r) {
  auto session = plain_session(serve_threshold(seed));
  int mismatches = 0;
  for (const Sample& smp : s.samples) {
    if (!bitwise_equal(session->run(smp.x), smp.y)) ++mismatches;
  }
  r.check(!s.samples.empty() && mismatches == 0,
          "serve-open: " + std::to_string(mismatches) + " of " +
              std::to_string(s.samples.size()) +
              " sampled responses differ from sequential ModelSession::run");
}

}  // namespace

void run_serve_open(const Args& a, Report& r) {
  std::vector<double> setup_s;
  const double open_s = a.seconds * kServeOpenShare;
  ServeResult s = serve_run(a.seed, open_s, a.seconds - open_s, a.trace,
                            kSetupRepeats, &setup_s);
  info_line("serve_phases", "{\"open\": " + s.open.json() +
                                ", \"closed\": " + s.closed.json() + "}");
  r.attempted = s.open.attempted + s.closed.attempted;
  r.failed = s.open.failed + s.open.rejected + s.closed.failed +
             s.closed.rejected;
  r.check(s.open.failed + s.closed.failed == 0, "serve-open: failed requests");
  if (a.trace) {
    report_serve_layers(s, r);
    s.ledger.report(r);
    // The engine's sessions are gone; measure overhead and counts on a
    // replica with the same threshold.
    odq::nn::Model model = make_resnet20();
    auto exec = std::make_shared<odq::core::OdqConvExecutor>(
        odq_config(serve_threshold(a.seed)));
    model.set_conv_executor(exec);
    Tracer tracer(model, exec, exec.get());
    tracing_overhead(model, tracer, seeded_batch(a.seed, 3, 0, 1), false, 40,
                     r);
    tracer.detach();
    odq_counts(model, *exec, a.seed, 1, r);
    accel_probe(model, exec->config(), r);
    complete_ledger(a, r, Covered{.serve = true}, model, 1,
                    exec->config());
  } else {
    r.set("setup_s", quantile(setup_s, 0.5), "s");
    r.set("latency_ms_p50", quantile(s.latency_ms, 0.5), "ms");
    r.set("images_per_s", s.saturated_rps, "1/s");
  }
  check_serve(s, a.seed, r);
}

void serve_probe(const Args& a, double seconds, Report& r) {
  ServeResult s = serve_run(a.seed, seconds, 0.0, false, 1, nullptr);
  report_serve_layers(s, r);
}

}  // namespace perfbench
