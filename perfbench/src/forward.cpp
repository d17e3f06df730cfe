// perfbench: the closed-loop forward workloads, resnet20-b1 and
// vgg16-b8-schemes.
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "serve/session.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

using odq::core::OdqConvExecutor;

constexpr std::size_t kMaxSamples = 8;

// Set-up of one ResNet-20 ODQ replica: build, Kaiming init, threshold
// calibration and warm-up.
struct Resnet {
  odq::nn::Model model;
  std::shared_ptr<OdqConvExecutor> exec;
};

Resnet setup_resnet(std::uint64_t seed) {
  Resnet m{make_resnet20(), std::make_shared<OdqConvExecutor>(
                                odq::core::OdqConfig{})};
  m.model.set_conv_executor(m.exec);
  calibrate_threshold(m.model, *m.exec, seed, /*calib_forwards=*/8);
  for (int i = 0; i < 8; ++i) {
    (void)m.model.forward(seeded_batch(seed, 2, static_cast<std::uint64_t>(i),
                                       1),
                          false);
  }
  m.exec->reset_stats();
  return m;
}

}  // namespace

void run_resnet20_b1(const Args& a, Report& r) {
  std::vector<double> setup_s;
  Resnet m;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    m = setup_resnet(a.seed);
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  std::fprintf(stderr, "resnet20-b1: threshold %.6g\n",
               m.exec->config().threshold);

  std::unique_ptr<Tracer> tracer;
  if (a.trace) tracer = std::make_unique<Tracer>(m.model, m.exec, m.exec.get());

  std::vector<double> lat;
  std::vector<Sample> samples;
  bool finite = true;
  const auto t_end = Clock::now() + std::chrono::duration<double>(a.seconds);
  for (std::uint64_t id = 0; Clock::now() < t_end; ++id) {
    const Tensor x = seeded_batch(a.seed, 3, id, 1);
    const auto t0 = Clock::now();
    Tensor y = tracer ? tracer->forward(x, false) : m.model.forward(x, false);
    lat.push_back(ms_since(t0));
    finite &= all_finite(y);
    if (id % 97 == 0 && samples.size() < kMaxSamples) {
      samples.push_back({x, std::move(y)});
    }
  }
  r.attempted = static_cast<std::int64_t>(lat.size());
  r.check(finite, "resnet20-b1: non-finite logits");

  if (tracer) {
    tracing_overhead(m.model, *tracer, samples.front().x, false, 40, r);
    tracer->detach();
    tracer->ledger.report(r);
    odq_counts(m.model, *m.exec, a.seed, 1, r);
    accel_probe(m.model, m.exec->config(), r);
    complete_ledger(a, r, Covered{}, m.model, 1, m.exec->config());
  } else {
    r.set("setup_s", quantile(setup_s, 0.5), "s");
    r.set("latency_ms_p50", quantile(lat, 0.5), "ms");
    r.set("images_per_s", 1e3 / quantile(lat, 0.5), "1/s");
  }
  check_odq(m.model, m.exec, samples, r, "resnet20-b1");
}

// ------------------------------------------------------- vgg16-b8-schemes

namespace {

constexpr int kNumSchemes = 4;  // kSchemeRows; ODQ is the last
// Relative tolerance of the FP32 path against the direct-conv oracle:
// max |y - ref| <= kFloatTol * max(1, max |ref|). forward_fp32 sums in a
// different order from conv2d_direct, so bitwise equality is not expected.
constexpr float kFloatTol = 1e-3f;

struct Replica {
  odq::nn::Model model;
  std::shared_ptr<odq::nn::ConvExecutor> exec;
};

std::vector<Replica> setup_vgg(std::uint64_t seed) {
  std::vector<Replica> reps;
  odq::core::OdqConfig odq_cfg;
  odq_cfg.threshold = 0.0f;  // every nonzero predictor output is sensitive
  for (const SchemeRow& row : kSchemeRows) {
    Replica rep{make_vgg16(),
                odq::serve::make_conv_executor(row.scheme, odq_cfg)};
    rep.model.set_conv_executor(rep.exec);
    reps.push_back(std::move(rep));
  }
  const Tensor warm = seeded_batch(seed, 2, 0, kVggBatch);
  for (int round = 0; round < 2; ++round) {
    for (Replica& rep : reps) (void)rep.model.forward(warm, false);
  }
  return reps;
}

float max_abs(const Tensor& t) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < t.numel(); ++i) m = std::max(m, std::abs(t[i]));
  return m;
}

}  // namespace

void run_vgg16_b8_schemes(const Args& a, Report& r) {
  std::vector<double> setup_s;
  std::vector<Replica> reps;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    reps = setup_vgg(a.seed);
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  auto odq_exec = std::static_pointer_cast<OdqConvExecutor>(reps[3].exec);

  std::vector<std::unique_ptr<Tracer>> tracers;
  if (a.trace) {
    for (Replica& rep : reps) {
      tracers.push_back(std::make_unique<Tracer>(
          rep.model, rep.exec, rep.exec == odq_exec ? odq_exec.get() : nullptr));
    }
  }

  std::vector<double> round_ms;
  std::vector<std::vector<Sample>> samples(kNumSchemes);
  bool finite = true;
  const auto t_end = Clock::now() + std::chrono::duration<double>(a.seconds);
  for (std::uint64_t round = 0; Clock::now() < t_end; ++round) {
    const Tensor x =
        seeded_batch(a.seed, 3, round * kVggBatch, kVggBatch);
    double total = 0.0;
    for (int s = 0; s < kNumSchemes; ++s) {
      const auto t0 = Clock::now();
      Tensor y = a.trace ? tracers[s]->forward(x, false)
                         : reps[s].model.forward(x, false);
      total += ms_since(t0);
      finite &= all_finite(y);
      if (round % 13 == 0 && samples[s].size() < kMaxSamples / 2) {
        samples[s].push_back({x, std::move(y)});
      }
    }
    round_ms.push_back(total);
  }
  r.attempted = static_cast<std::int64_t>(round_ms.size()) * kNumSchemes;
  r.check(finite, "vgg16-b8-schemes: non-finite logits");

  if (a.trace) {
    tracing_overhead(reps[3].model, *tracers[3], samples[3].front().x, false,
                     10, r);
    for (auto& t : tracers) t->detach();
    tracers[3]->ledger.report(r);
    for (int s = 0; s < kNumSchemes; ++s) {
      report_scheme(kSchemeRows[s], tracers[s]->ledger, r);
    }
    odq_counts(reps[3].model, *odq_exec, a.seed, kVggBatch, r);
    accel_probe(reps[3].model, odq_exec->config(), r);
    complete_ledger(a, r, Covered{.schemes = true}, reps[3].model,
                    kVggBatch, odq_exec->config());
  } else {
    r.set("setup_s", quantile(setup_s, 0.5), "s");
    r.set("latency_ms_p50", quantile(round_ms, 0.5), "ms");
    r.set("images_per_s", kNumSchemes * kVggBatch * 1e3 / quantile(round_ms, 0.5),
          "1/s");
  }

  // FP32 against a replica running the direct-conv oracle.
  odq::nn::Model oracle = make_vgg16();
  oracle.set_conv_executor(std::make_shared<DirectConv>());
  for (const Sample& s : samples[0]) {
    const Tensor ref = oracle.forward(s.x, false);
    const float err = odq::tensor::max_abs_diff(s.y, ref);
    r.check(err <= kFloatTol * std::max(1.0f, max_abs(ref)),
            "vgg16-b8-schemes: fp32 differs from conv2d_direct by " +
                std::to_string(err));
  }
  // INT8 and DRQ: the same input must give the same bits again.
  for (int s = 1; s <= 2; ++s) {
    for (const Sample& smp : samples[s]) {
      r.check(bitwise_equal(reps[s].model.forward(smp.x, false), smp.y),
              std::string("vgg16-b8-schemes: ") + kSchemeRows[s].scheme +
                  " output not repeatable");
    }
  }
  check_odq(reps[3].model, odq_exec, samples[3], r, "vgg16-b8-schemes");
}

}  // namespace perfbench
