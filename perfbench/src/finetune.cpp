// perfbench: finetune-odq, SgdTrainer steps on ResNet-20 with the ODQ
// executor installed (the paper's retraining step).
#include <cmath>
#include <cstring>

#include "bench.hpp"
#include "data/synthetic.hpp"
#include "nn/loss.hpp"
#include "nn/trainer.hpp"

namespace perfbench {

namespace {

using odq::core::OdqConvExecutor;

struct Trainee {
  odq::nn::Model model;
  std::shared_ptr<OdqConvExecutor> exec;
  odq::data::Dataset data;
  odq::nn::SgdTrainer trainer{odq::nn::TrainConfig{}};
};

Trainee setup_trainee(std::uint64_t seed) {
  Trainee t;
  t.model = make_resnet20();
  t.exec = std::make_shared<OdqConvExecutor>(odq::core::OdqConfig{});
  t.model.set_conv_executor(t.exec);
  calibrate_threshold(t.model, *t.exec, seed, /*calib_forwards=*/8);
  odq::data::SyntheticConfig dcfg;
  dcfg.seed = seed;
  t.data = odq::data::make_synthetic_images(dcfg, kTrainSetImages, 0).train;
  odq::nn::TrainConfig tcfg;
  tcfg.batch_size = kTrainBatch;
  tcfg.lr = 0.01f;
  tcfg.shuffle_seed = seed;
  t.trainer = odq::nn::SgdTrainer(tcfg);
  return t;
}

// Batch k of the training set (wrapping), with its labels.
struct Batch {
  Tensor x;
  std::vector<int> y;
};

Batch batch_at(const odq::data::Dataset& d, std::int64_t k) {
  const std::int64_t per = 3 * 32 * 32;
  const std::int64_t first = (k * kTrainBatch) % d.size();
  Batch b{Tensor(odq::tensor::Shape{kTrainBatch, 3, 32, 32}), {}};
  for (std::int64_t i = 0; i < kTrainBatch; ++i) {
    const std::int64_t src = (first + i) % d.size();
    std::memcpy(b.x.data() + i * per, d.images.data() + src * per,
                sizeof(float) * static_cast<std::size_t>(per));
    b.y.push_back(d.labels[static_cast<std::size_t>(src)]);
  }
  return b;
}

std::vector<float> snapshot(odq::nn::Model& m) {
  std::vector<float> w;
  for (odq::nn::Param* p : m.params()) {
    w.insert(w.end(), p->value.data(), p->value.data() + p->value.numel());
  }
  return w;
}

// One SgdTrainer step: train_epoch over exactly one batch.
float train_step(Trainee& t, std::int64_t k) {
  const Batch b = batch_at(t.data, k);
  return t.trainer.train_epoch(t.model, b.x, b.y, k).loss;
}

// Traced step: the step itself through SgdTrainer, then a bench-driven
// forward (through `tracer`) and backward on the next batch, timed apart.
// Optimizer time is step time minus forward and backward.
struct TrainTimes {
  std::vector<double> step_ms, fwd_ms, bwd_ms;
  void report(Report& r) const {
    const double f = mean(fwd_ms), b = mean(bwd_ms);
    r.set("nn.train_forward_ms", f, "ms");
    r.set("nn.backward_ms", b, "ms");
    r.set("nn.optimizer_ms", mean(step_ms) - f - b, "ms");
  }
};

void traced_step(Trainee& t, Tracer& tracer, std::int64_t k, TrainTimes& tt) {
  auto t0 = Clock::now();
  (void)train_step(t, k);
  tt.step_ms.push_back(ms_since(t0));
  const Batch b = batch_at(t.data, k + 1);
  t0 = Clock::now();
  const Tensor logits = tracer.forward(b.x, /*train=*/true);
  tt.fwd_ms.push_back(ms_since(t0));
  const odq::nn::LossResult loss = odq::nn::softmax_cross_entropy(logits, b.y);
  t0 = Clock::now();
  (void)t.model.backward(loss.grad_logits);
  tt.bwd_ms.push_back(ms_since(t0));
  t.model.zero_grad();
}

}  // namespace

void run_finetune_odq(const Args& a, Report& r) {
  std::vector<double> setup_s;
  Trainee t;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    t = setup_trainee(a.seed);
    (void)train_step(t, 0);  // warm-up step
    setup_s.push_back(ms_since(t0) / 1e3);
  }
  const std::vector<float> w0 = snapshot(t.model);

  std::unique_ptr<Tracer> tracer;
  if (a.trace) tracer = std::make_unique<Tracer>(t.model, t.exec, t.exec.get());
  std::vector<double> step_ms;
  TrainTimes tt;
  bool loss_finite = true;
  const auto t_end = Clock::now() + std::chrono::duration<double>(a.seconds);
  for (std::int64_t k = 1; Clock::now() < t_end; ++k) {
    if (tracer) {
      traced_step(t, *tracer, k, tt);
      continue;
    }
    const auto t0 = Clock::now();
    const float loss = train_step(t, k);
    step_ms.push_back(ms_since(t0));
    loss_finite &= std::isfinite(loss);
  }
  r.attempted = static_cast<std::int64_t>(
      tracer ? tt.step_ms.size() : step_ms.size());

  const std::vector<float> w1 = snapshot(t.model);
  bool finite = loss_finite, changed = false;
  for (std::size_t i = 0; i < w1.size(); ++i) {
    finite &= std::isfinite(w1[i]);
    changed |= w1[i] != w0[i];
  }
  r.check(finite, "finetune-odq: non-finite loss or weights");
  r.check(changed, "finetune-odq: weights did not change");

  if (tracer) {
    tt.report(r);
    tracing_overhead(t.model, *tracer, batch_at(t.data, 0).x, true, 6, r);
    tracer->detach();
    tracer->ledger.report(r);
    // Counts on an untrained replica: how far training got depends on time.
    Trainee fresh = setup_trainee(a.seed);
    odq_counts(fresh.model, *fresh.exec, a.seed, kTrainBatch, r);
    accel_probe(fresh.model, fresh.exec->config(), r);
    complete_ledger(a, r, Covered{.train = true}, fresh.model,
                    kTrainBatch, fresh.exec->config());
  } else {
    r.set("setup_s", quantile(setup_s, 0.5), "s");
    r.set("latency_ms_p50", quantile(step_ms, 0.5), "ms");
    r.set("images_per_s", kTrainBatch * 1e3 / quantile(step_ms, 0.5), "1/s");
  }
}

void train_probe(const Args& a, int steps, Report& r) {
  Trainee t = setup_trainee(a.seed);
  Tracer tracer(t.model, t.exec, t.exec.get());
  TrainTimes tt;
  for (int k = 0; k < steps; ++k) traced_step(t, tracer, k, tt);
  tt.report(r);
}

}  // namespace perfbench
