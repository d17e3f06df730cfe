#include "core/threshold_search.hpp"

#include <algorithm>
#include <memory>

#include "tensor/ops.hpp"
#include "util/stats.hpp"

namespace odq::core {

using tensor::Shape;
using tensor::Tensor;

float calibrate_initial_threshold(nn::Model& model, const Tensor& inputs,
                                  const OdqConfig& cfg, double percentile) {
  auto executor = std::make_shared<OdqConvExecutor>(cfg);
  executor->enable_calibration(true);
  // A huge threshold keeps the executor idle: the calibration pass measures
  // the predictor-output distribution only.
  executor->set_threshold(3.4e38f);
  model.set_conv_executor(executor);
  (void)model.forward(inputs, /*train=*/false);
  model.set_conv_executor(nullptr);

  std::vector<float> samples = executor->calibration_samples();
  if (samples.empty()) return cfg.threshold;
  return static_cast<float>(util::percentile(std::move(samples), percentile));
}

namespace {

double mean_sensitive_fraction(const OdqConvExecutor& executor) {
  const std::size_t layers = executor.num_layers_seen();
  if (layers == 0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < layers; ++i) {
    acc += executor.layer_stats(static_cast<int>(i)).sensitive_fraction();
  }
  return acc / static_cast<double>(layers);
}

}  // namespace

ThresholdSearchResult search_threshold(nn::Model& model,
                                       const data::Dataset& train,
                                       const data::Dataset& test,
                                       double reference_accuracy,
                                       const OdqConfig& base_cfg,
                                       const ThresholdSearchConfig& scfg) {
  ThresholdSearchResult res;
  res.reference_accuracy = reference_accuracy;

  // Initial threshold from the predictor-output distribution over N
  // calibration inputs.
  const std::int64_t ncal = std::min(scfg.calibration_inputs, test.size());
  const std::int64_t chw =
      test.images.shape()[1] * test.images.shape()[2] * test.images.shape()[3];
  Tensor calib(Shape{ncal, test.images.shape()[1], test.images.shape()[2],
                     test.images.shape()[3]},
               std::vector<float>(test.images.data(),
                                  test.images.data() + ncal * chw));
  float threshold = calibrate_initial_threshold(model, calib, base_cfg,
                                                scfg.init_percentile);

  // Snapshot the trained weights: each candidate threshold is evaluated by
  // retraining from this baseline ("weights are retrained after introducing
  // the threshold"), never from a previous candidate's iterate.
  std::vector<tensor::Tensor> param_snapshot;
  for (nn::Param* p : model.params()) param_snapshot.push_back(p->value);
  std::vector<tensor::Tensor> buffer_snapshot;
  for (tensor::Tensor* b : model.buffers()) buffer_snapshot.push_back(*b);
  auto restore = [&] {
    auto ps = model.params();
    for (std::size_t i = 0; i < ps.size(); ++i) {
      ps[i]->value = param_snapshot[i];
      // Drop optimizer state: a restarted fine-tune must not inherit the
      // previous candidate's momentum.
      ps[i]->momentum = tensor::Tensor();
      ps[i]->velocity = tensor::Tensor();
    }
    auto bs = model.buffers();
    for (std::size_t i = 0; i < bs.size(); ++i) *bs[i] = buffer_snapshot[i];
  };

  OdqConfig cfg = base_cfg;
  for (int iter = 0; iter < scfg.max_iterations; ++iter) {
    cfg.threshold = threshold;
    auto executor = std::make_shared<OdqConvExecutor>(cfg);
    if (iter > 0) restore();
    model.set_conv_executor(executor);

    // Retrain with the threshold in the loop (STE backward).
    if (scfg.finetune_epochs > 0) {
      nn::TrainConfig tc = scfg.finetune;
      tc.epochs = scfg.finetune_epochs;
      nn::SgdTrainer trainer(tc);
      trainer.train(model, train.images, train.labels);
      executor->reset_stats();
    }

    const double acc =
        nn::evaluate_accuracy(model, test.images, test.labels);
    const double sens = mean_sensitive_fraction(*executor);
    model.set_conv_executor(nullptr);

    res.trace.push_back({threshold, acc, sens});
    res.iterations = iter + 1;

    if (acc + 1e-12 >= reference_accuracy - scfg.accuracy_tolerance) {
      res.threshold = threshold;
      res.accuracy = acc;
      res.converged = true;
      return res;
    }
    threshold *= 0.5f;  // halve and repeat (paper §3)
  }

  // Did not converge within the budget: keep the best-accuracy point.
  const auto best = std::max_element(
      res.trace.begin(), res.trace.end(),
      [](const ThresholdTracePoint& a, const ThresholdTracePoint& b) {
        return a.accuracy < b.accuracy;
      });
  res.threshold = best->threshold;
  res.accuracy = best->accuracy;
  res.converged = false;
  return res;
}

}  // namespace odq::core
