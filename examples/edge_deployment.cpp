// Edge deployment scenario: train a model, export the packed INT4
// checkpoint an accelerator would consume, reload it on the "device", and
// serve inference with ODQ — reporting checkpoint size, accuracy, and the
// work the accelerator would perform (cycle-stepped engine).
//
// Run: ./build/examples/edge_deployment
#include <cstdio>
#include <filesystem>
#include <memory>

#include "accel/cyclesim/layer_engine.hpp"
#include "accel/workload.hpp"
#include "core/odq.hpp"
#include "data/synthetic.hpp"
#include "drq/drq.hpp"
#include "nn/init.hpp"
#include "nn/models.hpp"
#include "nn/summary.hpp"
#include "nn/trainer.hpp"
#include "quant/int4_export.hpp"

int main() {
  using namespace odq;

  // --- Workstation side: train and export. ---
  data::SyntheticConfig dcfg;
  dcfg.num_classes = 10;
  auto data = data::make_synthetic_images(dcfg, 192, 64);

  nn::Model trainer_model = nn::make_resnet20(10, 4);
  nn::kaiming_init(trainer_model, 3);
  nn::TrainConfig tc;
  tc.epochs = 10;
  tc.batch_size = 16;
  tc.lr = 0.05f;
  tc.lr_step = 7;
  tc.lr_decay = 0.2f;
  nn::SgdTrainer(tc).train(trainer_model, data.train.images,
                           data.train.labels);
  const double fp32_acc = nn::evaluate_accuracy(
      trainer_model, data.test.images, data.test.labels);
  std::printf("trained %s: FP32 accuracy %.3f\n", trainer_model.name().c_str(),
              fp32_acc);

  // The paper's §3 acceptance loop before shipping: for each candidate
  // threshold (largest first, 0 = full-INT4 fallback), re-estimate BN
  // statistics, retrain briefly with ODQ in the loop (straight-through
  // estimator backward), and accept the largest threshold whose accuracy
  // meets the expectation.
  const std::string snapshot = "edge_fp32.bin";
  trainer_model.save(snapshot);
  float accepted_thr = 0.0f;
  const std::int64_t train_chw = 3 * 32 * 32;
  for (float thr : {0.05f, 0.02f, 0.0f}) {
    // Fresh model per candidate: restores the FP32 baseline *and* drops the
    // previous run's optimizer momentum (stale momentum wrecks a restarted
    // fine-tune).
    trainer_model = nn::make_resnet20(10, 4);
    trainer_model.load(snapshot);
    auto ft_exec = std::make_shared<core::OdqConvExecutor>(core::OdqConfig{});
    ft_exec->set_threshold(thr);
    trainer_model.set_conv_executor(ft_exec);
    for (int pass = 0; pass < 2; ++pass) {  // BN re-estimation
      for (std::int64_t b = 0; b + 16 <= data.train.size(); b += 16) {
        tensor::Tensor batch(
            tensor::Shape{16, 3, 32, 32},
            std::vector<float>(data.train.images.data() + b * train_chw,
                               data.train.images.data() + (b + 16) * train_chw));
        (void)trainer_model.forward(batch, /*train=*/true);
      }
    }
    nn::TrainConfig ft;
    ft.epochs = 3;
    ft.batch_size = 16;
    ft.lr = 0.01f;
    nn::SgdTrainer(ft).train(trainer_model, data.train.images,
                             data.train.labels);
    const double acc = nn::evaluate_accuracy(trainer_model, data.test.images,
                                             data.test.labels);
    std::printf("candidate threshold %.3f -> accuracy %.3f\n", thr, acc);
    if (acc >= fp32_acc - 0.05) {
      accepted_thr = thr;
      break;
    }
  }
  trainer_model.set_conv_executor(nullptr);
  std::remove(snapshot.c_str());
  std::printf("accepted threshold: %.3f\n", accepted_thr);

  const std::string ckpt = "edge_model.qbin";
  quant::export_int4(trainer_model, ckpt).throw_if_error();
  const auto qbytes =
      static_cast<std::int64_t>(std::filesystem::file_size(ckpt));
  std::printf("exported packed INT4 checkpoint: %lld bytes "
              "(float parameters would be %lld bytes, %.1fx larger)\n",
              static_cast<long long>(qbytes),
              static_cast<long long>(trainer_model.num_parameters() * 4),
              static_cast<double>(trainer_model.num_parameters() * 4) /
                  static_cast<double>(qbytes));

  // --- Device side: reload and serve with ODQ. ---
  nn::Model device_model = nn::make_resnet20(10, 4);
  device_model.load(ckpt);
  std::remove(ckpt.c_str());

  core::OdqConfig cfg;
  cfg.threshold = accepted_thr;
  auto exec = std::make_shared<core::OdqConvExecutor>(cfg);
  device_model.set_conv_executor(exec);
  const double odq_acc = nn::evaluate_accuracy(
      device_model, data.test.images, data.test.labels);

  double sens = 0.0;
  for (std::size_t i = 0; i < exec->num_layers_seen(); ++i) {
    sens += exec->layer_stats(static_cast<int>(i)).sensitive_fraction();
  }
  sens /= static_cast<double>(exec->num_layers_seen());
  std::printf("device inference (ODQ, threshold %.2f): accuracy %.3f, "
              "%.0f%% of outputs at full INT4\n",
              cfg.threshold, odq_acc, 100.0 * sens);

  // --- What the accelerator does with it. ---
  drq::DrqConfig drq_cfg;
  drq_cfg.calibrate_quantile = 0.5;
  tensor::Tensor sample(
      tensor::Shape{2, 3, 32, 32},
      std::vector<float>(data.test.images.data(),
                         data.test.images.data() + 2 * 3 * 32 * 32));
  auto workloads =
      accel::extract_workloads(device_model, sample, cfg, drq_cfg);
  const auto sim = accel::cyclesim::simulate_network(workloads, {});
  std::printf("cycle-stepped accelerator estimate: %lld cycles/image "
              "(%.2f ms at 1 GHz), PE idle %.1f%%, DRAM %.1f KB/image\n",
              static_cast<long long>(sim.cycles),
              static_cast<double>(sim.cycles) / 1e6,
              100.0 * sim.idle_fraction(), sim.dram_bytes / 1024.0);
  return 0;
}
