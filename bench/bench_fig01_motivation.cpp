// Figure 1: the motivating example — input-directed quantization on LeNet-5
// (MNIST-like data) produces (1) sensitive outputs computed from mostly
// insensitive (low-precision) inputs, hurting accuracy, and (2) insensitive
// outputs computed from mostly sensitive (high-precision) inputs, wasting
// computation. This bench counts both cases per conv layer.
#include <sys/stat.h>

#include <cstdio>
#include <memory>

#include "common.hpp"
#include "nn/init.hpp"
#include "nn/models.hpp"

int main() {
  using namespace odq;
  bench::print_header(
      "bench_fig01_motivation",
      "Figure 1 (input-directed quantization inefficiency, LeNet-5/MNIST)");

  // Train (or load) LeNet-5 on the synthetic MNIST stand-in.
  auto data = data::make_synthetic_digits(128, 64);
  nn::Model model = nn::make_lenet5();
  const std::string cache = "bench_cache/lenet5_digits.bin";
  ::mkdir("bench_cache", 0755);
  struct stat st{};
  if (::stat(cache.c_str(), &st) == 0) {
    model.load(cache);
  } else {
    nn::kaiming_init(model, 21);
    nn::TrainConfig tc;
    tc.epochs = 5;
    tc.batch_size = 16;
    tc.lr = 0.05f;
    nn::SgdTrainer(tc).train(model, data.train.images, data.train.labels);
    model.save(cache);
  }
  const double acc =
      nn::evaluate_accuracy(model, data.test.images, data.test.labels);
  std::printf("LeNet-5 FP32 accuracy on synthetic digits: %.3f\n\n", acc);

  // Record conv inputs with one forward, then analyze each conv layer.
  const std::vector<tensor::Tensor> inputs = nn::record_conv_inputs(
      model,
      tensor::Tensor(tensor::Shape{2, 1, 28, 28},
                     std::vector<float>(data.test.images.data(),
                                        data.test.images.data() + 2 * 28 * 28)),
      std::make_shared<drq::DrqConvExecutor>(bench::default_drq_config()));

  std::printf("%-6s %-34s %s\n", "layer",
              "case(1): sens. out, >50% lo inputs",
              "case(2): insens. out, >50% hi inputs");
  bench::print_rule();
  for (nn::Conv2d* conv : model.convs()) {
    const tensor::Tensor& x = inputs[static_cast<std::size_t>(conv->conv_id())];
    drq::DrqConfig cfg = bench::default_drq_config();
    cfg.input_threshold = drq::calibrate_input_threshold(x, cfg, 0.5);
    const tensor::Tensor empty_bias;
    const tensor::Tensor& bias =
        conv->bias() != nullptr ? conv->bias()->value : empty_bias;
    const drq::LayerAnalysis a =
        drq::analyze_layer(x, conv->weight().value, bias, conv->stride(),
                           conv->pad(), cfg, 0.3f);
    const double case1 = a.lowprec_share_hist[2] + a.lowprec_share_hist[3];
    const double case2 = a.highprec_share_hist[2] + a.highprec_share_hist[3];
    std::printf("C%-5d %-34.1f %.1f   (%% of that output class)\n",
                conv->conv_id() + 1, 100.0 * case1, 100.0 * case2);
  }
  bench::print_rule();
  std::printf("both cases are nonzero -> input sensitivity does not predict "
              "output sensitivity; ODQ keys precision on outputs instead\n");
  return 0;
}
