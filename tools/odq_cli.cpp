// odq_cli — command-line front end to the library.
//
//   odq_cli summary  <model> [classes] [width]        print the layer table
//   odq_cli train    <model> <out.bin> [epochs]       train on synthetic data
//   odq_cli eval     <model> <weights.bin> [scheme]   evaluate a checkpoint
//                                                     (float, or quantize's)
//   odq_cli quantize <model> <weights.bin> <out.qbin> export packed INT4
//   odq_cli table1                                    print the PE-allocation table
//
// Models: resnet20, resnet56, vgg16, densenet, lenet5 (lenet5 uses the
// synthetic-digit dataset). Schemes for eval: fp32 (default), int16, int8,
// int4, drq, odq[:threshold].
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "accel/allocation.hpp"
#include "core/odq.hpp"
#include "data/synthetic.hpp"
#include "drq/drq.hpp"
#include "nn/init.hpp"
#include "nn/models.hpp"
#include "nn/summary.hpp"
#include "nn/trainer.hpp"
#include "quant/int4_export.hpp"
#include "quant/static_executor.hpp"
#include "tool_main.hpp"

namespace {

using namespace odq;

int usage() {
  std::fprintf(stderr,
               "usage: odq_cli <summary|train|eval|quantize|table1> ...\n"
               "  summary  <model> [classes=10] [width=8]\n"
               "  train    <model> <out.bin> [epochs=8]\n"
               "  eval     <model> <weights.bin> [scheme=fp32]\n"
               "  quantize <model> <weights.bin> <out.qbin>\n"
               "  table1\n"
               "models: resnet20 resnet56 vgg16 densenet lenet5\n"
               "schemes: fp32 int16 int8 int4 drq odq[:threshold]\n");
  return 2;
}

nn::Model build(const std::string& name, int classes, std::int64_t width) {
  if (name == "resnet20") return nn::make_resnet(20, classes, width);
  if (name == "resnet56") return nn::make_resnet(56, classes, width);
  if (name == "vgg16") return nn::make_vgg16(classes, width * 2);
  if (name == "densenet") return nn::make_densenet(classes, width / 2 + 2, 3);
  if (name == "lenet5") return nn::make_lenet5(classes);
  throw std::invalid_argument("unknown model " + name);
}

data::TrainTest make_data(const std::string& model, int classes) {
  if (model == "lenet5") return data::make_synthetic_digits(256, 96);
  data::SyntheticConfig cfg;
  cfg.num_classes = classes;
  cfg.noise = 0.05f;
  return data::make_synthetic_images(cfg, 256, 96);
}

std::shared_ptr<nn::ConvExecutor> scheme_executor(const std::string& scheme) {
  if (scheme == "fp32") return nullptr;
  if (scheme == "int16") {
    return std::make_shared<quant::StaticQuantConvExecutor>(16);
  }
  if (scheme == "int8") {
    return std::make_shared<quant::StaticQuantConvExecutor>(8);
  }
  if (scheme == "int4") {
    return std::make_shared<quant::StaticQuantConvExecutor>(4);
  }
  if (scheme == "drq") {
    drq::DrqConfig cfg;
    cfg.calibrate_quantile = 0.5;
    return std::make_shared<drq::DrqConvExecutor>(cfg);
  }
  if (scheme.rfind("odq", 0) == 0) {
    core::OdqConfig cfg;
    const auto colon = scheme.find(':');
    if (colon != std::string::npos) {
      cfg.threshold = std::strtof(scheme.c_str() + colon + 1, nullptr);
    }
    return std::make_shared<core::OdqConvExecutor>(cfg);
  }
  throw std::invalid_argument("unknown scheme " + scheme);
}

}  // namespace

int tool_main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  {
    if (cmd == "table1") {
      std::printf("%-12s %-12s %s\n", "#predictor", "#executor",
                  "max sensitive %");
      for (const auto& a : accel::valid_allocations()) {
        std::printf("%-12d %-12d %d\n", a.predictor_arrays, a.executor_arrays,
                    static_cast<int>(
                        100.0 * accel::max_bubble_free_sensitive_fraction(
                                    a.predictor_arrays, a.executor_arrays)));
      }
      return 0;
    }
    if (cmd == "summary" && argc >= 3) {
      const int classes = argc > 3 ? std::atoi(argv[3]) : 10;
      const std::int64_t width = argc > 4 ? std::atoll(argv[4]) : 8;
      nn::Model m = build(argv[2], classes, width);
      nn::kaiming_init(m, 1);
      const std::int64_t ch = std::string(argv[2]) == "lenet5" ? 1 : 3;
      const std::int64_t hw = std::string(argv[2]) == "lenet5" ? 28 : 32;
      std::printf("%s\n",
                  nn::summarize(m, tensor::Shape{1, ch, hw, hw}).str().c_str());
      return 0;
    }
    if (cmd == "train" && argc >= 4) {
      nn::Model m = build(argv[2], 10, 8);
      nn::kaiming_init(m, 42);
      auto data = make_data(argv[2], 10);
      nn::TrainConfig tc;
      tc.epochs = argc > 4 ? std::atoll(argv[4]) : 8;
      tc.batch_size = 16;
      tc.lr = std::string(argv[2]) == "vgg16" ? 0.02f : 0.05f;
      tc.verbose = true;
      nn::SgdTrainer(tc).train(m, data.train.images, data.train.labels);
      const double acc =
          nn::evaluate_accuracy(m, data.test.images, data.test.labels);
      m.save(argv[3]);
      std::printf("trained %s: test accuracy %.3f -> %s\n", argv[2], acc,
                  argv[3]);
      return 0;
    }
    if (cmd == "eval" && argc >= 4) {
      nn::Model m = build(argv[2], 10, 8);
      m.load(argv[3]);
      const std::string scheme = argc > 4 ? argv[4] : "fp32";
      m.set_conv_executor(scheme_executor(scheme));
      auto data = make_data(argv[2], 10);
      const double acc =
          nn::evaluate_accuracy(m, data.test.images, data.test.labels);
      std::printf("%s @ %s: test accuracy %.3f\n", argv[2], scheme.c_str(),
                  acc);
      return 0;
    }
    if (cmd == "quantize" && argc >= 5) {
      nn::Model m = build(argv[2], 10, 8);
      m.load(argv[3]);
      quant::export_int4(m, argv[4]).throw_if_error();
      std::printf("exported packed INT4 checkpoint: %lld bytes (float: %lld)\n",
                  static_cast<long long>(std::filesystem::file_size(argv[4])),
                  static_cast<long long>(std::filesystem::file_size(argv[3])));
      return 0;
    }
  }
  return usage();
}

int main(int argc, char** argv) {
  return odq::tools::run_guarded("odq_cli",
                                 [&] { return tool_main(argc, argv); });
}
