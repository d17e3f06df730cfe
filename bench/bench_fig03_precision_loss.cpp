// Figure 3: average precision loss injected into *sensitive* outputs by
// DRQ's low-precision inputs, per layer (ResNet-20). With --odq (or as the
// second half of the default output) the same measurement under ODQ — the
// paper's §6.1 per-layer list (C1: 0.08 ... C16: 0.05) — where sensitive
// outputs are bit-exact INT4 results and the only loss is INT4 rounding.
#include <cstdio>
#include <cstring>
#include <memory>

#include "common.hpp"
#include "core/odq.hpp"
#include "quant/quantizer.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace odq;

// ODQ per-layer precision loss on sensitive outputs vs the FP32 reference.
std::vector<double> odq_precision_loss(const std::string& model_name) {
  nn::Model model = bench::trained_model(model_name, 10);
  std::vector<nn::Conv2d*> convs = model.assign_conv_ids();
  const core::OdqConfig cfg = bench::default_odq_config(model_name);
  const std::vector<tensor::Tensor> inputs = nn::record_conv_inputs(
      model, bench::test_batch(10, 2),
      std::make_shared<core::OdqConvExecutor>(cfg));

  std::vector<double> losses;
  for (nn::Conv2d* conv : convs) {
    const tensor::Tensor& x = inputs[static_cast<std::size_t>(conv->conv_id())];
    const tensor::Tensor empty_bias;
    const tensor::Tensor& bias =
        conv->bias() != nullptr ? conv->bias()->value : empty_bias;
    tensor::Tensor ref = tensor::conv2d_direct(x, conv->weight().value, bias,
                                               conv->stride(), conv->pad());
    core::OdqLayerStats stats;
    tensor::TensorU8 mask;
    tensor::Tensor out = core::odq_conv_float(x, conv->weight().value, bias,
                                              conv->stride(), conv->pad(),
                                              cfg, &stats, &mask);
    double loss = 0.0;
    std::int64_t count = 0;
    for (std::int64_t i = 0; i < out.numel(); ++i) {
      if (mask[i] != 0) {
        loss += std::abs(out[i] - ref[i]);
        ++count;
      }
    }
    losses.push_back(count > 0 ? loss / static_cast<double>(count) : 0.0);
  }
  return losses;
}

}  // namespace

int main(int argc, char** argv) {
  const bool odq_only = argc > 1 && std::strcmp(argv[1], "--odq") == 0;
  bench::print_header(
      "bench_fig03_precision_loss",
      "Figure 3 (DRQ precision loss on sensitive outputs) + §6.1 in-text "
      "(ODQ per-layer precision loss)",
      "paper: DRQ noise >0.1 in most layers (INT4-INT2); ODQ stays at "
      "0.02-0.1");

  if (!odq_only) {
    drq::DrqConfig cfg = bench::default_drq_config();
    cfg.hi_bits = 4;  // the INT4-INT2 regime where Fig. 3 is measured
    cfg.lo_bits = 2;
    cfg.input_threshold = -1.0f;
    const auto layers = bench::analyze_model_layers("resnet20", 10, cfg, 0.3f);
    std::printf("DRQ (INT4-INT2) precision loss on sensitive outputs, "
                "ResNet-20:\n");
    std::printf("%-6s %s\n", "layer", "avg |O_hi - O_drq|");
    bench::print_rule();
    for (std::size_t i = 0; i < layers.size(); ++i) {
      std::printf("C%-5zu %.4f\n", i + 1, layers[i].precision_loss_sensitive);
    }
    std::printf("\n");
  }

  const auto odq_losses = odq_precision_loss("resnet20");
  std::printf("ODQ precision loss on sensitive outputs (vs FP32 reference), "
              "ResNet-20 (paper §6.1: C1 0.08 ... C16 0.05):\n");
  std::printf("%-6s %s\n", "layer", "avg |O_fp32 - O_odq|");
  bench::print_rule();
  double mx = 0.0;
  for (std::size_t i = 0; i < odq_losses.size(); ++i) {
    std::printf("C%-5zu %.4f\n", i + 1, odq_losses[i]);
    mx = std::max(mx, odq_losses[i]);
  }
  bench::print_rule();
  std::printf("max ODQ per-layer loss: %.4f (sensitive outputs are bit-exact "
              "INT4; residual loss is INT4 rounding only)\n",
              mx);
  return 0;
}
