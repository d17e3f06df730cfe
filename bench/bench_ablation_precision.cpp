// Ablation: ODQ's precision split. The paper fixes INT4 codes split 2+2;
// the pipeline is parametric, so sweep (total_bits, low_bits) and report
// predictor fidelity (how well the high-order product approximates the full
// result), the sensitive fraction at a fixed threshold, and the executor
// work — the accuracy/efficiency tradeoff behind the 2+2 choice.
#include <cstdio>

#include "common.hpp"
#include "core/odq.hpp"
#include "quant/quantizer.hpp"
#include "tensor/ops.hpp"

int main() {
  using namespace odq;
  bench::print_header(
      "bench_ablation_precision",
      "ablation of the bit-split choice (§5.1: 'not limited to 4/2-bit')");

  // One representative trained layer: the mid-network conv of ResNet-20.
  nn::Model model = bench::trained_model("resnet20", 10);
  auto convs = model.assign_conv_ids();
  nn::Conv2d* conv = convs[convs.size() / 2];

  // Record its input with one forward.
  const tensor::Tensor x = nn::record_conv_inputs(
      model, bench::test_batch(10, 2),
      std::make_shared<drq::DrqConvExecutor>(bench::default_drq_config()))
      [static_cast<std::size_t>(conv->conv_id())];
  const tensor::Tensor& w = conv->weight().value;

  std::printf("layer: %s (%lldx%lldx%lld kernel over %lld channels)\n\n",
              conv->name().c_str(), static_cast<long long>(conv->out_channels()),
              static_cast<long long>(conv->kernel()),
              static_cast<long long>(conv->kernel()),
              static_cast<long long>(conv->in_channels()));
  std::printf("%-8s %-8s | %-16s %-12s %-14s %s\n", "total", "low",
              "pred.mean.err", "sens.frac", "exec.MACs", "pred cost/MAC (bit^2)");
  bench::print_rule();

  const tensor::Tensor empty_bias;
  for (const auto& [total, low] :
       std::vector<std::pair<int, int>>{{4, 1}, {4, 2}, {4, 3},
                                        {5, 2}, {6, 2}, {6, 3}, {7, 3}}) {
    quant::QTensor qin = quant::quantize_activations(x, total);
    quant::QTensor qw = quant::quantize_weights(w, total);

    core::OdqConfig cfg;
    cfg.total_bits = total;
    cfg.low_bits = low;
    cfg.threshold = 1e30f;  // predictor-only pass for fidelity
    core::OdqConvResult pred = core::odq_conv(qin, qw, conv->stride(),
                                              conv->pad(), cfg);
    tensor::TensorI32 full =
        quant::conv2d_i8(qin.q, qw.q, conv->stride(), conv->pad());
    double err = 0.0;
    for (std::int64_t i = 0; i < full.numel(); ++i) {
      err += std::abs(static_cast<double>(pred.acc[i] - full[i])) * pred.scale;
    }
    err /= static_cast<double>(full.numel());

    cfg.threshold = 0.2f;
    core::OdqConvResult r =
        core::odq_conv(qin, qw, conv->stride(), conv->pad(), cfg);
    const int hb = total - low;
    std::printf("%-8d %-8d | %-16.5f %-12.3f %-14lld %d\n", total, low, err,
                r.stats.sensitive_fraction(),
                static_cast<long long>(r.stats.executor_macs), hb * hb);
  }
  bench::print_rule();
  std::printf("the paper's 4/2 split balances predictor fidelity (err) "
              "against predictor cost (high-bits^2 per MAC)\n");
  return 0;
}
