// Figures 9 and 10: percentage of insensitive output features identified by
// the ODQ sensitivity predictor, per conv layer, for ResNet-56 and
// ResNet-20.
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "core/odq.hpp"

namespace {

void run_model(const char* model_name, const char* figure) {
  using namespace odq;
  nn::Model model = bench::trained_model(model_name, 10);
  model.assign_conv_ids();
  const core::OdqConfig cfg = bench::default_odq_config(model_name);
  auto exec = std::make_shared<core::OdqConvExecutor>(cfg);
  model.set_conv_executor(exec);

  const tensor::Tensor batch = bench::test_batch(10, 8);
  const std::int64_t n = batch.shape()[0];
  (void)model.forward(batch, false);
  model.set_conv_executor(nullptr);

  std::printf("\n%s — %s (threshold %.2f, %lld test images)\n", figure,
              model_name, cfg.threshold, static_cast<long long>(n));
  std::printf("%-6s %-10s %s\n", "layer", "insens(%)", "sensitive(%)");
  odq::bench::print_rule();
  double mean_insens = 0.0;
  const std::size_t layers = exec->num_layers_seen();
  for (std::size_t i = 0; i < layers; ++i) {
    const auto s = exec->layer_stats(static_cast<int>(i));
    const double insens = 100.0 * (1.0 - s.sensitive_fraction());
    mean_insens += insens;
    std::printf("C%-5zu %-10.1f %.1f\n", i + 1, insens,
                100.0 * s.sensitive_fraction());
  }
  if (layers > 0) mean_insens /= static_cast<double>(layers);
  odq::bench::print_rule();
  std::printf("mean insensitive: %.1f%%  (paper: considerable variation "
              "across layers; sensitive 8-50%%)\n",
              mean_insens);
}

}  // namespace

int main() {
  odq::bench::print_header(
      "bench_fig09_10_insensitive",
      "Figures 9 & 10 (% insensitive output features per layer, ODQ)");
  run_model("resnet56", "Figure 9");
  run_model("resnet20", "Figure 10");
  return 0;
}
