// google-benchmark micro kernels: the primitive operations whose relative
// costs drive the accelerator model — float conv, integer conv, bit-split,
// ODQ predictor-only, full ODQ, DRQ mixed conv, quantization, the float
// products of a conv's forward and backward, the ODQ executor's steady
// state on the ResNet-20 conv shapes, and the non-conv layers of a
// training step and an eval forward.
#include <benchmark/benchmark.h>

#include "core/odq.hpp"
#include "drq/drq.hpp"
#include "gemm/sgemm.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/pooling.hpp"
#include "quant/bitsplit.hpp"
#include "quant/quantizer.hpp"
#include "quant/static_executor.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace odq;
using tensor::Shape;
using tensor::Tensor;

Tensor random_acts(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.uniform_f(0, 1);
  return t;
}

Tensor random_weights(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.normal_f(0, 0.3f);
  return t;
}

void BM_ConvFloatDirect(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  Tensor x = random_acts(Shape{1, c, 16, 16}, 1);
  Tensor w = random_weights(Shape{c, c, 3, 3}, 2);
  Tensor bias;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::conv2d_direct(x, w, bias, 1, 1));
  }
  state.SetItemsProcessed(state.iterations() * 16 * 16 * c * c * 9);
}
BENCHMARK(BM_ConvFloatDirect)->Arg(4)->Arg(8)->Arg(16);

void BM_ConvInt8(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  quant::QTensor x = quant::quantize_activations(random_acts(Shape{1, c, 16, 16}, 3), 4);
  quant::QTensor w = quant::quantize_weights(random_weights(Shape{c, c, 3, 3}, 4), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::conv2d_i8(x.q, w.q, 1, 1));
  }
  state.SetItemsProcessed(state.iterations() * 16 * 16 * c * c * 9);
}
BENCHMARK(BM_ConvInt8)->Arg(4)->Arg(8)->Arg(16);

void BM_BitSplit(benchmark::State& state) {
  quant::QTensor w = quant::quantize_weights(
      random_weights(Shape{static_cast<std::int64_t>(state.range(0))}, 5), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::split(w));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BitSplit)->Arg(1024)->Arg(65536);

void BM_OdqPredictorOnly(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  Tensor x = random_acts(Shape{1, c, 16, 16}, 6);
  Tensor w = random_weights(Shape{c, c, 3, 3}, 7);
  Tensor bias;
  core::OdqConfig cfg;
  cfg.threshold = 1e30f;  // nothing sensitive: predictor cost only
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::odq_conv_float(x, w, bias, 1, 1, cfg));
  }
  state.SetItemsProcessed(state.iterations() * 16 * 16 * c * c * 9);
}
BENCHMARK(BM_OdqPredictorOnly)->Arg(4)->Arg(8)->Arg(16);

void BM_OdqFull(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  Tensor x = random_acts(Shape{1, c, 16, 16}, 8);
  Tensor w = random_weights(Shape{c, c, 3, 3}, 9);
  Tensor bias;
  core::OdqConfig cfg;
  cfg.threshold = 0.0f;  // everything sensitive: worst-case executor cost
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::odq_conv_float(x, w, bias, 1, 1, cfg));
  }
  state.SetItemsProcessed(state.iterations() * 16 * 16 * c * c * 9);
}
BENCHMARK(BM_OdqFull)->Arg(4)->Arg(8)->Arg(16);

// The four ResNet-20 (width 8) conv shapes at batch 1: the stem, then a 3x3
// conv of stage 1, 2 and 3 (8/8/16/32 filters over 3/8/16/32 channels at
// 32/32/16/8 pixels square).
struct Resnet20Conv {
  std::int64_t in, out, size;
};
constexpr Resnet20Conv kResnet20Convs[] = {
    {3, 8, 32}, {8, 8, 32}, {16, 16, 16}, {32, 32, 8}};

// One of those convs through `exec`, the production path: weights are
// prepared once, so each call times only the per-input work.
void time_executor_conv(benchmark::State& state, nn::ConvExecutor& exec) {
  const Resnet20Conv& k =
      kResnet20Convs[static_cast<std::size_t>(state.range(0))];
  Tensor x = random_acts(Shape{1, k.in, k.size, k.size}, 20);
  Tensor w = random_weights(Shape{k.out, k.in, 3, 3}, 21);
  Tensor bias;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.run(x, w, bias, 1, 1, /*conv_id=*/0));
  }
  state.SetItemsProcessed(state.iterations() * k.size * k.size * k.out *
                          k.in * 9);
}

// ODQ (scan, quantize, fused tiles, dequantize). range(0) picks the shape,
// range(1) the threshold: 0 makes every output sensitive, 1 none (1e30).
void BM_OdqExecutorConv(benchmark::State& state) {
  core::OdqConfig cfg;
  cfg.threshold = state.range(1) == 0 ? 0.0f : 1e30f;
  core::OdqConvExecutor exec(cfg);
  time_executor_conv(state, exec);
}
BENCHMARK(BM_OdqExecutorConv)->ArgsProduct({{0, 1, 2, 3}, {0, 1}});

// Static INT8 (scan, u8 quantize, one exact tile pass with the dequantize
// fused) on the same shapes: the serve path's degraded scheme.
void BM_StaticInt8Conv(benchmark::State& state) {
  quant::StaticQuantConvExecutor exec(8);
  time_executor_conv(state, exec);
}
BENCHMARK(BM_StaticInt8Conv)->DenseRange(0, 3);

void BM_DrqMixedConv(benchmark::State& state) {
  const std::int64_t c = state.range(0);
  Tensor x = random_acts(Shape{1, c, 16, 16}, 10);
  Tensor w = random_weights(Shape{c, c, 3, 3}, 11);
  Tensor bias;
  drq::DrqConfig cfg;
  cfg.input_threshold = drq::calibrate_input_threshold(x, cfg, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(drq::drq_conv(x, w, bias, 1, 1, cfg));
  }
  state.SetItemsProcessed(state.iterations() * 16 * 16 * c * c * 9);
}
BENCHMARK(BM_DrqMixedConv)->Arg(4)->Arg(8);

void BM_QuantizeActivations(benchmark::State& state) {
  Tensor x = random_acts(Shape{state.range(0)}, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(quant::quantize_activations(x, 4));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_QuantizeActivations)->Arg(65536);

// The three float products of a ResNet-20 (width 8) 3x3 conv at batch 8,
// each reading the image through the conv-window view as Conv2d does;
// range(0) is the stage: 8/16/32 channels at 32/16/8 pixels square.
struct ConvGemm {
  std::int64_t n = 8, c, hw, ckk, ohw;
  explicit ConvGemm(std::int64_t stage)
      : c(8 << stage), hw(32 >> stage), ckk(c * 9), ohw(hw * hw) {}
  std::int64_t macs() const { return n * c * ckk * ohw; }
  gemm::ConvWindows view(const Tensor& x, bool transposed) const {
    return {x.data(), c, hw, hw, 3, 3, 1, 1, transposed};
  }
};

// Forward: out(b) = W · cols(b).
void BM_GemmConvForward(benchmark::State& state) {
  const ConvGemm g(state.range(0));
  Tensor w = random_weights(Shape{g.c, g.ckk}, 14);
  Tensor x = random_acts(Shape{g.n, g.c, g.hw, g.hw}, 15);
  Tensor out(Shape{g.n, g.c, g.ohw});
  for (auto _ : state) {
    gemm::sgemm({.m = g.c, .n = g.ohw, .k = g.ckk,
                 .a = {w.data(), g.ckk, 1}, .b_conv = g.view(x, false),
                 .c = out.data(), .ldc = g.ohw, .batches = g.n,
                 .b_batch = g.c * g.ohw, .c_batch = g.c * g.ohw});
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * g.macs());
}
BENCHMARK(BM_GemmConvForward)->DenseRange(0, 2);

// Weight gradient: dW = sum_b gradOut(b) · cols(b)^T, reduced over the batch.
void BM_GemmConvWeightGrad(benchmark::State& state) {
  const ConvGemm g(state.range(0));
  Tensor go = random_weights(Shape{g.n, g.c, g.ohw}, 16);
  Tensor x = random_acts(Shape{g.n, g.c, g.hw, g.hw}, 17);
  Tensor dw(Shape{g.c, g.ckk});
  for (auto _ : state) {
    gemm::sgemm({.m = g.c, .n = g.ckk, .k = g.ohw,
                 .a = {go.data(), g.ohw, 1}, .b_conv = g.view(x, true),
                 .c = dw.data(), .ldc = g.ckk, .batches = g.n,
                 .a_batch = g.c * g.ohw, .b_batch = g.c * g.ohw,
                 .reduce = true});
    benchmark::DoNotOptimize(dw.data());
  }
  state.SetItemsProcessed(state.iterations() * g.macs());
}
BENCHMARK(BM_GemmConvWeightGrad)->DenseRange(0, 2);

// Input gradient: dX = col2im(W^T · gradOut(b)), no column matrix.
void BM_GemmConvInputGrad(benchmark::State& state) {
  const ConvGemm g(state.range(0));
  Tensor w = random_weights(Shape{g.c, g.c, 3, 3}, 18);
  Tensor go = random_weights(Shape{g.n, g.c, g.hw, g.hw}, 19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gemm::conv2d_input_grad(go, w, g.hw, g.hw, 1, 1));
  }
  state.SetItemsProcessed(state.iterations() * g.macs());
}
BENCHMARK(BM_GemmConvInputGrad)->DenseRange(0, 2);

// The non-conv layers on a width-8 activation at batch 8; range(0) is the
// stage: 8/16/32 channels at 32/16/8 pixels square. Stage 0 is the first
// stage of both ResNet-20 and VGG-16 (8 x 8 x 32 x 32); stages 1 and 2 are
// ResNet-20's later stages and VGG-16's second and third.
Shape layer_shape(std::int64_t stage) {
  return Shape{8, 8 << stage, 32 >> stage, 32 >> stage};
}

void BM_BatchNormTrainForward(benchmark::State& state) {
  const Tensor x = random_weights(layer_shape(state.range(0)), 20);
  nn::BatchNorm2d bn(x.shape()[1]);
  for (auto _ : state) benchmark::DoNotOptimize(bn.forward(x, true));
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_BatchNormTrainForward)->DenseRange(0, 2);

void BM_BatchNormTrainBackward(benchmark::State& state) {
  const Tensor x = random_weights(layer_shape(state.range(0)), 21);
  const Tensor g = random_weights(x.shape(), 22);
  nn::BatchNorm2d bn(x.shape()[1]);
  (void)bn.forward(x, true);
  for (auto _ : state) benchmark::DoNotOptimize(bn.backward(g));
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_BatchNormTrainBackward)->DenseRange(0, 2);

void BM_BatchNormEval(benchmark::State& state) {
  const Tensor x = random_weights(layer_shape(state.range(0)), 23);
  nn::BatchNorm2d bn(x.shape()[1]);
  for (auto _ : state) benchmark::DoNotOptimize(bn.forward(x, false));
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_BatchNormEval)->DenseRange(0, 2);

// Normal inputs: half the ReLU mask is set, in no pattern a branch
// predictor could learn.
void BM_ReluTrainForward(benchmark::State& state) {
  const Tensor x = random_weights(layer_shape(state.range(0)), 24);
  nn::ReLU relu;
  for (auto _ : state) benchmark::DoNotOptimize(relu.forward(x, true));
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_ReluTrainForward)->DenseRange(0, 2);

void BM_ReluTrainBackward(benchmark::State& state) {
  const Tensor x = random_weights(layer_shape(state.range(0)), 25);
  const Tensor g = random_weights(x.shape(), 26);
  nn::ReLU relu;
  (void)relu.forward(x, true);
  for (auto _ : state) benchmark::DoNotOptimize(relu.backward(g));
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_ReluTrainBackward)->DenseRange(0, 2);

void BM_ReluEval(benchmark::State& state) {
  const Tensor x = random_weights(layer_shape(state.range(0)), 27);
  nn::ReLU relu;
  for (auto _ : state) benchmark::DoNotOptimize(relu.forward(x, false));
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_ReluEval)->DenseRange(0, 2);

void BM_MaxPool2dEval(benchmark::State& state) {
  const Tensor x = random_weights(layer_shape(state.range(0)), 28);
  nn::MaxPool2d pool(2);
  for (auto _ : state) benchmark::DoNotOptimize(pool.forward(x, false));
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_MaxPool2dEval)->DenseRange(0, 2);

}  // namespace

BENCHMARK_MAIN();
