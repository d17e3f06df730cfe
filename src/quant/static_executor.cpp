#include "quant/static_executor.hpp"

#include "gemm/gemm.hpp"
#include "obs/fidelity.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace odq::quant {

tensor::Tensor StaticQuantConvExecutor::run(const tensor::Tensor& input,
                                            const tensor::Tensor& weight,
                                            const tensor::Tensor& bias,
                                            std::int64_t stride,
                                            std::int64_t pad,
                                            int conv_id) {
  obs::TraceSpan span("static_quant.conv");
  span.arg("conv_id", conv_id);
  if (obs::metrics_enabled()) {
    static obs::Counter& calls = obs::counter("static_quant.conv.calls");
    calls.increment();
  }
  // Both the fake-quantize passes and the packed float GEMM run tiled on
  // the global thread pool, so this baseline is benchmarked on the same
  // footing as the parallel ODQ and DRQ executors. gemm::conv2d_f32 is
  // bit-identical to the conv2d_direct oracle (tests/gemm pins this).
  tensor::Tensor qin = fake_quantize_activations(input, bits_);
  tensor::Tensor qw =
      fake_quantize_weights(weight, bits_, WeightTransform::kLinear);
  tensor::Tensor out = gemm::conv2d_f32(qin, qw, bias, stride, pad);
  if (obs::fidelity_enabled()) {
    const tensor::Tensor ref =
        tensor::conv2d_direct(input, weight, bias, stride, pad);
    obs::fidelity_record(name(), conv_id, ref.data(), out.data(), out.numel());
  }
  return out;
}

}  // namespace odq::quant
