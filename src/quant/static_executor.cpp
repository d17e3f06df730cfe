#include "quant/static_executor.hpp"

#include "gemm/row_tiles.hpp"
#include "gemm/sgemm.hpp"
#include "obs/fidelity.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace odq::quant {

// One conv's weights, prepared once: for widths up to 8 the weight scale
// and the widened code panel; for INT16 the fake-quantized float weights.
struct StaticQuantConvExecutor::PreparedWeights {
  float scale = 1.0f;
  gemm::WidePanel panel;
  tensor::Tensor fake;
};

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
  const float clip = checked_input_max(input, "static_quant", conv_id);
  const bool integer = bits_ <= 8;
  const auto prepare = [&](const tensor::Tensor& w) {
    PreparedWeights p;
    if (integer) {
      const QTensor codes = quantize_weights(w, bits_);
      p.scale = codes.scale;
      p.panel = gemm::pack_wide_panel(codes.q);
    } else {
      p.fake = fake_quantize_weights(w, bits_);
    }
    return p;
  };
  const auto prep = prepared_.get(weight, conv_id, prepare);
  tensor::Tensor out;
  if (integer) {
    const QTensor codes = quantize_activations(input, bits_, clip);
    out = gemm::conv_u8s8(codes.q, prep->panel, stride, pad,
                          codes.scale * prep->scale, bias);
  } else {
    // gemm::conv2d_f32 is bit-identical to the conv2d_direct oracle
    // (tests/gemm pins this).
    out = gemm::conv2d_f32(fake_quantize_activations(input, bits_, clip),
                           prep->fake, bias, stride, pad);
  }
  if (obs::fidelity_enabled()) {
    const tensor::Tensor ref =
        tensor::conv2d_direct(input, weight, bias, stride, pad);
    obs::fidelity_record(name(), conv_id, ref.data(), out.data(), out.numel());
  }
  return out;
}

}  // namespace odq::quant
