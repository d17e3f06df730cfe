#include "accel/workload.hpp"

#include <memory>

#include "tensor/ops.hpp"

namespace odq::accel {

using tensor::Tensor;

std::vector<ConvWorkload> extract_workloads(nn::Model& model,
                                            const Tensor& sample,
                                            const core::OdqConfig& odq_cfg,
                                            const drq::DrqConfig& drq_cfg) {
  std::vector<nn::Conv2d*> convs = model.assign_conv_ids();

  // Pass 1: ODQ executor collects masks and sensitive fractions.
  auto odq_exec = std::make_shared<core::OdqConvExecutor>(odq_cfg);
  model.set_conv_executor(odq_exec);
  (void)model.forward(sample, /*train=*/false);

  // Pass 2: DRQ executor collects input-sensitivity fractions, and the
  // recorded conv inputs give each layer's geometry; the model ends on FP32.
  auto drq_exec = std::make_shared<drq::DrqConvExecutor>(drq_cfg);
  const std::vector<Tensor> inputs =
      nn::record_conv_inputs(model, sample, drq_exec);

  const std::int64_t batch = sample.shape()[0];
  std::vector<ConvWorkload> out;
  out.reserve(convs.size());
  for (nn::Conv2d* conv : convs) {
    const int id = conv->conv_id();
    ConvWorkload wl;
    wl.name = conv->name();
    wl.out_channels = conv->out_channels();

    const Tensor& input = inputs[static_cast<std::size_t>(id)];
    const std::int64_t ih = input.shape()[2], iw = input.shape()[3];
    const std::int64_t oh =
        tensor::conv_out_dim(ih, conv->kernel(), conv->stride(), conv->pad());
    const std::int64_t ow =
        tensor::conv_out_dim(iw, conv->kernel(), conv->stride(), conv->pad());
    wl.out_elems = conv->out_channels() * oh * ow;
    wl.macs_per_out = conv->in_channels() * conv->kernel() * conv->kernel();
    wl.total_macs = wl.out_elems * wl.macs_per_out;
    wl.input_elems = conv->in_channels() * ih * iw;
    wl.weight_elems = conv->weight().value.numel();

    wl.odq_sensitive_fraction =
        odq_exec->layer_stats(id).sensitive_fraction();
    wl.drq_sensitive_input_fraction =
        drq_exec->layer_stats(id).sensitive_input_fraction;
    wl.sensitive_per_channel = odq_exec->last_sensitive_per_channel(id);
    // Normalize channel counts to one image.
    for (auto& c : wl.sensitive_per_channel) c /= batch;
    out.push_back(std::move(wl));
  }
  return out;
}

}  // namespace odq::accel
