#include "serve/session.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "drq/drq.hpp"
#include "quant/static_executor.hpp"
#include "tensor/shape.hpp"

namespace odq::serve {

std::shared_ptr<nn::ConvExecutor> make_conv_executor(
    const std::string& scheme, const core::OdqConfig& odq_cfg) {
  if (scheme == "odq") {
    return std::make_shared<core::OdqConvExecutor>(odq_cfg);
  }
  if (scheme == "drq") {
    return std::make_shared<drq::DrqConvExecutor>(drq::DrqConfig{});
  }
  if (scheme == "static_int8") {
    return std::make_shared<quant::StaticQuantConvExecutor>(8);
  }
  if (scheme == "fp32") {
    return nullptr;
  }
  throw std::invalid_argument("make_conv_executor: unknown scheme \"" +
                              scheme + "\" (odq|drq|static_int8|fp32)");
}

ModelSession::ModelSession(nn::Model model,
                           std::shared_ptr<nn::ConvExecutor> executor,
                           std::string scheme,
                           std::shared_ptr<InferenceSession> degraded)
    : model_(std::move(model)),
      executor_(std::move(executor)),
      scheme_(std::move(scheme)),
      degraded_(std::move(degraded)) {
  model_.assign_conv_ids();
  model_.set_conv_executor(executor_);
}

tensor::Tensor ModelSession::run(const tensor::Tensor& input) {
  if (input.shape().rank() == 3) {
    // Promote CHW to [1,C,H,W] — a single-sample request.
    tensor::Tensor batched = input.reshaped(tensor::Shape{
        1, input.shape()[0], input.shape()[1], input.shape()[2]});
    return model_.forward(batched, /*train=*/false);
  }
  if (input.shape().rank() != 4 || input.shape()[0] != 1) {
    throw std::invalid_argument(
        "ModelSession::run: expected one sample ([1,C,H,W] or [C,H,W]), got " +
        input.shape().str());
  }
  return model_.forward(input, /*train=*/false);
}

}  // namespace odq::serve
