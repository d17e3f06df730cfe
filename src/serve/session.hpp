// Inference sessions: the pluggable evaluation unit behind the engine.
//
// An eval forward writes no layer state and the conv executors lock their
// own statistics, so one session may serve every engine worker at once. A
// ModelSession wraps an nn::Model with one of the numeric schemes (ODQ /
// DRQ / static-INT8 / FP32 reference) installed as its ConvExecutor.
//
// Batch-invariance contract: the engine evaluates a coalesced batch by
// running each request through run() independently, one sample at a time.
// The quantized executors calibrate activation scales per-tensor at run
// time, so stacking k requests into one [k,C,H,W] forward would couple a
// request's quantization scale (and ODQ sensitivity decisions) to whatever
// neighbors the batcher happened to coalesce with it — outputs would change
// with arrival timing. Per-sample evaluation makes coalescing a pure
// scheduling decision: outputs are bit-identical to the single-request
// path no matter how requests were batched, the invariant the serve test
// harness hammers (see docs/testing.md).
#pragma once

#include <memory>
#include <string>

#include "core/odq.hpp"
#include "nn/layer.hpp"
#include "nn/model.hpp"
#include "tensor/tensor.hpp"

namespace odq::serve {

class InferenceSession {
 public:
  virtual ~InferenceSession() = default;

  // Evaluate one sample: input [1,C,H,W] (a CHW tensor is promoted).
  // Throws std::invalid_argument on unusable inputs; the engine converts
  // escaped exceptions into per-request error Statuses.
  virtual tensor::Tensor run(const tensor::Tensor& input) = 0;

  // Evaluate under the session's degraded (cheaper) scheme — the load-shed
  // controller's downgrade target. Sessions without one serve the full
  // path, so degradation is always safe to request.
  virtual tensor::Tensor run_degraded(const tensor::Tensor& input) {
    return run(input);
  }

  // Numeric scheme tag ("odq", "drq", "static_int8", "fp32").
  virtual std::string scheme() const = 0;

  // Scheme run_degraded evaluates under; equals scheme() when the session
  // has no cheaper path.
  virtual std::string degraded_scheme() const { return scheme(); }
};

// Build a conv executor by scheme name. "fp32" returns nullptr (the model's
// native float GEMM path); unknown names throw std::invalid_argument. The ODQ
// config parameterizes the "odq" scheme and is ignored by the others.
std::shared_ptr<nn::ConvExecutor> make_conv_executor(
    const std::string& scheme, const core::OdqConfig& odq_cfg = {});

// An nn::Model evaluating under `executor` (nullptr = FP32). Takes
// ownership of the model; assigns conv ids and installs the executor.
// `degraded`, when set, is the cheaper session run_degraded hands its
// requests to (e.g. static-INT8 under an ODQ primary). run() and
// run_degraded() may be called from several threads at once.
class ModelSession : public InferenceSession {
 public:
  ModelSession(nn::Model model, std::shared_ptr<nn::ConvExecutor> executor,
               std::string scheme,
               std::shared_ptr<InferenceSession> degraded = nullptr);

  tensor::Tensor run(const tensor::Tensor& input) override;
  std::string scheme() const override { return scheme_; }

  tensor::Tensor run_degraded(const tensor::Tensor& input) override {
    return degraded_ != nullptr ? degraded_->run(input) : run(input);
  }
  std::string degraded_scheme() const override {
    return degraded_ != nullptr ? degraded_->scheme() : scheme_;
  }

  const std::shared_ptr<nn::ConvExecutor>& executor() const {
    return executor_;
  }

 private:
  nn::Model model_;
  std::shared_ptr<nn::ConvExecutor> executor_;
  std::string scheme_;
  std::shared_ptr<InferenceSession> degraded_;
};

}  // namespace odq::serve
