// perfbench: the outside-in time ledger (conv decorators and the traced
// layer-by-layer forward) and the conv oracles.
#include <algorithm>

#include "bench.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/blocks.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

using odq::nn::Conv2d;
using odq::nn::Layer;

Tensor TimedConv::run(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, std::int64_t stride,
                      std::int64_t pad, int conv_id) {
  const auto t0 = Clock::now();
  Tensor out = inner_->run(input, weight, bias, stride, pad, conv_id);
  const double ms = ms_since(t0);
  // Bytes of the digit-split operands (HBS + LBS planes, one byte per
  // code): im2col rows of the input plus the filter panels.
  const auto& is = input.shape();
  const auto& ws = weight.shape();
  const std::int64_t oh = odq::tensor::conv_out_dim(is[2], ws[2], stride, pad);
  const std::int64_t ow = odq::tensor::conv_out_dim(is[3], ws[3], stride, pad);
  const double depth = static_cast<double>(ws[1] * ws[2] * ws[3]);
  const double bytes =
      2.0 * depth * static_cast<double>(is[0] * oh * ow + ws[0]);
  conv_ms_ += ms;
  packed_bytes_ += bytes;
  return out;
}

Tensor DirectConv::run(const Tensor& input, const Tensor& weight,
                       const Tensor& bias, std::int64_t stride,
                       std::int64_t pad, int /*conv_id*/) {
  return odq::tensor::conv2d_direct(input, weight, bias, stride, pad);
}

namespace {
odq::core::OdqConfig serial(odq::core::OdqConfig cfg) {
  cfg.num_threads = 1;
  return cfg;
}
}  // namespace

OdqOracleConv::OdqOracleConv(std::shared_ptr<odq::core::OdqConvExecutor> inner)
    : inner_(std::move(inner)), reference_(serial(inner_->config())) {}

Tensor OdqOracleConv::run(const Tensor& input, const Tensor& weight,
                          const Tensor& bias, std::int64_t stride,
                          std::int64_t pad, int conv_id) {
  Tensor out = inner_->run(input, weight, bias, stride, pad, conv_id);
  const Tensor ref = reference_.run(input, weight, bias, stride, pad, conv_id);
  ++calls;
  if (!bitwise_equal(out, ref)) ++mismatches;
  return out;
}

void Ledger::merge(const Ledger& o) {
  forwards += o.forwards;
  forward_ms += o.forward_ms;
  conv_ms += o.conv_ms;
  non_conv_ms += o.non_conv_ms;
  unattributed_ms += o.unattributed_ms;
  pack_ms += o.pack_ms;
  gemm_ms += o.gemm_ms;
  epilogue_ms += o.epilogue_ms;
  odq_conv_ms += o.odq_conv_ms;
  predictor_macs += o.predictor_macs;
  executor_macs += o.executor_macs;
  packed_bytes += o.packed_bytes;
  for (const auto& [k, v] : o.kind_ms) kind_ms[k] += v;
  forward_samples_ms.insert(forward_samples_ms.end(),
                            o.forward_samples_ms.begin(),
                            o.forward_samples_ms.end());
}

void Ledger::report(Report& r) const {
  const double n = static_cast<double>(std::max<std::int64_t>(forwards, 1));
  r.set("nn.forward_ms", forward_ms / n, "ms");
  r.set("nn.forward_ms_p99", quantile(forward_samples_ms, 0.99), "ms");
  r.set("nn.conv_ms", conv_ms / n, "ms");
  r.set("nn.non_conv_ms", non_conv_ms / n, "ms");
  r.set("nn.unattributed_ms", unattributed_ms / n, "ms");
  r.set("core.pack_ms", pack_ms / n, "ms");
  r.set("core.gemm_ms", gemm_ms / n, "ms");
  r.set("core.sparse_epilogue_ms", epilogue_ms / n, "ms");
  r.set("core.unattributed_ms",
        (odq_conv_ms - pack_ms - gemm_ms - epilogue_ms) / n, "ms");
  // MAC rates: predictor MACs over GEMM time, executor MACs over the
  // sparse epilogue; GMAC/s = MACs / (ms * 1e6).
  r.set("gemm.predictor_gmacs_per_s", predictor_macs / (gemm_ms * 1e6),
        "GMAC/s");
  r.set("gemm.executor_gmacs_per_s", executor_macs / (epilogue_ms * 1e6),
        "GMAC/s");
  r.set("gemm.pack_gbytes_per_s", packed_bytes / (pack_ms * 1e6), "GB/s");
  std::string kinds;
  for (const auto& [kind, ms] : kind_ms) {
    kinds += (kinds.empty() ? "\"" : ", \"") + kind +
             "\": " + std::to_string(ms / n);
  }
  info_line("layer_kind_ms", "{" + kinds + "}");
}

namespace {

std::string kind_of(Layer& l) {
  if (dynamic_cast<Conv2d*>(&l)) return "conv";
  if (dynamic_cast<odq::nn::ResidualBlock*>(&l)) return "resblock";
  if (dynamic_cast<odq::nn::BatchNorm2d*>(&l)) return "batchnorm";
  if (dynamic_cast<odq::nn::ReLU*>(&l)) return "relu";
  if (dynamic_cast<odq::nn::Linear*>(&l)) return "linear";
  if (dynamic_cast<odq::nn::MaxPool2d*>(&l) ||
      dynamic_cast<odq::nn::AvgPool2d*>(&l) ||
      dynamic_cast<odq::nn::GlobalAvgPool*>(&l)) {
    return "pool";
  }
  return "other";
}

bool has_native_conv(Layer& l) {
  bool native = false;
  l.visit_convs([&](Conv2d& c) { native |= c.executor() == nullptr; });
  return native;
}

}  // namespace

Tracer::Tracer(odq::nn::Model& model,
               std::shared_ptr<odq::nn::ConvExecutor> exec,
               odq::core::OdqConvExecutor* odq)
    : model_(model), exec_(std::move(exec)), odq_(odq) {
  if (exec_) timed_ = std::make_shared<TimedConv>(exec_);
  attach();
}

void Tracer::attach() { model_.set_conv_executor(timed_); }
void Tracer::detach() { model_.set_conv_executor(exec_); }

Tensor Tracer::forward(const Tensor& x, bool train) {
  if (odq_) odq_->reset_stats();
  const double conv0 = timed_ ? timed_->conv_ms() : 0.0;
  const double bytes0 = timed_ ? timed_->packed_bytes() : 0.0;
  double layers_ms = 0.0;
  const auto t_fwd = Clock::now();
  Tensor cur = x;
  for (std::size_t i = 0; i < model_.num_layers(); ++i) {
    Layer& layer = model_.layer(i);
    const double c0 = timed_ ? timed_->conv_ms() : 0.0;
    const auto t0 = Clock::now();
    cur = layer.forward(cur, train);
    const double ms = ms_since(t0);
    const double conv = (timed_ ? timed_->conv_ms() : 0.0) - c0;
    const std::string kind = kind_of(layer);
    layers_ms += ms;
    ledger.kind_ms[kind] += ms;
    if (kind == "conv" && !timed_) {
      ledger.conv_ms += ms;  // native FP32 conv at top level
    } else if (has_native_conv(layer)) {
      // Native FP32 convs inside a composite block: no executor to wrap,
      // so the block's time has no owner.
      ledger.conv_ms += conv;
      ledger.unattributed_ms += ms - conv;
    } else {
      ledger.conv_ms += conv;
      ledger.non_conv_ms += ms - conv;
    }
  }
  const double fwd_ms = ms_since(t_fwd);
  ledger.forward_ms += fwd_ms;
  ledger.forward_samples_ms.push_back(fwd_ms);
  ledger.unattributed_ms += fwd_ms - layers_ms;
  ++ledger.forwards;
  if (odq_) {
    const odq::core::OdqLayerStats s = odq_->total_stats();
    ledger.pack_ms += s.pack_seconds * 1e3;
    ledger.gemm_ms += s.gemm_seconds * 1e3;
    ledger.epilogue_ms += s.sparse_epilogue_seconds * 1e3;
    ledger.predictor_macs += static_cast<double>(s.predictor_macs);
    ledger.executor_macs += static_cast<double>(s.executor_macs);
    ledger.odq_conv_ms += timed_->conv_ms() - conv0;
    ledger.packed_bytes += timed_->packed_bytes() - bytes0;
  }
  return cur;
}

void check_odq(odq::nn::Model& model,
               const std::shared_ptr<odq::core::OdqConvExecutor>& exec,
               const std::vector<Sample>& samples, Report& r,
               const std::string& what) {
  auto oracle = std::make_shared<OdqOracleConv>(exec);
  model.set_conv_executor(oracle);
  bool same = true;
  for (const Sample& s : samples) {
    same &= bitwise_equal(model.forward(s.x, false), s.y);
  }
  model.set_conv_executor(exec);
  r.check(oracle->calls > 0 && oracle->mismatches == 0,
          what + ": " + std::to_string(oracle->mismatches) + " of " +
              std::to_string(oracle->calls) +
              " ODQ conv calls differ from odq_conv_reference");
  r.check(same, what + ": ODQ output not reproduced on the oracle pass");
}

void tracing_overhead(odq::nn::Model& model, Tracer& tracer, const Tensor& x,
                      bool train, int pairs, Report& r) {
  const Ledger keep = tracer.ledger;
  std::vector<double> plain, traced;
  for (int i = 0; i < pairs; ++i) {
    tracer.detach();
    auto t0 = Clock::now();
    (void)model.forward(x, train);
    plain.push_back(ms_since(t0));
    tracer.attach();
    t0 = Clock::now();
    (void)tracer.forward(x, train);
    traced.push_back(ms_since(t0));
  }
  tracer.ledger = keep;
  r.set("nn.tracing_overhead_ms", quantile(traced, 0.5) - quantile(plain, 0.5),
        "ms");
}

void odq_counts(odq::nn::Model& model, odq::core::OdqConvExecutor& exec,
                std::uint64_t seed, std::int64_t batch, Report& r) {
  constexpr int kForwards = 4;
  exec.reset_stats();
  for (int i = 0; i < kForwards; ++i) {
    (void)model.forward(
        seeded_batch(seed, 4, static_cast<std::uint64_t>(i * batch), batch),
        false);
  }
  const odq::core::OdqLayerStats s = exec.total_stats();
  int fallback_layers = 0;
  for (Conv2d* c : model.convs()) {
    fallback_layers += exec.fallback_count(c->conv_id()) > 0 ? 1 : 0;
  }
  r.set("core.sensitive_fraction", s.sensitive_fraction(), "ratio");
  r.set("core.fallback_layers", fallback_layers, "count");
  r.set("gemm.predictor_macs",
        static_cast<double>(s.predictor_macs) / kForwards, "count");
  r.set("gemm.executor_macs", static_cast<double>(s.executor_macs) / kForwards,
        "count");
  exec.reset_stats();
}

}  // namespace perfbench
