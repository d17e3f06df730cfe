#include "core/odq.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "gemm/gemm.hpp"
#include "gemm/packed.hpp"
#include "gemm/sparse_epilogue.hpp"
#include "nn/epilogue.hpp"
#include "obs/fidelity.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "quant/static_executor.hpp"
#include "tensor/ops.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace odq::core {

using quant::QTensor;
using tensor::Shape;
using tensor::Tensor;
using tensor::TensorI32;
using tensor::TensorI8;
using tensor::TensorU8;

namespace {

// Quantize activations per the config: max calibration, or clipping at the
// configured quantile of the (non-negative) activation distribution. A
// caller that already scanned the input passes its max (> 0) as
// `input_max`, which is exactly the clip quantize_activations would compute
// for itself, so the codes are unchanged and one pass is saved.
QTensor quantize_input(const Tensor& input, const OdqConfig& cfg,
                       float input_max = -1.0f) {
  ODQ_TRACE_SPAN("odq.quantize");
  float clip =
      quant::activation_clip_from_percentile(input, cfg.act_clip_percentile);
  if (clip <= 0.0f) clip = input_max;
  return quant::quantize_activations(input, cfg.total_bits, clip);
}

QTensor quantize_weight(const Tensor& weight, const OdqConfig& cfg) {
  ODQ_TRACE_SPAN("odq.quantize");
  return quant::quantize_weights(weight, cfg.total_bits, cfg.weight_transform);
}

// Per-conv pipeline counters (see docs/observability.md). Recorded once per
// odq_conv call — a handful of relaxed ops, never inside the MAC loops.
void record_conv_metrics(const OdqLayerStats& s) {
  if (!obs::metrics_enabled()) return;
  static obs::Counter& calls = obs::counter("odq.conv.calls");
  static obs::Counter& outputs = obs::counter("odq.conv.outputs");
  static obs::Counter& sensitive = obs::counter("odq.conv.sensitive");
  static obs::Counter& pred_macs = obs::counter("odq.conv.predictor_macs");
  static obs::Counter& exec_macs = obs::counter("odq.conv.executor_macs");
  static obs::Series& frac = obs::series("odq.conv.sensitive_fraction");
  calls.increment();
  outputs.add(s.outputs);
  sensitive.add(s.sensitive);
  pred_macs.add(s.predictor_macs);
  exec_macs.add(s.executor_macs);
  frac.record(obs::basis_points(s.sensitive_fraction()));
}

// Dequantize integer accumulators and add the per-channel bias through the
// shared conv epilogue helper (nn/epilogue.hpp) — the bias-only case there
// is the exact fused expression this file used to hand-roll.
Tensor dequantize_with_bias(const TensorI32& acc, float scale,
                            const Tensor& bias) {
  ODQ_TRACE_SPAN("odq.epilogue");
  nn::ConvEpilogue e;
  e.bias = bias;
  return nn::dequantize_epilogue(acc, scale, e);
}

// Fidelity attribution for one finished ODQ conv (obs/fidelity.hpp): runs
// the FP32 reference conv and dequantizes the predictor-only accumulators,
// then records scheme/predictor/mask-side errors plus the |predictor|
// magnitude histogram. Only ever called when fidelity is enabled — the
// reference conv makes this path deliberately expensive.
void record_odq_fidelity(const Tensor& input, const Tensor& weight,
                         const Tensor& bias, std::int64_t stride,
                         std::int64_t pad, const OdqConfig& cfg,
                         const OdqConvResult& r, const Tensor& out, int layer) {
  ODQ_TRACE_SPAN("odq.fidelity");
  const Tensor ref = tensor::conv2d_direct(input, weight, bias, stride, pad);
  const Tensor pred_out = dequantize_with_bias(r.predictor_acc, r.scale, bias);
  std::vector<float> pred_mag(static_cast<std::size_t>(out.numel()));
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    pred_mag[static_cast<std::size_t>(i)] =
        std::abs(static_cast<float>(r.predictor_acc[i]) * r.scale);
  }
  obs::fidelity_record_odq("odq", layer, cfg.threshold, ref.data(), out.data(),
                           pred_out.data(), pred_mag.data(), r.mask.data(),
                           out.numel());
}

// Returns nullptr when the layer's runtime statistics support the dynamic
// scheme, else a short reason string. ODQ's sensitivity threshold compares
// |dequantized predictor| against cfg.threshold — a non-finite threshold
// never selects anything, and a collapsed or non-finite activation range
// makes the predictor magnitudes meaningless. One branch-free linear scan
// of the input: each lane keeps a running max (NaN never wins the compare)
// and a poison sum of v - v, which is 0 for finite v and NaN for NaN or
// ±inf; the verdict is taken once, after the loop. On success `amax` holds
// the input max, which quantize_input reuses as its clip.
const char* odq_degenerate_reason(const Tensor& input, float threshold,
                                  float& amax) {
  if (!std::isfinite(threshold)) return "non-finite sensitivity threshold";
  constexpr std::int64_t kLanes = 8;
  float mx[kLanes] = {};
  float poison[kLanes] = {};
  const float* p = input.data();
  const std::int64_t n = input.numel();
  std::int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (std::int64_t l = 0; l < kLanes; ++l) {
      const float v = p[i + l];
      mx[l] = v > mx[l] ? v : mx[l];
      poison[l] += v - v;
    }
  }
  for (std::int64_t l = 0; i < n; ++i, ++l) {
    const float v = p[i];
    mx[l] = v > mx[l] ? v : mx[l];
    poison[l] += v - v;
  }
  amax = 0.0f;
  float bad = 0.0f;
  for (std::int64_t l = 0; l < kLanes; ++l) {
    amax = mx[l] > amax ? mx[l] : amax;
    bad += poison[l];
  }
  if (bad != bad) return "non-finite activation";
  if (amax <= 0.0f) return "collapsed activation range (no positive values)";
  return nullptr;
}

void check_bits(const QTensor& input, const QTensor& weight,
                const OdqConfig& cfg) {
  if (input.bits != cfg.total_bits || weight.bits != cfg.total_bits) {
    throw std::invalid_argument("odq_conv: tensors must be total_bits wide");
  }
}

}  // namespace

OdqConvResult odq_conv_reference(const QTensor& input, const QTensor& weight,
                                 std::int64_t stride, std::int64_t pad,
                                 const OdqConfig& cfg) {
  check_bits(input, weight, cfg);
  const int lb = cfg.low_bits;

  // Step 2: bit split.
  quant::SplitTensor in_split, w_split;
  {
    ODQ_TRACE_SPAN("odq.bitsplit");
    in_split = quant::split(input, lb);
    w_split = quant::split(weight, lb);
  }

  // Step 3: sensitivity prediction — I_HBS x W_HBS shifted by 2*low_bits.
  const Shape& is = input.q.shape();
  const Shape& ws = weight.q.shape();
  const std::int64_t n = is[0];
  const std::int64_t c = is[1], h = is[2], w = is[3];
  const std::int64_t oc = ws[0], kh = ws[2], kw = ws[3];
  const std::int64_t oh = tensor::conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = tensor::conv_out_dim(w, kw, stride, pad);

  OdqConvResult res;
  res.scale = input.scale * weight.scale;
  {
    ODQ_TRACE_SPAN("odq.predictor");
    // Direct (non-packed) integer conv: the reference path must stay an
    // independent oracle for the packed-GEMM pipeline, so it shares no code
    // with it.
    res.predictor_acc =
        quant::conv2d_i8(in_split.high, w_split.high, stride, pad);
    for (std::int64_t i = 0; i < res.predictor_acc.numel(); ++i) {
      res.predictor_acc[i] <<= 2 * lb;
    }
  }

  // Threshold -> bit mask, plus the compacted per-tile index lists the
  // packed path emits (ascending by construction here too).
  res.mask = TensorU8(Shape{n, oc, oh, ow});
  res.sensitive_per_channel.assign(static_cast<std::size_t>(oc), 0);
  res.sensitive_lists.batches = n;
  res.sensitive_lists.channels = oc;
  res.sensitive_lists.rows = oh * ow;
  res.sensitive_lists.lists.assign(static_cast<std::size_t>(n * oc), {});
  std::int64_t sensitive = 0;
  {
    ODQ_TRACE_SPAN("odq.mask");
    for (std::int64_t b = 0; b < n; ++b) {
      for (std::int64_t ch = 0; ch < oc; ++ch) {
        std::vector<std::int32_t>& list =
            res.sensitive_lists.lists[static_cast<std::size_t>(b * oc + ch)];
        for (std::int64_t i = 0; i < oh * ow; ++i) {
          const std::int64_t idx = ((b * oc + ch) * oh * ow) + i;
          const float mag =
              std::abs(static_cast<float>(res.predictor_acc[idx]) * res.scale);
          const bool sens = mag >= cfg.threshold;
          res.mask[idx] = sens ? 1 : 0;
          if (sens) {
            ++sensitive;
            ++res.sensitive_per_channel[static_cast<std::size_t>(ch)];
            list.push_back(static_cast<std::int32_t>(i));
          }
        }
      }
    }
  }

  // Step 4: result generation — remaining three terms, sensitive outputs
  // only. Computed per masked output, mirroring the executor PE's work.
  obs::TraceSpan result_span("odq.result_gen");
  result_span.arg("sensitive", sensitive);
  res.acc = res.predictor_acc;
  const std::int8_t* ih = in_split.high.data();
  const std::int8_t* il = in_split.low.data();
  const std::int8_t* wh = w_split.high.data();
  const std::int8_t* wl = w_split.low.data();
  std::int64_t exec_macs = 0;

  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t och = 0; och < oc; ++och) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const std::int64_t oidx = ((b * oc + och) * oh + oy) * ow + ox;
          if (res.mask[oidx] == 0) continue;
          std::int32_t cross = 0;  // ih*wl + il*wh
          std::int32_t low = 0;    // il*wl
          for (std::int64_t ic = 0; ic < c; ++ic) {
            for (std::int64_t ki = 0; ki < kh; ++ki) {
              const std::int64_t iy = oy * stride - pad + ki;
              if (iy < 0 || iy >= h) continue;
              const std::int64_t irow = ((b * c + ic) * h + iy) * w;
              const std::int64_t wrow = ((och * c + ic) * kh + ki) * kw;
              for (std::int64_t kj = 0; kj < kw; ++kj) {
                const std::int64_t ix = ox * stride - pad + kj;
                if (ix < 0 || ix >= w) continue;
                const std::int32_t a_h = ih[irow + ix];
                const std::int32_t a_l = il[irow + ix];
                const std::int32_t b_h = wh[wrow + kj];
                const std::int32_t b_l = wl[wrow + kj];
                cross += a_h * b_l + a_l * b_h;
                low += a_l * b_l;
                ++exec_macs;
              }
            }
          }
          res.acc[oidx] += (cross << lb) + low;
        }
      }
    }
  }

  res.stats.calls = 1;
  res.stats.outputs = n * oc * oh * ow;
  res.stats.sensitive = sensitive;
  res.stats.predictor_macs = res.stats.outputs * c * kh * kw;
  res.stats.executor_macs = exec_macs;
  record_conv_metrics(res.stats);
  return res;
}

namespace {

// The packed pipeline odq_conv and OdqConvExecutor::run share: packs the
// activations, then runs the predictor GEMM and the sparse epilogue against
// `wts`, the filter panels the caller packed from `weight`'s codes.
OdqConvResult odq_conv_packed(const QTensor& input, const QTensor& weight,
                              const gemm::PackedSplitWeights& wts,
                              std::int64_t stride, std::int64_t pad,
                              const OdqConfig& cfg) {
  check_bits(input, weight, cfg);
  const int lb = cfg.low_bits;

  const Shape& is = input.q.shape();
  const Shape& ws = weight.q.shape();
  const std::int64_t n = is[0];
  const std::int64_t c = is[1], h = is[2], w = is[3];
  const std::int64_t oc = ws[0], kh = ws[2], kw = ws[3];
  const std::int64_t oh = tensor::conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = tensor::conv_out_dim(w, kw, stride, pad);

  OdqConvResult res;
  res.scale = input.scale * weight.scale;

  // Step 2 fused with packing: the activation codes are digit-split (HBS/
  // LBS) once and copied into the cache-blocked im2col rows the whole
  // pipeline shares (gemm/packed.hpp).
  gemm::PackedSplitIm2col cols;
  {
    ODQ_TRACE_SPAN("odq.pack");
    util::WallTimer timer;
    cols = gemm::pack_im2col_split(input.q, lb, kh, kw, stride, pad);
    res.stats.pack_seconds = timer.seconds();
  }

  // Step 3: sensitivity prediction — tiled INT-GEMM over the high digit
  // planes with the 2*N_LBS shift folded into the store.
  {
    ODQ_TRACE_SPAN("odq.gemm");
    util::WallTimer timer;
    res.predictor_acc = gemm::gemm_conv_i8(cols.high, wts.high, 2 * lb);
    res.stats.gemm_seconds = timer.seconds();
  }

  // Steps 3b+4: threshold mask, sensitive-index compaction, and Eq. (3)
  // result generation over the compacted lists only (gemm/sparse_epilogue).
  gemm::SparseEpilogueStats es;
  {
    obs::TraceSpan span("odq.sparse_epilogue");
    util::WallTimer timer;
    res.acc = res.predictor_acc;
    res.mask = TensorU8(Shape{n, oc, oh, ow});
    res.sensitive_per_channel.assign(static_cast<std::size_t>(oc), 0);
    const gemm::ConvShape geom{c, h, w, kh, kw, stride, pad};
    es = gemm::sparse_result_generation(
        cols, wts, geom, res.predictor_acc, res.scale, cfg.threshold, res.acc,
        res.mask, res.sensitive_per_channel, res.sensitive_lists);
    res.stats.sparse_epilogue_seconds = timer.seconds();
    span.arg("sensitive", es.sensitive);
  }

  res.stats.calls = 1;
  res.stats.outputs = n * oc * oh * ow;
  res.stats.sensitive = es.sensitive;
  res.stats.predictor_macs = res.stats.outputs * c * kh * kw;
  res.stats.executor_macs = es.executor_macs;
  record_conv_metrics(res.stats);
  return res;
}

}  // namespace

OdqConvResult odq_conv(const QTensor& input, const QTensor& weight,
                       std::int64_t stride, std::int64_t pad,
                       const OdqConfig& cfg) {
  if (cfg.num_threads == 1) {
    return odq_conv_reference(input, weight, stride, pad, cfg);
  }
  return odq_conv_packed(input, weight,
                         gemm::pack_weights_split(weight.q, cfg.low_bits),
                         stride, pad, cfg);
}

Tensor odq_conv_float(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, std::int64_t stride, std::int64_t pad,
                      const OdqConfig& cfg, OdqLayerStats* stats,
                      TensorU8* mask_out) {
  QTensor qin = quantize_input(input, cfg);
  QTensor qw = quantize_weight(weight, cfg);
  OdqConvResult r = odq_conv(qin, qw, stride, pad, cfg);

  Tensor out = dequantize_with_bias(r.acc, r.scale, bias);
  if (obs::fidelity_enabled()) {
    record_odq_fidelity(input, weight, bias, stride, pad, cfg, r, out,
                        /*layer=*/-1);
  }
  if (stats != nullptr) *stats = r.stats;
  if (mask_out != nullptr) *mask_out = std::move(r.mask);
  return out;
}

// One conv's weights, prepared once: the float weights the entry was
// built from (the key run() validates against), their INT4 codes and scale,
// and the HBS/LBS filter panels. Immutable once published.
struct OdqConvExecutor::PreparedWeights {
  Tensor source;
  QTensor codes;
  gemm::PackedSplitWeights panels;

  bool matches(const Tensor& weight) const {
    return source.shape() == weight.shape() &&
           (weight.numel() == 0 ||
            std::memcmp(source.data(), weight.data(),
                        static_cast<std::size_t>(weight.numel()) *
                            sizeof(float)) == 0);
  }
};

std::shared_ptr<const OdqConvExecutor::PreparedWeights>
OdqConvExecutor::prepared_weights(const Tensor& weight, int conv_id) {
  const auto id = static_cast<std::size_t>(std::max(conv_id, 0));
  std::shared_ptr<const PreparedWeights> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (id < prepared_.size()) entry = prepared_[id];
  }
  // Validated by content, outside the lock: whoever wrote the weights since
  // (an optimizer step, a checkpoint load, a test) needs to tell no one.
  if (entry != nullptr && entry->matches(weight)) return entry;
  auto fresh = std::make_shared<PreparedWeights>();
  fresh->source = weight;
  fresh->codes = quantize_weight(weight, cfg_);
  fresh->panels = gemm::pack_weights_split(fresh->codes.q, cfg_.low_bits);
  std::lock_guard<std::mutex> lock(mutex_);
  if (prepared_.size() <= id) prepared_.resize(id + 1);
  prepared_[id] = fresh;
  return fresh;
}

Tensor OdqConvExecutor::run(const Tensor& input, const Tensor& weight,
                            const Tensor& bias, std::int64_t stride,
                            std::int64_t pad, int conv_id) {
  obs::TraceSpan span("odq.conv");
  span.arg("conv_id", conv_id);
  float input_max = 0.0f;
  if (const char* reason =
          odq_degenerate_reason(input, cfg_.threshold, input_max)) {
    return run_fallback(input, weight, bias, stride, pad, conv_id, reason);
  }
  QTensor qin = quantize_input(input, cfg_, input_max);
  const std::shared_ptr<const PreparedWeights> prep =
      prepared_weights(weight, conv_id);
  OdqConvResult r =
      cfg_.num_threads == 1
          ? odq_conv_reference(qin, prep->codes, stride, pad, cfg_)
          : odq_conv_packed(qin, prep->codes, prep->panels, stride, pad,
                            cfg_);

  Tensor out = dequantize_with_bias(r.acc, r.scale, bias);
  if (obs::fidelity_enabled()) {
    record_odq_fidelity(input, weight, bias, stride, pad, cfg_, r, out,
                        conv_id);
  }

  // Calibration subsampling happens in a call-local buffer; the shared
  // state below is only touched under one short lock (concurrent run()
  // callers would otherwise serialize on the sampling loop).
  std::vector<float> local_samples;
  if (calibrate_) {
    const std::int64_t stride_s =
        std::max<std::int64_t>(1, r.predictor_acc.numel() / 512);
    local_samples.reserve(
        static_cast<std::size_t>(r.predictor_acc.numel() / stride_s) + 1);
    for (std::int64_t i = 0; i < r.predictor_acc.numel(); i += stride_s) {
      local_samples.push_back(
          std::abs(static_cast<float>(r.predictor_acc[i]) * r.scale));
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto id = static_cast<std::size_t>(std::max(conv_id, 0));
    if (stats_.size() <= id) {
      stats_.resize(id + 1);
      last_channel_counts_.resize(id + 1);
    }
    stats_[id].merge(r.stats);
    last_channel_counts_[id] = std::move(r.sensitive_per_channel);
    calib_samples_.insert(calib_samples_.end(), local_samples.begin(),
                          local_samples.end());
  }
  return out;
}

Tensor OdqConvExecutor::run_fallback(const Tensor& input, const Tensor& weight,
                                     const Tensor& bias, std::int64_t stride,
                                     std::int64_t pad, int conv_id,
                                     const char* reason) {
  obs::TraceSpan span("odq.fallback");
  span.arg("conv_id", conv_id);
  static obs::Counter& fallbacks = obs::counter("odq.fallback");
  fallbacks.increment();
  bool log_now = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto id = static_cast<std::size_t>(std::max(conv_id, 0));
    if (fallback_counts_.size() <= id) fallback_counts_.resize(id + 1, 0);
    log_now = fallback_counts_[id]++ == 0;
  }
  if (log_now) {
    ODQ_LOG_WARN(
        "odq: conv %d has %s; serving this layer via the static-INT8 "
        "fallback",
        conv_id, reason);
  }
  quant::StaticQuantConvExecutor fallback(/*bits=*/8);
  return fallback.run(input, weight, bias, stride, pad, conv_id);
}

std::int64_t OdqConvExecutor::fallback_count(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto i = static_cast<std::size_t>(id);
  return i < fallback_counts_.size() ? fallback_counts_[i] : 0;
}

OdqLayerStats OdqConvExecutor::layer_stats(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto i = static_cast<std::size_t>(id);
  return i < stats_.size() ? stats_[i] : OdqLayerStats{};
}

std::size_t OdqConvExecutor::num_layers_seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_.size();
}

OdqLayerStats OdqConvExecutor::total_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  OdqLayerStats total;
  for (const OdqLayerStats& s : stats_) total.merge(s);
  return total;
}

void OdqConvExecutor::reset_stats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.clear();
  last_channel_counts_.clear();
  fallback_counts_.clear();
  calib_samples_.clear();
}

std::vector<std::int64_t> OdqConvExecutor::last_sensitive_per_channel(
    int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto i = static_cast<std::size_t>(id);
  return i < last_channel_counts_.size() ? last_channel_counts_[i]
                                         : std::vector<std::int64_t>{};
}

std::vector<float> OdqConvExecutor::calibration_samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return calib_samples_;
}

}  // namespace odq::core
