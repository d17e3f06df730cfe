#include "core/odq.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "gemm/packed.hpp"
#include "nn/epilogue.hpp"
#include "obs/fidelity.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"
#include "tensor/ops.hpp"
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
// caller that already scanned the input passes its max as `input_max`,
// which is exactly the clip quantize_activations would compute for itself,
// so the codes are unchanged and one pass is saved (an input with no
// positive value passes 0, and every code comes out 0).
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

// The input max, which quantize_input reuses as its clip; 0 when no value
// is positive. Throws std::invalid_argument naming the conv when a value is
// NaN or ±inf: the predictor magnitudes would be meaningless. One
// branch-free linear scan: each lane keeps a running max (NaN never wins
// the compare) and a poison sum of v - v, which is 0 for finite v and NaN
// for NaN or ±inf; the verdict is taken once, after the loop.
float checked_input_max(const Tensor& input, int conv_id) {
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
  float amax = 0.0f;
  float bad = 0.0f;
  for (std::int64_t l = 0; l < kLanes; ++l) {
    amax = mx[l] > amax ? mx[l] : amax;
    bad += poison[l];
  }
  if (bad != bad) {
    throw std::invalid_argument("odq: conv " + std::to_string(conv_id) +
                                " input holds a non-finite value (NaN or inf)");
  }
  return amax;
}

// Refuses operands the integer kernels cannot compute exactly: the tile
// kernels read activation codes as unsigned bytes whose pair products must
// not saturate an int16 lane, which holds for codes up to 127 only
// (simd/kernels.hpp). A signed activation tensor or 8-bit codes would give
// wrong sums without any error, so both entry points refuse them.
void check_bits(const QTensor& input, const QTensor& weight,
                const OdqConfig& cfg) {
  if (input.is_signed || cfg.total_bits > 7) {
    throw std::invalid_argument(
        "odq_conv: activations must be unsigned codes of at most 7 bits");
  }
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
    // independent oracle for the fused tiles, so it shares no code with
    // them.
    res.predictor_acc =
        quant::conv2d_i8(in_split.high, w_split.high, stride, pad);
    for (std::int64_t i = 0; i < res.predictor_acc.numel(); ++i) {
      res.predictor_acc[i] <<= 2 * lb;
    }
  }

  // Threshold -> bit mask.
  res.mask = TensorU8(Shape{n, oc, oh, ow});
  res.sensitive_per_channel.assign(static_cast<std::size_t>(oc), 0);
  std::int64_t sensitive = 0;
  {
    ODQ_TRACE_SPAN("odq.mask");
    for (std::int64_t b = 0; b < n; ++b) {
      for (std::int64_t ch = 0; ch < oc; ++ch) {
        for (std::int64_t i = 0; i < oh * ow; ++i) {
          const std::int64_t idx = ((b * oc + ch) * oh * ow) + i;
          const float mag =
              std::abs(static_cast<float>(res.predictor_acc[idx]) * res.scale);
          const bool sens = mag >= cfg.threshold;
          res.mask[idx] = sens ? 1 : 0;
          if (sens) {
            ++sensitive;
            ++res.sensitive_per_channel[static_cast<std::size_t>(ch)];
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

// Output rows per task. Tasks split the (batch, row tile) space and each
// covers every filter; a multiple of the kernels' kTileRows. 64 rows of the
// deepest ResNet-20 conv (288 taps) fill 18 KiB of L1, and each task reads
// the tick counter three times, so tiles this coarse keep the reads cheap.
// Four ResNet-20 w8 conv shapes, one thread, 25 interleaved repetitions,
// median: 401 / 330 / 336 / 351 us at 16 / 32 / 64 / 128 rows (batch 1),
// and 32.9 / 33.1 / 32.3 ms at 16 / 32 / 64 rows for six larger shapes at
// batch 8 with every output sensitive.
constexpr std::int64_t kTaskRows = 64;
static_assert(kTaskRows % simd::kTileRows == 0, "row tile = whole blocks");

// Below this many predictor MACs per chunk the region runs inline on the
// caller, like sgemm's 2^16-MAC cut-off; tasks are grouped into chunks of
// at least this much work. Every ResNet-20 w8 conv at batch 1 (at most
// ~655k MACs) then runs inline. perfbench resnet20-b1 p50, three
// alternating 6 s runs each, 4 pool threads: 2.41 / 2.14 / 2.44 ms at 2^18
// (stage-1 and stage-2 convs fan out), 1.93 / 2.32 / 2.38 ms at 2^20 and
// 2.43 / 2.34 / 2.24 ms at 2^22; fanning out buys nothing measurable at
// batch 1 on a shared 4-vCPU host, so the cut-off keeps those convs off
// the pool, where two serving workers would contend for it.
constexpr std::int64_t kMinChunkMacs = std::int64_t{1} << 20;

// A filter block of a task (kTileFilters filters x the task's rows) with
// at least kDenseNum / kDenseDen of its outputs sensitive computes its
// full-code products as one tile over all its rows and keeps the sensitive
// ones; a sparser block gives each sensitive output its own dot. A tile
// shares every operand load and one horizontal reduction across a block of
// 8 outputs, and costs about as much as 2-4 gathered dots at 80-288 taps
// (AVX2). Measured on the ResNet-20 w8 perfbench model at batch 1 (32.6% of
// outputs sensitive), one thread, 30 interleaved repetitions per setting,
// median forward: 2.21 / 2.08 / 2.05 / 2.23 / 2.11 ms for a dense fraction
// of 1/4, 3/8, 1/2, 3/4 and 1; in another run, 2.46 ms for a rule per
// register block (dense at 3 of its 8 outputs) against 2.30 ms for this
// rule at 3/8.
constexpr std::int64_t kDenseNum = 1;
constexpr std::int64_t kDenseDen = 2;

// Per-thread scratch, reused across tasks and calls: the tile's packed
// activation rows, and its raw predictor sums [oc_padded][rows] (then one
// dense filter block's full-code sums).
struct TileScratch {
  std::vector<std::uint8_t> rows;
  std::vector<std::int32_t> sums;
};

TileScratch& tile_scratch(std::int64_t row_bytes, std::int64_t sums) {
  thread_local TileScratch s;
  if (s.rows.size() < static_cast<std::size_t>(row_bytes)) {
    s.rows.resize(static_cast<std::size_t>(row_bytes));
  }
  if (s.sums.size() < static_cast<std::size_t>(sums)) {
    s.sums.resize(static_cast<std::size_t>(sums));
  }
  return s;
}

// What one task leaves for the reduction after the region: its executor
// MACs and its phase times in util::ticks().
struct TaskTally {
  std::int64_t executor_macs = 0;
  std::uint64_t pack = 0, predict = 0, remainder = 0;
};

// With tracing on, a task also records its phases as spans, from trace
// clock reads at the same four points.
void record_phase_spans(const double (&at)[4]) {
  obs::trace_record("odq.pack", at[0], at[1] - at[0]);
  obs::trace_record("odq.gemm", at[1], at[2] - at[1]);
  obs::trace_record("odq.sparse_epilogue", at[2], at[3] - at[2]);
}

// The fused pipeline odq_conv and OdqConvExecutor::run share: one parallel
// region of (batch, row tile) tasks against `panels`, the weight panels the
// caller packed from `weight`'s codes. Each task
//   1. packs its rows' activation codes into per-thread scratch,
//   2. runs the predictor tile (the codes' high digits in register against
//      the high-digit panel) for every filter and applies the threshold,
//      writing its slice of predictor_acc, acc and mask,
//   3. gives each sensitive output the full-code product sum_p a * w
//      against the full-code panel — Eq. (3) is an identity, so predictor
//      plus remainder is exactly that sum — densely per filter block when
//      enough of the block is sensitive, else one dot per output.
OdqConvResult odq_conv_tiled(const QTensor& input, const QTensor& weight,
                             const gemm::TilePanels& panels,
                             std::int64_t stride, std::int64_t pad,
                             const OdqConfig& cfg) {
  check_bits(input, weight, cfg);
  const Shape& is = input.q.shape();
  const Shape& ws = weight.q.shape();
  if (is.rank() != 4 || ws.rank() != 4 || is[1] != ws[1]) {
    throw std::invalid_argument(
        "odq_conv: need NCHW input and OIHW weight with matching channels");
  }
  const std::int64_t n = is[0];
  const std::int64_t c = is[1], h = is[2], w = is[3];
  const std::int64_t oc = ws[0], kh = ws[2], kw = ws[3];
  const std::int64_t oh = tensor::conv_out_dim(h, kh, stride, pad);
  const std::int64_t ow = tensor::conv_out_dim(w, kw, stride, pad);
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("odq_conv: kernel larger than padded input");
  }
  if (panels.oc != oc || panels.k != c * kh * kw ||
      panels.low_bits != cfg.low_bits) {
    throw std::invalid_argument("odq_conv: weight panels do not match");
  }
  const int lb = cfg.low_bits;
  const std::int64_t rows = oh * ow;
  const std::int64_t kp = panels.k_padded;
  const std::int64_t ocp = panels.oc_padded;

  OdqConvResult res;
  res.scale = input.scale * weight.scale;
  res.predictor_acc = TensorI32(Shape{n, oc, oh, ow});
  res.acc = TensorI32(Shape{n, oc, oh, ow});
  res.mask = TensorU8(Shape{n, oc, oh, ow});

  const gemm::ConvShape geom{c, h, w, kh, kw, stride, pad};
  // Prefix sums of the in-bounds MACs per output row: row_macs[r1] -
  // row_macs[r0] is the executor work of one sensitive output in each row of
  // [r0, r1).
  std::vector<std::int64_t> row_macs(static_cast<std::size_t>(rows + 1), 0);
  {
    const std::vector<std::int64_t> per_row =
        gemm::valid_macs_per_row(geom, oh, ow);
    for (std::int64_t r = 0; r < rows; ++r) {
      row_macs[static_cast<std::size_t>(r + 1)] =
          row_macs[static_cast<std::size_t>(r)] +
          per_row[static_cast<std::size_t>(r)];
    }
  }
  const std::int64_t row_tiles = (rows + kTaskRows - 1) / kTaskRows;
  const std::int64_t tasks = n * row_tiles;
  std::vector<std::int64_t> counts(static_cast<std::size_t>(tasks * oc), 0);
  std::vector<TaskTally> tally(static_cast<std::size_t>(tasks));

  const std::int64_t task_macs = std::min(rows, kTaskRows) * ocp * kp;
  const std::int64_t grain = std::max<std::int64_t>(
      1, (kMinChunkMacs + task_macs - 1) / task_macs);
  // One kernel-table fetch per conv: a backend flip between calls never
  // splits a conv across two kernels.
  const simd::Kernels& kk = simd::active_kernels();
  const bool tracing = obs::trace_enabled();
  const std::int8_t* codes = input.q.data();
  std::int32_t* pred_out = res.predictor_acc.data();
  std::int32_t* acc_out = res.acc.data();
  std::uint8_t* mask_out = res.mask.data();
  const float scale = res.scale;
  const float threshold = cfg.threshold;

  obs::TraceSpan span("odq.tiles");
  util::WallTimer region;
  util::parallel_for(
      tasks,
      [&](std::int64_t t0, std::int64_t t1) {
        TileScratch& s = tile_scratch(kTaskRows * kp, ocp * kTaskRows);
        std::uint8_t* a = s.rows.data();
        std::uint64_t clock = util::ticks();
        for (std::int64_t t = t0; t < t1; ++t) {
          double at[4] = {};
          if (tracing) at[0] = obs::trace_now_us();
          const std::int64_t b = t / row_tiles;
          const std::int64_t r0 = (t % row_tiles) * kTaskRows;
          const std::int64_t nr = std::min(rows - r0, kTaskRows);
          const std::int64_t nr_pad = gemm::round_up(nr, simd::kTileRows);

          // 1. Pack. The pad rows of a short last tile are zeroed so the
          // kernels only ever read defined codes.
          gemm::pack_tile_rows(geom, codes + b * c * h * w, r0, r0 + nr, kp,
                               a);
          std::fill(a + nr * kp, a + nr_pad * kp, std::uint8_t{0});
          const std::uint64_t packed = util::ticks();
          if (tracing) at[1] = obs::trace_now_us();

          // 2. Predictor for every filter, then the threshold per filter
          // over the tile's contiguous run of each output plane.
          kk.tile_u8s8(a, nr_pad, panels.high.data(), ocp, kp, lb,
                       s.sums.data(), nr_pad);
          std::int64_t* tile_counts = counts.data() + t * oc;
          for (std::int64_t f = 0; f < oc; ++f) {
            const std::int64_t o = (b * oc + f) * rows + r0;
            tile_counts[f] =
                kk.threshold(s.sums.data() + f * nr_pad, nr, 2 * lb, scale,
                             threshold, pred_out + o, acc_out + o,
                             mask_out + o);
          }
          const std::uint64_t predicted = util::ticks();
          if (tracing) at[2] = obs::trace_now_us();

          // 3. Full-code products for the sensitive outputs, one filter
          // block (kTileFilters filters x the task's rows) at a time. The
          // predictor sums are consumed, so their scratch takes the
          // full-code sums of a dense block.
          std::int64_t macs = 0;
          for (std::int64_t f0 = 0; f0 < oc; f0 += simd::kTileFilters) {
            const std::int64_t nf = std::min(simd::kTileFilters, oc - f0);
            const std::int8_t* wf = panels.full.data() + f0 * kp;
            std::int64_t sensitive = 0;
            for (std::int64_t f = 0; f < nf; ++f) {
              sensitive += tile_counts[f0 + f];
            }
            if (sensitive == 0) continue;
            const bool dense = sensitive * kDenseDen >= kDenseNum * nf * nr;
            if (dense) {
              kk.tile_u8s8(a, nr_pad, wf, simd::kTileFilters, kp, 0,
                           s.sums.data(), nr_pad);
            }
            for (std::int64_t f = 0; f < nf; ++f) {
              const std::int64_t o = (b * oc + f0 + f) * rows + r0;
              const std::uint8_t* m = mask_out + o;
              std::int32_t* acc = acc_out + o;
              const std::int32_t* full = s.sums.data() + f * nr_pad;
              for (std::int64_t q = 0; q < nr; ++q) {
                if (m[q] == 0) continue;
                acc[q] = dense ? full[q]
                               : kk.dot_u8s8(a + q * kp, wf + f * kp, kp);
                const auto r = static_cast<std::size_t>(r0 + q);
                macs += row_macs[r + 1] - row_macs[r];
              }
            }
          }
          const std::uint64_t done = util::ticks();
          tally[static_cast<std::size_t>(t)] = {
              macs, util::ticks_between(clock, packed),
              util::ticks_between(packed, predicted),
              util::ticks_between(predicted, done)};
          if (tracing) {
            at[3] = obs::trace_now_us();
            record_phase_spans(at);
          }
          clock = done;
        }
      },
      grain);
  const double wall = region.seconds();

  // Reduce the per-task counters in task order, and split the region's
  // wall time across the three phases in proportion to the tiles' times.
  res.sensitive_per_channel.assign(static_cast<std::size_t>(oc), 0);
  std::int64_t sensitive = 0, executor_macs = 0;
  double pack = 0.0, predict = 0.0, remainder = 0.0;
  for (std::int64_t t = 0; t < tasks; ++t) {
    for (std::int64_t f = 0; f < oc; ++f) {
      const std::int64_t k = counts[static_cast<std::size_t>(t * oc + f)];
      res.sensitive_per_channel[static_cast<std::size_t>(f)] += k;
      sensitive += k;
    }
    const TaskTally& tt = tally[static_cast<std::size_t>(t)];
    executor_macs += tt.executor_macs;
    pack += static_cast<double>(tt.pack);
    predict += static_cast<double>(tt.predict);
    remainder += static_cast<double>(tt.remainder);
  }
  const double phases = pack + predict + remainder;
  if (phases > 0.0) {
    res.stats.pack_seconds = wall * (pack / phases);
    res.stats.gemm_seconds = wall * (predict / phases);
    res.stats.sparse_epilogue_seconds = wall * (remainder / phases);
  }
  span.arg("sensitive", sensitive);

  res.stats.calls = 1;
  res.stats.outputs = n * oc * rows;
  res.stats.sensitive = sensitive;
  res.stats.predictor_macs = res.stats.outputs * c * kh * kw;
  res.stats.executor_macs = executor_macs;
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
  return odq_conv_tiled(input, weight,
                        gemm::pack_tile_panels(weight.q, cfg.low_bits), stride,
                        pad, cfg);
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
// and the high-digit and full-code tile panels. Immutable once published.
struct OdqConvExecutor::PreparedWeights {
  Tensor source;
  QTensor codes;
  gemm::TilePanels panels;

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
  fresh->panels = gemm::pack_tile_panels(fresh->codes.q, cfg_.low_bits);
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
  const float input_max = checked_input_max(input, conv_id);
  const bool collapsed = input_max <= 0.0f;
  QTensor qin = quantize_input(input, cfg_, input_max);
  const std::shared_ptr<const PreparedWeights> prep =
      prepared_weights(weight, conv_id);
  OdqConvResult r =
      cfg_.num_threads == 1
          ? odq_conv_reference(qin, prep->codes, stride, pad, cfg_)
          : odq_conv_tiled(qin, prep->codes, prep->panels, stride, pad,
                           cfg_);
  r.stats.collapsed = collapsed ? 1 : 0;

  Tensor out = dequantize_with_bias(r.acc, r.scale, bias);
  if (obs::fidelity_enabled()) {
    record_odq_fidelity(input, weight, bias, stride, pad, cfg_, r, out,
                        conv_id);
  }

  // Calibration subsampling happens in a call-local buffer; the shared
  // state below is only touched under one short lock (concurrent run()
  // callers would otherwise serialize on the sampling loop). A collapsed
  // call adds no samples: its predictor values are all 0 and would pull a
  // calibrated threshold toward 0.
  std::vector<float> local_samples;
  if (calibrate_ && !collapsed) {
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

void OdqConvExecutor::set_threshold(float t) {
  if (!std::isfinite(t)) {
    throw std::invalid_argument("OdqConvExecutor: threshold must be finite");
  }
  cfg_.threshold = t;
}

std::int64_t OdqConvExecutor::fallback_count(int id) const {
  return layer_stats(id).collapsed;
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
