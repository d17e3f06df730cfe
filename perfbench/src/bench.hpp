// perfbench: shared declarations of the benchmark runner.
//
// The runner links the odq library unchanged and times it from outside:
// every number comes from a clock read around a public call, from a public
// stats accessor, or from the InferResponse timestamps. Nothing in src/ is
// instrumented for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/odq.hpp"
#include "nn/layer.hpp"
#include "nn/model.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

using odq::tensor::Tensor;

// ---------------------------------------------------------------- settings
// Absolute workload parameters. BENCHMARK.json quotes them in each
// workload's `why`; they are never derived from a measured capacity.
inline constexpr std::int64_t kModelWidth = 8;        // ResNet-20 / VGG-16
inline constexpr std::uint64_t kWeightSeed = 1;       // Kaiming init seed
inline constexpr double kCalibSensitive = 0.25;       // target ODQ share
inline constexpr int kServeWorkers = 2;
inline constexpr std::size_t kServeMaxBatch = 8;
inline constexpr std::int64_t kServeFlushUs = 2000;
// Phase-1 Poisson rate: about a quarter of the phase-2 rate on 4 cores, so
// the open loop stays stable when a shared host runs twice as slow.
inline constexpr double kServeRatePerS = 40.0;
inline constexpr int kServeWindow = 16;               // phase-2 outstanding
inline constexpr double kServeOpenShare = 0.8;        // of --seconds
inline constexpr double kServeWindowS = 0.5;          // phase-2 rate window
inline constexpr std::int64_t kVggBatch = 8;
inline constexpr std::int64_t kTrainBatch = 8;
inline constexpr std::int64_t kTrainSetImages = 64;   // one epoch = 8 steps
inline constexpr int kSetupRepeats = 5;               // setup_s = median

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// ------------------------------------------------------------------ clock
using Clock = std::chrono::steady_clock;
inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ------------------------------------------------------------------ stats
// Linear-interpolated quantile, q in [0, 1]; NaN for an empty sample.
double quantile(std::vector<double> v, double q);
double sorted_quantile(const std::vector<double>& v, double q);
double mean(const std::vector<double>& v);

// ----------------------------------------------------------------- report
// The result the runner prints as its last stdout line.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  // Records an output check; a failure is logged and clears `correct`.
  void check(bool ok, const std::string& what);
  std::string json() const;
};

// Informational JSON line (provenance, per-phase counts) on stdout.
void info_line(const std::string& key, const std::string& json_object);

// ----------------------------------------------------------------- inputs
odq::nn::Model make_resnet20();
odq::nn::Model make_vgg16();
// `n` seeded images of 3x32x32, uniform [0, 1): image i of stream `stream`.
Tensor seeded_batch(std::uint64_t seed, std::uint64_t stream,
                    std::uint64_t first_id, std::int64_t n);

// Picks the ODQ threshold that leaves about kCalibSensitive of outputs
// sensitive: candidates are the executor's public calibration samples over
// `calib_forwards` seeded batch-1 inputs. Leaves the threshold installed
// and the stats reset.
float calibrate_threshold(odq::nn::Model& model,
                          odq::core::OdqConvExecutor& exec, std::uint64_t seed,
                          int calib_forwards);

bool all_finite(const Tensor& t);
bool bitwise_equal(const Tensor& a, const Tensor& b);

// ------------------------------------------------------------ conv ledger
// Bench-side decorator around a conv executor: times every run() call and
// computes the packed-operand bytes ODQ moves from the tensor sizes. One
// per model; a model runs on one thread at a time.
class TimedConv : public odq::nn::ConvExecutor {
 public:
  explicit TimedConv(std::shared_ptr<odq::nn::ConvExecutor> inner)
      : inner_(std::move(inner)) {}

  Tensor run(const Tensor& input, const Tensor& weight, const Tensor& bias,
             std::int64_t stride, std::int64_t pad, int conv_id) override;
  std::string name() const override { return inner_->name(); }

  double conv_ms() const { return conv_ms_; }
  double packed_bytes() const { return packed_bytes_; }

 private:
  std::shared_ptr<odq::nn::ConvExecutor> inner_;
  double conv_ms_ = 0.0;
  double packed_bytes_ = 0.0;
};

// The float oracle: tensor::conv2d_direct, bias applied.
class DirectConv : public odq::nn::ConvExecutor {
 public:
  Tensor run(const Tensor& input, const Tensor& weight, const Tensor& bias,
             std::int64_t stride, std::int64_t pad, int conv_id) override;
  std::string name() const override { return "direct_fp32"; }
};

// Runs `inner` and, on the same arguments, the serial odq_conv_reference
// path (an OdqConvExecutor with num_threads = 1); counts calls whose
// outputs differ in any bit.
class OdqOracleConv : public odq::nn::ConvExecutor {
 public:
  explicit OdqOracleConv(std::shared_ptr<odq::core::OdqConvExecutor> inner);
  Tensor run(const Tensor& input, const Tensor& weight, const Tensor& bias,
             std::int64_t stride, std::int64_t pad, int conv_id) override;
  std::string name() const override { return "odq_oracle"; }

  std::int64_t calls = 0;
  std::int64_t mismatches = 0;

 private:
  std::shared_ptr<odq::core::OdqConvExecutor> inner_;
  odq::core::OdqConvExecutor reference_;
};

// Sums over traced forwards, per forward once divided by `forwards`.
struct Ledger {
  std::int64_t forwards = 0;
  double forward_ms = 0, conv_ms = 0, non_conv_ms = 0, unattributed_ms = 0;
  double pack_ms = 0, gemm_ms = 0, epilogue_ms = 0, odq_conv_ms = 0;
  double predictor_macs = 0, executor_macs = 0, packed_bytes = 0;
  std::map<std::string, double> kind_ms;  // top-level layer time by kind
  std::vector<double> forward_samples_ms;  // one per traced forward

  void merge(const Ledger& o);
  // nn.* / core.* / gemm.* per-forward metrics (phase rates included),
  // plus an info line with the top-level layer time by kind.
  void report(Report& r) const;
};

// Outside-in forward: runs the model's top-level layers one by one (the
// loop Model::forward runs) and times each, with a TimedConv installed on
// every conv. Reads ODQ phase times from total_stats() after reset_stats().
class Tracer {
 public:
  // `exec` is the conv executor to trace (null = native FP32 path);
  // `odq` aliases it when it is an ODQ executor.
  Tracer(odq::nn::Model& model, std::shared_ptr<odq::nn::ConvExecutor> exec,
         odq::core::OdqConvExecutor* odq);

  Tensor forward(const Tensor& x, bool train);
  // Restores the untraced executor (the one passed in) on the model.
  void detach();
  void attach();

  Ledger ledger;

 private:
  odq::nn::Model& model_;
  std::shared_ptr<odq::nn::ConvExecutor> exec_;
  std::shared_ptr<TimedConv> timed_;
  odq::core::OdqConvExecutor* odq_;
};

// A sampled (input, output) pair kept from a timed loop for the checks.
struct Sample {
  Tensor x, y;
};

// Replays `samples` through `model` with OdqOracleConv wrapping `exec`:
// every conv call must match odq_conv_reference bitwise, and every output
// must equal the one the timed loop produced. Reinstalls `exec`.
void check_odq(odq::nn::Model& model,
               const std::shared_ptr<odq::core::OdqConvExecutor>& exec,
               const std::vector<Sample>& samples, Report& r,
               const std::string& what);

// nn.tracing_overhead_ms: median traced minus median untraced forward over
// alternating pairs on `x`. The pairs stay out of the tracer's ledger.
void tracing_overhead(odq::nn::Model& model, Tracer& tracer, const Tensor& x,
                      bool train, int pairs, Report& r);

// Deterministic ODQ counts over a fixed set of seeded inputs:
// core.sensitive_fraction, core.fallback_layers, gemm.*_macs per forward.
void odq_counts(odq::nn::Model& model, odq::core::OdqConvExecutor& exec,
                std::uint64_t seed, std::int64_t batch, Report& r);

// ------------------------------------------------------------- workloads
void run_resnet20_b1(const Args& a, Report& r);
void run_vgg16_b8_schemes(const Args& a, Report& r);
void run_serve_open(const Args& a, Report& r);
void run_finetune_odq(const Args& a, Report& r);

// Per-layer families a workload does not exercise itself are filled by a
// short probe of that family, so every traced run reports the full ledger.
struct Covered {
  bool schemes = false, serve = false, train = false;
};
void complete_ledger(const Args& a, Report& r, const Covered& done,
                     odq::nn::Model& model, std::int64_t batch,
                     const odq::core::OdqConfig& odq_cfg);

// The four schemes vgg16-b8-schemes runs and the probe times, with the
// per-layer metrics each one reports.
struct SchemeRow {
  const char* scheme;          // serve::make_conv_executor name
  const char* forward_metric;  // per forward
  const char* conv_metric;     // per forward; null when not reported
};
inline constexpr SchemeRow kSchemeRows[] = {
    {"fp32", "scheme.fp32_forward_ms", nullptr},
    {"static_int8", "scheme.int8_forward_ms", "quant.int8_conv_ms"},
    {"drq", "scheme.drq_forward_ms", "drq.conv_ms"},
    {"odq", "scheme.odq_forward_ms", nullptr},
};
void report_scheme(const SchemeRow& row, const Ledger& l, Report& r);

// Per-layer probes (also used by the owning workload's traced run).
// scheme.*_forward_ms, quant.int8_conv_ms and drq.conv_ms on `model`.
void scheme_probe(odq::nn::Model& model, std::int64_t batch,
                  const odq::core::OdqConfig& odq_cfg, std::uint64_t seed,
                  int forwards_per_scheme, Report& r);
// serve.* from a short open-loop phase of the serve-open engine.
void serve_probe(const Args& a, double seconds, Report& r);
// nn.train_forward_ms, nn.backward_ms, nn.optimizer_ms from a few steps of
// the finetune-odq set-up.
void train_probe(const Args& a, int steps, Report& r);
// accel.*: simulated cycles of one fixed batch through accel::simulate for
// the four Table-2 designs and cyclesim::simulate_network, plus host time.
// Leaves `model` on the native FP32 path (extract_workloads does).
void accel_probe(odq::nn::Model& model, const odq::core::OdqConfig& cfg,
                 Report& r);

}  // namespace perfbench
