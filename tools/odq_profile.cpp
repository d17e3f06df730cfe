// odq_profile — one-command "where did the time go" for the ODQ pipeline.
//
//   odq_profile --model lenet --trace out.trace.json --report out.json
//
// Builds the requested model, runs it end-to-end on synthetic data with the
// ODQ executor installed and tracing + metrics enabled, then emits
//   * a Chrome Trace Event Format file (chrome://tracing / Perfetto), and
//   * a JSON report: per-layer wall time, sensitive-output fraction
//     (exactly OdqConvExecutor::layer_stats), predictor vs executor MACs,
//     bytes moved at INT4 + mask width, plus a full metrics snapshot.
//
// Options:
//   --model <name>       lenet | resnet20 | resnet56 | vgg16 | densenet
//   --trace <path>       Chrome trace output (default: no trace file)
//   --report <path>      JSON report (default: stdout)
//   --threshold <t>      ODQ sensitivity threshold (default 0.15)
//   --batch <n>          batch size (default 8)
//   --batches <n>        forward passes to profile (default 1)
//   --width <w>          model width parameter (default 8)
//   --quiet              suppress the human-readable summary on stderr
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/odq.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replica.hpp"
#include "simd/dispatch.hpp"
#include "tool_main.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace odq;

struct Options {
  std::string model = "lenet";
  std::string trace_path;
  std::string report_path;
  float threshold = 0.15f;
  std::int64_t batch = 8;
  std::int64_t batches = 1;
  std::int64_t width = 8;
  bool quiet = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: odq_profile [--model lenet|resnet20|resnet56|vgg16|"
               "densenet]\n"
               "                   [--trace out.trace.json] [--report out.json]"
               "\n"
               "                   [--threshold t] [--batch n] [--batches n]\n"
               "                   [--width w] [--quiet]\n");
  return 2;
}

// Per-layer wall time and operand volume, captured by wrapping the real ODQ
// executor. The sensitive fractions in the report are NOT computed here —
// they are read back from OdqConvExecutor::layer_stats so the report
// matches the executor's own accounting exactly.
struct LayerProfile {
  double wall_seconds = 0.0;
  std::int64_t calls = 0;
  std::int64_t input_elems = 0;
  std::int64_t weight_elems = 0;
  std::int64_t output_elems = 0;
};

class ProfilingExecutor : public nn::ConvExecutor {
 public:
  explicit ProfilingExecutor(core::OdqConfig cfg)
      : inner_(std::make_shared<core::OdqConvExecutor>(cfg)) {}

  tensor::Tensor run(const tensor::Tensor& input, const tensor::Tensor& weight,
                     const tensor::Tensor& bias, std::int64_t stride,
                     std::int64_t pad, int conv_id) override {
    obs::TraceSpan span("profile.conv" + std::to_string(conv_id));
    util::WallTimer timer;
    tensor::Tensor out = inner_->run(input, weight, bias, stride, pad, conv_id);
    const double secs = timer.seconds();
    LayerProfile& p = profiles_[conv_id];
    p.wall_seconds += secs;
    ++p.calls;
    p.input_elems = input.numel();
    p.weight_elems = weight.numel();
    p.output_elems = out.numel();
    return out;
  }

  std::string name() const override { return "odq_profile"; }

  const core::OdqConvExecutor& inner() const { return *inner_; }
  const std::map<int, LayerProfile>& profiles() const { return profiles_; }

 private:
  std::shared_ptr<core::OdqConvExecutor> inner_;
  std::map<int, LayerProfile> profiles_;
};

// ODQ operand bytes for one call: INT4 input + INT4 weights + INT4 output
// plus the 1-bit sensitivity mask per output.
double layer_bytes_moved(const LayerProfile& p) {
  return static_cast<double>(p.calls) *
         (static_cast<double>(p.input_elems) * 0.5 +
          static_cast<double>(p.weight_elems) * 0.5 +
          static_cast<double>(p.output_elems) * 0.5 +
          static_cast<double>(p.output_elems) / 8.0);
}

}  // namespace

int tool_main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "odq_profile: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--model") {
      opt.model = next("--model");
    } else if (a == "--trace") {
      opt.trace_path = next("--trace");
    } else if (a == "--report") {
      opt.report_path = next("--report");
    } else if (a == "--threshold") {
      opt.threshold = std::strtof(next("--threshold"), nullptr);
    } else if (a == "--batch") {
      opt.batch = std::atoll(next("--batch"));
    } else if (a == "--batches") {
      opt.batches = std::atoll(next("--batches"));
    } else if (a == "--width") {
      opt.width = std::atoll(next("--width"));
    } else if (a == "--quiet") {
      opt.quiet = true;
    } else {
      return usage();
    }
  }
  if (opt.batch <= 0 || opt.batches <= 0 || opt.width <= 0) return usage();

  {
    obs::set_trace_enabled(true);
    obs::set_metrics_enabled(true);

    nn::Model model = tools::make_replica(opt.model, opt.width);
    model.assign_conv_ids();

    core::OdqConfig cfg;
    cfg.threshold = opt.threshold;
    auto exec = std::make_shared<ProfilingExecutor>(cfg);
    model.set_conv_executor(exec);

    const bool digits = opt.model == "lenet" || opt.model == "lenet5";
    const std::int64_t need = opt.batch * opt.batches;
    data::TrainTest data;
    if (digits) {
      data = data::make_synthetic_digits(need, 1);
    } else {
      data::SyntheticConfig dcfg;
      dcfg.num_classes = nn::kZooClasses;
      dcfg.noise = 0.05f;
      data = data::make_synthetic_images(dcfg, need, 1);
    }
    const tensor::Shape& ds = data.train.images.shape();
    const std::int64_t chw = ds[1] * ds[2] * ds[3];

    util::WallTimer total_timer;
    for (std::int64_t b = 0; b < opt.batches; ++b) {
      ODQ_TRACE_SPAN("profile.forward");
      tensor::Tensor batch(
          tensor::Shape{opt.batch, ds[1], ds[2], ds[3]},
          std::vector<float>(data.train.images.data() + b * opt.batch * chw,
                             data.train.images.data() +
                                 (b + 1) * opt.batch * chw));
      (void)model.forward(batch, /*train=*/false);
    }
    const double total_seconds = total_timer.seconds();

    if (!opt.trace_path.empty()) obs::write_chrome_trace(opt.trace_path);

    // Report.
    util::JsonWriter w;
    w.begin_object();
    w.kv("model", opt.model);
    w.kv("threshold", static_cast<double>(opt.threshold));
    w.kv("batch", opt.batch);
    w.kv("batches", opt.batches);
    // Which SIMD kernel backend served the GEMM + epilogue hot loops — the
    // phase timings below are meaningless without it.
    w.kv("simd_backend", simd::backend_name(simd::active_backend()));
    w.kv("total_wall_seconds", total_seconds);
    if (!opt.trace_path.empty()) w.kv("trace_file", opt.trace_path);
    w.key("layers");
    w.begin_array();
    double total_bytes = 0.0;
    const core::OdqConvExecutor& odq_exec = exec->inner();
    for (const auto& [conv_id, prof] : exec->profiles()) {
      const core::OdqLayerStats stats = odq_exec.layer_stats(conv_id);
      const double bytes = layer_bytes_moved(prof);
      total_bytes += bytes;
      w.begin_object();
      w.kv("conv_id", static_cast<std::int64_t>(conv_id));
      w.kv("calls", prof.calls);
      w.kv("wall_seconds", prof.wall_seconds);
      w.kv("outputs", stats.outputs);
      w.kv("sensitive", stats.sensitive);
      w.kv("sensitive_fraction", stats.sensitive_fraction());
      w.kv("predictor_macs", stats.predictor_macs);
      w.kv("executor_macs", stats.executor_macs);
      // Phase breakdown of the fused ODQ tiles (core/odq.cpp): activation
      // packing, predictor tile + threshold, Eq. (3) remainder. Sums to
      // less than wall_seconds; the remainder is quantize/dequantize and
      // executor overhead.
      w.kv("pack_seconds", stats.pack_seconds);
      w.kv("gemm_seconds", stats.gemm_seconds);
      w.kv("sparse_epilogue_seconds", stats.sparse_epilogue_seconds);
      w.kv("bytes_moved", bytes);
      w.end_object();
    }
    w.end_array();
    w.kv("total_bytes_moved", total_bytes);
    w.key("metrics");
    obs::metrics_to_json(obs::metrics_snapshot(obs::metrics_clock_us()), w);
    w.end_object();

    const std::string report = w.take();
    if (opt.report_path.empty()) {
      std::printf("%s\n", report.c_str());
    } else {
      const util::Status st = util::write_file(opt.report_path, report + "\n");
      if (!st.ok()) {
        std::fprintf(stderr, "odq_profile: --report: %s\n",
                     st.message().c_str());
        return 1;
      }
    }

    if (!opt.quiet) {
      std::fprintf(stderr, "simd backend: %s\n",
                   simd::backend_name(simd::active_backend()));
      std::fprintf(stderr,
                   "%-8s %5s %10s %8s %9s %9s %9s %12s %12s %10s\n", "layer",
                   "calls", "wall ms", "sens %", "pack ms", "gemm ms",
                   "spars ms", "pred MACs", "exec MACs", "KB moved");
      for (const auto& [conv_id, prof] : exec->profiles()) {
        const core::OdqLayerStats stats = odq_exec.layer_stats(conv_id);
        std::fprintf(stderr,
                     "conv%-4d %5lld %10.3f %7.1f%% %9.3f %9.3f %9.3f %12lld "
                     "%12lld %10.1f\n",
                     conv_id, static_cast<long long>(prof.calls),
                     prof.wall_seconds * 1e3,
                     100.0 * stats.sensitive_fraction(),
                     stats.pack_seconds * 1e3, stats.gemm_seconds * 1e3,
                     stats.sparse_epilogue_seconds * 1e3,
                     static_cast<long long>(stats.predictor_macs),
                     static_cast<long long>(stats.executor_macs),
                     layer_bytes_moved(prof) / 1024.0);
      }
      std::fprintf(stderr, "total: %.3f s, %.1f KB moved", total_seconds,
                   total_bytes / 1024.0);
      if (!opt.trace_path.empty()) {
        std::fprintf(stderr, ", trace -> %s", opt.trace_path.c_str());
      }
      if (!opt.report_path.empty()) {
        std::fprintf(stderr, ", report -> %s", opt.report_path.c_str());
      }
      std::fputc('\n', stderr);
    }
    return 0;
  }
}

int main(int argc, char** argv) {
  return odq::tools::run_guarded("odq_profile",
                                 [&] { return tool_main(argc, argv); });
}
