// Shared infrastructure for the per-figure/table benchmark harnesses.
//
// Every bench binary is self-contained: it builds (or loads from the disk
// cache) the trained models it needs, runs the experiment, and prints the
// rows/series of the corresponding paper table or figure. The environment
// variable ODQ_BENCH_SCALE selects "quick" (default; laptop-friendly, the
// scale EXPERIMENTS.md reports) or "full" (paper-sized datasets/widths —
// hours of CPU). ODQ_BENCH_CACHE overrides the weight-cache directory
// (default ./bench_cache).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "accel/workload.hpp"
#include "core/odq.hpp"
#include "data/synthetic.hpp"
#include "drq/drq.hpp"
#include "nn/model.hpp"
#include "nn/trainer.hpp"

namespace odq::bench {

struct Scale {
  std::string name;             // "quick" or "full"
  std::int64_t train_n = 240;   // per dataset
  std::int64_t test_n = 80;
  std::int64_t epochs = 8;
  std::int64_t finetune_epochs = 3;
  std::int64_t c100_classes = 20;  // quick-scale stand-in for CIFAR-100
  std::int64_t c100_train_n = 400;
  std::int64_t c100_test_n = 100;
  // Model widths.
  std::int64_t resnet_width = 4;
  std::int64_t vgg_width = 8;
  std::int64_t densenet_growth = 4;
  std::int64_t densenet_layers = 3;
};

// Resolved from ODQ_BENCH_SCALE.
const Scale& scale();

// The four paper models, at the current scale. Valid names: "resnet20",
// "resnet56", "vgg16", "densenet". Throws on anything else.
nn::Model make_model(const std::string& name, int num_classes);
const std::vector<std::string>& model_names();

// Synthetic CIFAR-10/100 stand-ins (cached in-process per variant).
// `variant` is 10 or 100.
const data::TrainTest& dataset(int variant);
int classes_for_variant(int variant);

// FP32-trained model, cached on disk under the bench cache directory.
nn::Model trained_model(const std::string& model_name, int variant);

// Model fine-tuned with `exec` installed (the paper's retraining step),
// starting from the trained FP32 weights; cached on disk under
// `scheme_tag`. The executor remains installed on the returned model.
nn::Model finetuned_model(const std::string& model_name, int variant,
                          const std::string& scheme_tag,
                          const std::shared_ptr<nn::ConvExecutor>& exec);

// Accuracy of `model` on the `variant` test split.
double test_accuracy(nn::Model& model, int variant);

// The first min(n, test size) images of the `variant` test split as one
// [n,C,H,W] batch.
tensor::Tensor test_batch(int variant, std::int64_t n);

// Per-layer accelerator workloads for a trained model (ODQ masks + DRQ
// fractions extracted from one test batch).
std::vector<accel::ConvWorkload> workloads_for(const std::string& model_name,
                                               int variant,
                                               const core::OdqConfig& odq_cfg,
                                               const drq::DrqConfig& drq_cfg);

// Reasonable default configs used across benches (thresholds follow the
// paper's Table 3 style: per-model values picked by the search bench).
core::OdqConfig default_odq_config(const std::string& model_name);
drq::DrqConfig default_drq_config();

// Configs for *accelerator workload extraction*: thresholds calibrated so
// the mean sensitive-output fraction lands in the paper's observed band
// (8-50%; target 25% here). At bench scale the synthetic networks have
// flatter predictor-output distributions than paper-scale CIFAR models, so
// a fixed Table-3 value would mark nearly everything sensitive.
core::OdqConfig workload_odq_config(const std::string& model_name,
                                    int variant,
                                    double target_sensitive = 0.25);
drq::DrqConfig workload_drq_config();

// Config for the *accuracy* experiments (Fig. 18 / Fig. 22): threshold
// calibrated for ~50% sensitive outputs, recovered by the retraining pass.
// The quantizer transform is model-specific (DenseNet benefits from the
// DoReFa tanh spread; the ResNets/VGG do better linear at this scale).
core::OdqConfig accuracy_odq_config(const std::string& model_name,
                                    int variant);

// The paper's retraining recipe for ODQ, with a threshold ramp
// (0 -> t/4 -> t/2 -> t) so deep models adapt gradually; cached on disk.
// Returns the fine-tuned model (executor installed) plus the target
// threshold the ramp ended at.
struct OdqTunedModel {
  nn::Model model;
  std::shared_ptr<core::OdqConvExecutor> executor;
  float target_threshold = 0.0f;
};
OdqTunedModel odq_finetuned(const std::string& model_name, int variant);

// Run one test batch through a trained model and apply drq::analyze_layer to
// every conv layer (Figures 2-5 instrumentation). `output_threshold`
// defines output sensitivity; `drq_cfg.input_threshold < 0` requests
// per-layer quantile calibration at 50% sensitive regions.
std::vector<drq::LayerAnalysis> analyze_model_layers(
    const std::string& model_name, int variant, drq::DrqConfig drq_cfg,
    float output_threshold);

// Pretty printing.
void print_header(const std::string& bench, const std::string& reproduces,
                  const std::string& note = "");
void print_rule();

// ---- Machine-readable output ----------------------------------------------
//
// Benches can mirror their result rows into a JSON file for scripted
// consumption (regression tracking, plotting). Off by default; enabled by
//   * `--json <path>` on the bench command line (call json_init from main), or
//   * ODQ_BENCH_JSON=1        -> ./BENCH_<bench>.json
//     ODQ_BENCH_JSON=<dir>/   -> <dir>/BENCH_<bench>.json (trailing slash or
//                                existing directory)
//     ODQ_BENCH_JSON=<path>   -> exactly that file.
// print_header() opens the document (bench name, reproduces line, scale);
// json_row() appends one row; the file is written at process exit, so
// benches need no explicit flush/teardown.

// One cell of a row: string, float, integer, or bool.
struct JsonCell {
  enum class Kind { kString, kDouble, kInt, kBool } kind;
  std::string s;
  double d = 0.0;
  std::int64_t i = 0;
  bool b = false;

  JsonCell(const char* v) : kind(Kind::kString), s(v) {}
  JsonCell(std::string v) : kind(Kind::kString), s(std::move(v)) {}
  JsonCell(double v) : kind(Kind::kDouble), d(v) {}
  JsonCell(float v) : kind(Kind::kDouble), d(v) {}
  JsonCell(std::int64_t v) : kind(Kind::kInt), i(v) {}
  JsonCell(int v) : kind(Kind::kInt), i(v) {}
  JsonCell(std::size_t v) : kind(Kind::kInt), i(static_cast<std::int64_t>(v)) {}
  JsonCell(bool v) : kind(Kind::kBool), b(v) {}
};

// Parse `--json <path>` (also accepts ODQ_BENCH_JSON); safe to skip for
// benches whose main() takes no arguments — the env var still works.
void json_init(int argc, char** argv);
bool json_enabled();

// Append one row under `section` (e.g. "fig19", "host_wall_clock"). Keys are
// emitted in the order given. No-op when JSON output is disabled.
void json_row(const std::string& section,
              std::initializer_list<std::pair<std::string, JsonCell>> cells);

}  // namespace odq::bench
