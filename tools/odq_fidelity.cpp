// odq_fidelity — threshold-sweep numerical-fidelity report for ODQ.
//
//   odq_fidelity --model lenet5 --sweep --report fidelity.json
//
// Builds the requested model, runs one FP32 forward pass as the reference,
// then re-runs the same batch with the ODQ executor at each sensitivity
// threshold with the obs fidelity layer enabled. The report is the
// observability counterpart of the paper's Fig. 22 / Table 3: per threshold
// it records the sensitive-output fraction (read back from
// OdqConvExecutor::layer_stats, i.e. the exact counters odq_profile
// reports), per-layer SQNR / cosine / error attribution from
// obs::fidelity_snapshot, and two accuracy proxies — label accuracy on the
// synthetic batch and top-1 agreement with the FP32 forward pass.
//
// Options:
//   --model <name>       lenet5 | resnet20 | resnet56 | vgg16 | densenet
//   --sweep              sweep the default threshold ladder
//   --thresholds a,b,c   explicit comma-separated thresholds (implies sweep)
//   --batch <n>          batch size (default 8)
//   --width <w>          model width parameter (default 8)
//   --checkpoint <path>  v3 checkpoint loaded after deterministic init
//   --report <path>      JSON report (default: stdout)
//   --csv <path>         also mirror per-layer rows into a CSV file
//   --quiet              suppress the human-readable summary on stderr
//
// Without --sweep/--thresholds a single point at --threshold (default 0.15)
// is measured.
//
// Online-quality companion modes (docs/observability.md):
//
//   --emit-baseline <p>  calibrate a drift baseline: evaluate --batch
//                        synthetic requests one sample at a time (matching
//                        the serving path's per-sample quantization scales)
//                        under the ODQ executor at --threshold, and write
//                        the per-layer sensitive fraction / SQNR /
//                        normalized predictor-magnitude histogram as an
//                        odq_quality_baseline JSON for odq_serve
//                        --drift-baseline. --inputs uniform --seed s selects
//                        the uniform per-request generator odq_serve's load
//                        loop uses (same seed => same input stream).
//   --inputs <kind>      calibration inputs: digits (default) | uniform
//   --seed <s>           input stream seed for --inputs uniform (default 42)
//   --replay <dump>      load an anomaly flight-recorder dump (odq_serve
//                        --flight-dump), rebuild the model named in its
//                        header (checkpoint overridable via --checkpoint),
//                        re-evaluate every recorded input, and require the
//                        recomputed per-layer fidelity stats to match the
//                        recorded ones bit-for-bit; any divergence exits 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/odq.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "obs/fidelity.hpp"
#include "obs/flight.hpp"
#include "obs/quality.hpp"
#include "replica.hpp"
#include "serve/session.hpp"
#include "tool_main.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/status.hpp"

namespace {

using namespace odq;

struct Options {
  std::string model = "lenet5";
  std::string report_path;
  std::string csv_path;
  std::string checkpoint;
  std::string emit_baseline;
  std::string replay;
  std::string inputs = "digits";
  std::vector<float> thresholds;
  float threshold = 0.15f;
  bool sweep = false;
  std::int64_t batch = 8;
  std::int64_t width = 8;
  std::uint64_t seed = 42;
  bool quiet = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: odq_fidelity [--model lenet5|resnet20|resnet56|vgg16|"
               "densenet]\n"
               "                    [--sweep | --thresholds a,b,c] "
               "[--threshold t]\n"
               "                    [--batch n] [--width w] [--report out.json]"
               "\n"
               "                    [--csv out.csv] [--checkpoint ckpt.bin] "
               "[--quiet]\n"
               "                    [--emit-baseline base.json] "
               "[--inputs digits|uniform]\n"
               "                    [--seed s] [--replay flight.bin]\n");
  return 2;
}

std::vector<float> parse_thresholds(const char* arg) {
  std::vector<float> out;
  const std::string s = arg;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::strtof(s.substr(pos, comma - pos).c_str(), nullptr));
    pos = comma + 1;
  }
  return out;
}

std::vector<int> argmax_rows(const tensor::Tensor& logits) {
  const std::int64_t n = logits.shape()[0];
  const std::int64_t k = logits.numel() / n;
  std::vector<int> out(static_cast<std::size_t>(n), 0);
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * k;
    int best = 0;
    for (std::int64_t j = 1; j < k; ++j) {
      if (row[j] > row[best]) best = static_cast<int>(j);
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

double match_fraction(const std::vector<int>& a, const std::vector<int>& b) {
  std::int64_t hits = 0;
  for (std::size_t i = 0; i < a.size(); ++i) hits += a[i] == b[i] ? 1 : 0;
  return a.empty() ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(a.size());
}

// The serving session odq_serve builds (tools::make_replica): the baseline
// and the shadow lane must hold the same weights or drift would measure
// replica skew.
serve::ModelSession make_quality_session(const Options& opt,
                                         const std::string& scheme,
                                         float threshold) {
  core::OdqConfig cfg;
  cfg.threshold = threshold;
  return serve::ModelSession(
      tools::make_replica(opt.model, opt.width, opt.checkpoint),
      serve::make_conv_executor(scheme, cfg), scheme);
}

// Bit-exact comparison of two per-request snapshot sets (replay contract:
// the reference evaluation is deterministic, so every field — including
// the double-valued error sums — must reproduce exactly).
bool accum_equal(const obs::ErrorAccum& a, const obs::ErrorAccum& b) {
  return a.count == b.count && a.ref_sq == b.ref_sq && a.out_sq == b.out_sq &&
         a.dot == b.dot && a.err_sq == b.err_sq && a.err_abs == b.err_abs &&
         a.err_max == b.err_max;
}

bool snapshots_equal(const std::vector<obs::FidelityLayerSnapshot>& a,
                     const std::vector<obs::FidelityLayerSnapshot>& b,
                     std::string* why) {
  if (a.size() != b.size()) {
    *why = "layer count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const obs::FidelityLayerSnapshot& x = a[i];
    const obs::FidelityLayerSnapshot& y = b[i];
    const std::string at =
        "layer " + std::to_string(x.layer) + " (" + x.scheme + "): ";
    if (x.scheme != y.scheme || x.layer != y.layer) {
      *why = at + "cell identity mismatch";
      return false;
    }
    if (x.calls != y.calls) {
      *why = at + "calls differ";
      return false;
    }
    if (x.threshold != y.threshold) {
      *why = at + "threshold differs";
      return false;
    }
    if (!accum_equal(x.total, y.total) || !accum_equal(x.predictor, y.predictor) ||
        !accum_equal(x.sensitive, y.sensitive) ||
        !accum_equal(x.insensitive, y.insensitive)) {
      *why = at + "error accumulators differ";
      return false;
    }
    if (x.hist_lo != y.hist_lo || x.hist_hi != y.hist_hi ||
        x.hist != y.hist) {
      *why = at + "predictor-magnitude histogram differs";
      return false;
    }
  }
  return true;
}

// --emit-baseline: per-sample calibration pass -> odq_quality_baseline JSON.
int emit_baseline_main(const Options& opt) {
  serve::ModelSession session = make_quality_session(opt, "odq", opt.threshold);
  const tensor::Shape chw = nn::model_input_shape(opt.model);

  // Calibration inputs, evaluated one sample at a time: activation scales
  // are per-tensor at run time, so a [N,...] batch would quantize under a
  // different scale than serving's single-sample requests.
  data::TrainTest digits_data;
  if (opt.inputs == "digits") {
    digits_data = data::make_synthetic_digits(opt.batch, 1);
  } else if (opt.inputs != "uniform") {
    std::fprintf(stderr, "odq_fidelity: unknown --inputs kind '%s'\n",
                 opt.inputs.c_str());
    return 2;
  }

  obs::FidelityScope scope;
  for (std::int64_t id = 0; id < opt.batch; ++id) {
    tensor::Tensor x;
    if (opt.inputs == "uniform") {
      x = data::make_request_input(opt.seed, static_cast<std::uint64_t>(id),
                                   chw);
    } else {
      const tensor::Shape& ds = digits_data.train.images.shape();
      const std::int64_t sample = ds[1] * ds[2] * ds[3];
      x = tensor::Tensor(
          tensor::Shape{1, ds[1], ds[2], ds[3]},
          std::vector<float>(digits_data.train.images.data() + id * sample,
                             digits_data.train.images.data() +
                                 (id + 1) * sample));
    }
    (void)session.run(x);
  }

  obs::QualityBaseline base = obs::make_quality_baseline(scope.snapshot());
  base.model = opt.model;
  base.scheme = "odq";
  base.width = opt.width;
  base.threshold = opt.threshold;
  base.inputs = opt.inputs;
  base.seed = opt.seed;
  base.batch = opt.batch;
  const util::Status st = base.save(opt.emit_baseline);
  if (!st.ok()) {
    std::fprintf(stderr, "odq_fidelity: --emit-baseline: %s\n",
                 st.message().c_str());
    return 1;
  }
  if (!opt.quiet) {
    std::fprintf(stderr,
                 "odq_fidelity: baseline %s (%lld x %s requests, threshold "
                 "%.3f, %zu layer(s))\n",
                 opt.emit_baseline.c_str(), static_cast<long long>(opt.batch),
                 opt.inputs.c_str(), static_cast<double>(opt.threshold),
                 base.layers.size());
    for (const obs::QualityBaselineLayer& l : base.layers) {
      std::fprintf(stderr, "  layer %d: sensitive %.2f%%  sqnr %.1f dB\n",
                   l.layer, 100.0 * l.sensitive_fraction, l.sqnr_db);
    }
  }
  return 0;
}

// --replay: re-evaluate a flight dump and demand bit-identical stats.
int replay_main(const Options& opt) {
  util::StatusOr<obs::FlightDump> loaded =
      obs::FlightRecorder::load(opt.replay);
  if (!loaded.ok()) {
    std::fprintf(stderr, "odq_fidelity: --replay: %s\n",
                 loaded.status().message().c_str());
    return 1;
  }
  const obs::FlightDump& dump = loaded.value();

  Options ropt = opt;
  ropt.model = dump.context.model;
  ropt.width = dump.context.width;
  if (ropt.checkpoint.empty()) ropt.checkpoint = dump.context.checkpoint;
  serve::ModelSession session = make_quality_session(
      ropt, dump.context.scheme, dump.context.threshold);

  if (!opt.quiet) {
    std::fprintf(stderr,
                 "odq_fidelity: replaying %zu record(s) from %s "
                 "(model %s, scheme %s, threshold %.3f)\n",
                 dump.records.size(), opt.replay.c_str(),
                 dump.context.model.c_str(), dump.context.scheme.c_str(),
                 static_cast<double>(dump.context.threshold));
  }
  int failures = 0;
  for (std::size_t i = 0; i < dump.records.size(); ++i) {
    const obs::FlightRecord& rec = dump.records[i];
    obs::FidelityScope scope;
    (void)session.run(rec.input);
    std::string why;
    const bool ok = snapshots_equal(rec.layers, scope.snapshot(), &why);
    if (!ok) ++failures;
    if (!opt.quiet || !ok) {
      std::fprintf(stderr,
                   "  record %zu: request %llu (%s, layer %d, tv %.4f): %s%s\n",
                   i, static_cast<unsigned long long>(rec.request_id),
                   rec.reason.c_str(), rec.layer, rec.distance,
                   ok ? "stats reproduced bit-identically" : "MISMATCH: ",
                   ok ? "" : why.c_str());
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "odq_fidelity: --replay: %d of %zu record(s) "
                 "diverged\n",
                 failures, dump.records.size());
    return 1;
  }
  if (!opt.quiet) {
    std::fprintf(stderr, "odq_fidelity: replay OK (%zu record(s))\n",
                 dump.records.size());
  }
  return 0;
}

// One measured sweep point.
struct SweepPoint {
  float threshold = 0.0f;
  double accuracy = 0.0;        // label accuracy on the batch
  double fp32_agreement = 0.0;  // top-1 agreement with the FP32 pass
  double mean_sensitive_fraction = 0.0;
  double mean_sqnr_db = 0.0;
  std::vector<core::OdqLayerStats> layer_stats;       // by conv id
  std::vector<obs::FidelityLayerSnapshot> fidelity;   // "odq" cells, by layer
};

}  // namespace

int tool_main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "odq_fidelity: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--model") {
      opt.model = next("--model");
    } else if (a == "--sweep") {
      opt.sweep = true;
    } else if (a == "--thresholds") {
      opt.thresholds = parse_thresholds(next("--thresholds"));
      opt.sweep = true;
    } else if (a == "--threshold") {
      opt.threshold = std::strtof(next("--threshold"), nullptr);
    } else if (a == "--report") {
      opt.report_path = next("--report");
    } else if (a == "--csv") {
      opt.csv_path = next("--csv");
    } else if (a == "--batch") {
      opt.batch = std::atoll(next("--batch"));
    } else if (a == "--width") {
      opt.width = std::atoll(next("--width"));
    } else if (a == "--checkpoint") {
      opt.checkpoint = next("--checkpoint");
    } else if (a == "--emit-baseline") {
      opt.emit_baseline = next("--emit-baseline");
    } else if (a == "--replay") {
      opt.replay = next("--replay");
    } else if (a == "--inputs") {
      opt.inputs = next("--inputs");
    } else if (a == "--seed") {
      opt.seed = std::strtoull(next("--seed"), nullptr, 0);
    } else if (a == "--quiet") {
      opt.quiet = true;
    } else {
      return usage();
    }
  }
  if (opt.batch <= 0 || opt.width <= 0) return usage();
  if (!opt.replay.empty()) return replay_main(opt);
  if (!opt.emit_baseline.empty()) return emit_baseline_main(opt);
  if (opt.sweep && opt.thresholds.empty()) {
    opt.thresholds = {0.0f,  0.05f, 0.1f, 0.15f,
                      0.2f,  0.3f,  0.5f, 0.8f};
  }
  if (!opt.sweep) opt.thresholds = {opt.threshold};

  {
    nn::Model model =
        tools::make_replica(opt.model, opt.width, opt.checkpoint);
    const std::size_t num_convs = model.assign_conv_ids().size();

    const bool digits = opt.model == "lenet" || opt.model == "lenet5";
    data::TrainTest data;
    if (digits) {
      data = data::make_synthetic_digits(opt.batch, 1);
    } else {
      data::SyntheticConfig dcfg;
      dcfg.num_classes = nn::kZooClasses;
      dcfg.noise = 0.05f;
      data = data::make_synthetic_images(dcfg, opt.batch, 1);
    }
    const tensor::Shape& ds = data.train.images.shape();
    tensor::Tensor batch(
        tensor::Shape{opt.batch, ds[1], ds[2], ds[3]},
        std::vector<float>(data.train.images.data(),
                           data.train.images.data() +
                               opt.batch * ds[1] * ds[2] * ds[3]));
    std::vector<int> labels(data.train.labels.begin(),
                            data.train.labels.begin() + opt.batch);

    // FP32 reference pass (no executor).
    const tensor::Tensor fp32_logits = model.forward(batch, /*train=*/false);
    const std::vector<int> fp32_top1 = argmax_rows(fp32_logits);
    const double fp32_accuracy = [&] {
      std::int64_t hits = 0;
      for (std::size_t i = 0; i < labels.size(); ++i) {
        hits += fp32_top1[i] == labels[i] ? 1 : 0;
      }
      return static_cast<double>(hits) / static_cast<double>(labels.size());
    }();

    obs::set_fidelity_enabled(true);

    std::vector<SweepPoint> points;
    for (float thr : opt.thresholds) {
      obs::fidelity_reset();
      core::OdqConfig cfg;
      cfg.threshold = thr;
      auto exec = std::make_shared<core::OdqConvExecutor>(cfg);
      model.set_conv_executor(exec);
      const tensor::Tensor logits = model.forward(batch, /*train=*/false);
      model.set_conv_executor(nullptr);

      SweepPoint p;
      p.threshold = thr;
      const std::vector<int> top1 = argmax_rows(logits);
      p.fp32_agreement = match_fraction(top1, fp32_top1);
      {
        std::int64_t hits = 0;
        for (std::size_t i = 0; i < labels.size(); ++i) {
          hits += top1[i] == labels[i] ? 1 : 0;
        }
        p.accuracy =
            static_cast<double>(hits) / static_cast<double>(labels.size());
      }
      for (std::size_t id = 0; id < num_convs; ++id) {
        p.layer_stats.push_back(exec->layer_stats(static_cast<int>(id)));
      }
      for (obs::FidelityLayerSnapshot& s : obs::fidelity_snapshot()) {
        if (s.scheme == "odq") p.fidelity.push_back(std::move(s));
      }
      double frac_sum = 0.0, sqnr_sum = 0.0;
      for (const core::OdqLayerStats& s : p.layer_stats) {
        frac_sum += s.sensitive_fraction();
      }
      for (const obs::FidelityLayerSnapshot& s : p.fidelity) {
        sqnr_sum += s.total.sqnr_db();
      }
      p.mean_sensitive_fraction =
          num_convs > 0 ? frac_sum / static_cast<double>(num_convs) : 0.0;
      p.mean_sqnr_db = p.fidelity.empty()
                           ? 0.0
                           : sqnr_sum / static_cast<double>(p.fidelity.size());
      points.push_back(std::move(p));
    }
    obs::set_fidelity_enabled(false);

    // JSON report.
    util::JsonWriter w;
    w.begin_object();
    w.kv("model", opt.model);
    w.kv("batch", opt.batch);
    w.kv("width", opt.width);
    w.kv("num_conv_layers", static_cast<std::int64_t>(num_convs));
    w.kv("fp32_accuracy", fp32_accuracy);
    w.key("sweep");
    w.begin_array();
    for (const SweepPoint& p : points) {
      w.begin_object();
      w.kv("threshold", static_cast<double>(p.threshold));
      w.kv("accuracy", p.accuracy);
      w.kv("fp32_agreement", p.fp32_agreement);
      w.kv("mean_sensitive_fraction", p.mean_sensitive_fraction);
      w.kv("mean_sqnr_db", p.mean_sqnr_db);
      w.key("layers");
      w.begin_array();
      for (const obs::FidelityLayerSnapshot& s : p.fidelity) {
        const auto id = static_cast<std::size_t>(s.layer);
        const core::OdqLayerStats stats =
            id < p.layer_stats.size() ? p.layer_stats[id]
                                      : core::OdqLayerStats{};
        w.begin_object();
        w.kv("conv_id", static_cast<std::int64_t>(s.layer));
        // Exact executor counters (the same numbers odq_profile reports).
        w.kv("outputs", stats.outputs);
        w.kv("sensitive", stats.sensitive);
        w.kv("sensitive_fraction", stats.sensitive_fraction());
        // Calls whose input had no positive value: a dead layer.
        w.kv("collapsed", stats.collapsed);
        w.kv("sqnr_db", s.total.sqnr_db());
        w.kv("cosine", s.total.cosine());
        w.kv("max_abs_err", s.total.err_max);
        w.kv("mean_abs_err", s.total.mean_abs_err());
        w.kv("predictor_sqnr_db", s.predictor.sqnr_db());
        w.kv("sensitive_sqnr_db", s.sensitive.sqnr_db());
        w.kv("insensitive_sqnr_db", s.insensitive.sqnr_db());
        w.kv("pred_mass_above_threshold",
             s.hist_fraction_above(static_cast<double>(s.threshold)));
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();

    const std::string report = w.take();
    if (opt.report_path.empty()) {
      std::printf("%s\n", report.c_str());
    } else {
      const util::Status st = util::write_file(opt.report_path, report + "\n");
      if (!st.ok()) {
        std::fprintf(stderr, "odq_fidelity: --report: %s\n",
                     st.message().c_str());
        return 2;
      }
    }

    if (!opt.csv_path.empty()) {
      std::FILE* f = std::fopen(opt.csv_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "odq_fidelity: cannot open %s\n",
                     opt.csv_path.c_str());
        return 2;
      }
      std::fprintf(f,
                   "threshold,conv_id,sensitive_fraction,collapsed,sqnr_db,"
                   "cosine,max_abs_err,mean_abs_err,predictor_sqnr_db,"
                   "fp32_agreement,accuracy\n");
      for (const SweepPoint& p : points) {
        for (const obs::FidelityLayerSnapshot& s : p.fidelity) {
          const auto id = static_cast<std::size_t>(s.layer);
          const core::OdqLayerStats stats =
              id < p.layer_stats.size() ? p.layer_stats[id]
                                        : core::OdqLayerStats{};
          std::fprintf(f,
                       "%.6f,%d,%.6f,%lld,%.3f,%.6f,%.6g,%.6g,%.3f,%.4f,%.4f\n",
                       p.threshold, s.layer, stats.sensitive_fraction(),
                       static_cast<long long>(stats.collapsed),
                       s.total.sqnr_db(), s.total.cosine(), s.total.err_max,
                       s.total.mean_abs_err(), s.predictor.sqnr_db(),
                       p.fp32_agreement, p.accuracy);
        }
      }
      std::fclose(f);
    }

    if (!opt.quiet) {
      std::fprintf(stderr, "%-10s %8s %8s %9s %9s %8s\n", "threshold",
                   "sens %", "SQNR dB", "pred dB", "agree %", "acc %");
      for (const SweepPoint& p : points) {
        double pred_sum = 0.0;
        for (const obs::FidelityLayerSnapshot& s : p.fidelity) {
          pred_sum += s.predictor.sqnr_db();
        }
        const double pred_mean =
            p.fidelity.empty()
                ? 0.0
                : pred_sum / static_cast<double>(p.fidelity.size());
        std::fprintf(stderr, "%-10.4f %7.1f%% %8.2f %9.2f %8.1f%% %7.1f%%\n",
                     p.threshold, 100.0 * p.mean_sensitive_fraction,
                     p.mean_sqnr_db, pred_mean, 100.0 * p.fp32_agreement,
                     100.0 * p.accuracy);
      }
      if (!opt.report_path.empty()) {
        std::fprintf(stderr, "report -> %s\n", opt.report_path.c_str());
      }
    }
    return 0;
  }
}

int main(int argc, char** argv) {
  return odq::tools::run_guarded("odq_fidelity",
                                 [&] { return tool_main(argc, argv); });
}
