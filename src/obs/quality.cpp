#include "obs/quality.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/json_read.hpp"
#include "util/logging.hpp"

namespace odq::obs {

using util::Status;
using util::StatusCode;
using util::StatusOr;

namespace {

// SQNR in the integer units a Series records (fractions use
// obs::basis_points).
std::uint64_t sqnr_cdb(double db) {
  return static_cast<std::uint64_t>(
      std::llround(std::clamp(db, 0.0, 300.0) * 100.0));
}

std::vector<double> normalized_hist(const FidelityLayerSnapshot& s) {
  std::vector<double> out(s.hist.size(), 0.0);
  std::uint64_t total = 0;
  for (std::uint64_t c : s.hist) total += c;
  if (total == 0) return out;
  for (std::size_t b = 0; b < s.hist.size(); ++b) {
    out[b] = static_cast<double>(s.hist[b]) / static_cast<double>(total);
  }
  return out;
}

}  // namespace

double quality_hist_distance(double p_lo, double p_hi,
                             const std::vector<double>& p, double q_lo,
                             double q_hi, const std::vector<double>& q) {
  if (p.empty() || q.empty()) return 0.0;
  if (p_lo == q_lo && p_hi == q_hi && p.size() == q.size()) {
    double d = 0.0;
    for (std::size_t b = 0; b < p.size(); ++b) d += std::abs(p[b] - q[b]);
    return 0.5 * d;
  }
  // Re-bin q into p's layout by bin midpoint, then compare.
  std::vector<double> r(p.size(), 0.0);
  const double qw = (q_hi - q_lo) / static_cast<double>(q.size());
  const double pw = (p_hi - p_lo) / static_cast<double>(p.size());
  for (std::size_t b = 0; b < q.size(); ++b) {
    if (q[b] == 0.0) continue;
    const double mid = q_lo + (static_cast<double>(b) + 0.5) * qw;
    auto bin = static_cast<std::int64_t>((mid - p_lo) / pw);
    bin = std::clamp<std::int64_t>(bin, 0,
                                   static_cast<std::int64_t>(p.size()) - 1);
    r[static_cast<std::size_t>(bin)] += q[b];
  }
  double d = 0.0;
  for (std::size_t b = 0; b < p.size(); ++b) d += std::abs(p[b] - r[b]);
  return 0.5 * d;
}

QualityBaseline make_quality_baseline(
    const std::vector<FidelityLayerSnapshot>& cells) {
  QualityBaseline base;
  for (const FidelityLayerSnapshot& s : cells) {
    if (s.predictor.count == 0) continue;  // non-ODQ cell: no mask split
    QualityBaselineLayer layer;
    layer.layer = s.layer;
    layer.threshold = s.threshold;
    layer.sensitive_fraction = s.sensitive_fraction();
    layer.sqnr_db = s.total.sqnr_db();
    layer.hist_lo = s.hist_lo;
    layer.hist_hi = s.hist_hi;
    layer.hist = normalized_hist(s);
    base.layers.push_back(std::move(layer));
  }
  std::sort(base.layers.begin(), base.layers.end(),
            [](const QualityBaselineLayer& a, const QualityBaselineLayer& b) {
              return a.layer < b.layer;
            });
  return base;
}

Status QualityBaseline::save(const std::string& path) const {
  util::JsonWriter w;
  w.begin_object();
  w.kv("doc", kQualityBaselineDoc);
  w.kv("version", kQualityBaselineVersion);
  w.kv("model", model);
  w.kv("scheme", scheme);
  w.kv("width", width);
  w.kv("threshold", static_cast<double>(threshold));
  w.kv("inputs", inputs);
  w.kv("seed", seed);
  w.kv("batch", batch);
  w.key("layers");
  w.begin_array();
  for (const QualityBaselineLayer& l : layers) {
    w.begin_object();
    w.kv("layer", static_cast<std::int64_t>(l.layer));
    w.kv("threshold", static_cast<double>(l.threshold));
    w.kv("sensitive_fraction", l.sensitive_fraction);
    w.kv("sqnr_db", l.sqnr_db);
    w.kv("hist_lo", l.hist_lo);
    w.kv("hist_hi", l.hist_hi);
    w.key("hist");
    w.begin_array();
    for (double v : l.hist) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return util::write_file_atomic(path, w.take() + "\n");
}

StatusOr<QualityBaseline> QualityBaseline::load(const std::string& path) {
  StatusOr<util::JsonValue> parsed = util::json_try_parse_file(path);
  if (!parsed.ok()) return parsed.status();
  const util::JsonValue& doc = parsed.value();
  if (doc.kind != util::JsonValue::Kind::kObject || !doc.has("doc") ||
      doc.at("doc").str != kQualityBaselineDoc) {
    return Status(StatusCode::kCorruption,
                  path + " is not an " + kQualityBaselineDoc + " document");
  }
  if (!doc.has("version") ||
      static_cast<int>(doc.at("version").num) != kQualityBaselineVersion) {
    return Status(StatusCode::kCorruption,
                  path + ": unsupported baseline version");
  }
  QualityBaseline base;
  base.model = doc.has("model") ? doc.at("model").str : "";
  base.scheme = doc.has("scheme") ? doc.at("scheme").str : "";
  base.width = doc.has("width") ? static_cast<std::int64_t>(doc.at("width").num)
                                : 8;
  base.threshold =
      doc.has("threshold") ? static_cast<float>(doc.at("threshold").num) : 0.0f;
  base.inputs = doc.has("inputs") ? doc.at("inputs").str : "";
  base.seed = doc.has("seed")
                  ? static_cast<std::uint64_t>(doc.at("seed").num)
                  : 0;
  base.batch =
      doc.has("batch") ? static_cast<std::int64_t>(doc.at("batch").num) : 0;
  if (!doc.has("layers") ||
      doc.at("layers").kind != util::JsonValue::Kind::kArray) {
    return Status(StatusCode::kCorruption, path + ": missing layers array");
  }
  for (const util::JsonValue& jl : doc.at("layers").arr) {
    if (jl.kind != util::JsonValue::Kind::kObject || !jl.has("layer")) {
      return Status(StatusCode::kCorruption, path + ": malformed layer entry");
    }
    QualityBaselineLayer l;
    l.layer = static_cast<int>(jl.at("layer").num);
    l.threshold =
        jl.has("threshold") ? static_cast<float>(jl.at("threshold").num) : 0.0f;
    l.sensitive_fraction =
        jl.has("sensitive_fraction") ? jl.at("sensitive_fraction").num : 0.0;
    l.sqnr_db = jl.has("sqnr_db") ? jl.at("sqnr_db").num : 0.0;
    l.hist_lo = jl.has("hist_lo") ? jl.at("hist_lo").num : 0.0;
    l.hist_hi = jl.has("hist_hi") ? jl.at("hist_hi").num : 0.0;
    if (jl.has("hist")) {
      for (const util::JsonValue& v : jl.at("hist").arr) {
        l.hist.push_back(v.num);
      }
    }
    base.layers.push_back(std::move(l));
  }
  std::sort(base.layers.begin(), base.layers.end(),
            [](const QualityBaselineLayer& a, const QualityBaselineLayer& b) {
              return a.layer < b.layer;
            });
  return base;
}

QualityMonitor::LayerState::LayerState(int layer)
    : sensitive_series(series("quality.sensitive_fraction.layer" +
                              std::to_string(layer))),
      sqnr_series(series("quality.sqnr_db.layer" + std::to_string(layer))),
      drift_series(
          series("quality.drift_distance.layer" + std::to_string(layer))),
      drift_counter(counter("quality.drift.layer" + std::to_string(layer))) {}

QualityMonitor::QualityMonitor(QualityConfig cfg)
    : cfg_(cfg), flight_(cfg.flight_capacity) {
  if (cfg_.drift_window <= 0) cfg_.drift_window = 1;
}

void QualityMonitor::set_baseline(QualityBaseline baseline) {
  std::lock_guard<std::mutex> lock(mutex_);
  baseline_ = std::move(baseline);
  have_baseline_ = true;
}

bool QualityMonitor::has_baseline() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return have_baseline_;
}

const QualityBaselineLayer* QualityMonitor::baseline_for(int layer) const {
  if (!have_baseline_) return nullptr;
  for (const QualityBaselineLayer& l : baseline_.layers) {
    if (l.layer == layer) return &l;
  }
  return nullptr;
}

void QualityMonitor::check_window(
    LayerState& st, int layer, std::uint64_t request_id,
    const tensor::Tensor& input,
    const std::vector<FidelityLayerSnapshot>& layers) {
  const QualityBaselineLayer* base = baseline_for(layer);
  if (base == nullptr) {
    if (have_baseline_ && !st.baseline_warned) {
      st.baseline_warned = true;
      ODQ_LOG_WARN("quality: layer %d absent from drift baseline; skipping",
                   layer);
    }
    return;
  }
  const double sens = st.window.sensitive_fraction();
  const double sens_delta = std::abs(sens - base->sensitive_fraction);
  const double distance = quality_hist_distance(
      st.window.hist_lo, st.window.hist_hi, normalized_hist(st.window),
      base->hist_lo, base->hist_hi, base->hist);
  st.window_distance = distance;
  st.drift_series.record(basis_points(distance));

  const bool hist_over = distance > cfg_.hist_drift_threshold;
  const bool sens_over = sens_delta > cfg_.sens_drift_threshold;
  if (st.armed && (hist_over || sens_over)) {
    st.armed = false;
    ++st.alerts;
    ++total_alerts_;
    static Counter& drift = counter("quality.drift");
    drift.increment();
    st.drift_counter.increment();
    const char* reason = hist_over && sens_over ? "hist_drift|sens_drift"
                         : hist_over            ? "hist_drift"
                                                : "sens_drift";
    ODQ_LOG_WARN(
        "quality: drift alert layer=%d reason=%s hist_tv=%.4f "
        "sensitive=%.4f baseline=%.4f (request %llu)",
        layer, reason, distance, sens, base->sensitive_fraction,
        static_cast<unsigned long long>(request_id));
    FlightRecord rec;
    rec.request_id = request_id;
    rec.reason = reason;
    rec.layer = layer;
    rec.distance = distance;
    rec.sens_delta = sens_delta;
    rec.input = input;
    rec.layers = layers;
    flight_.record(std::move(rec));
  } else if (!st.armed && distance < cfg_.hist_drift_threshold *
                                         cfg_.rearm_factor &&
             sens_delta < cfg_.sens_drift_threshold * cfg_.rearm_factor) {
    st.armed = true;
  }
}

void QualityMonitor::observe(std::uint64_t request_id,
                             const tensor::Tensor& input,
                             const std::vector<FidelityLayerSnapshot>& layers) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++observed_;
  for (const FidelityLayerSnapshot& s : layers) {
    if (s.total.count == 0) continue;
    LayerState& st = layers_.try_emplace(s.layer, s.layer).first->second;
    st.cumulative.merge(s);
    st.window.merge(s);
    ++st.requests;
    ++st.window_requests;
    st.sensitive_series.record(basis_points(s.sensitive_fraction()));
    st.sqnr_series.record(sqnr_cdb(s.total.sqnr_db()));
    if (st.window_requests >= cfg_.drift_window) {
      check_window(st, s.layer, request_id, input, layers);
      st.window = FidelityLayerSnapshot{};
      st.window_requests = 0;
    }
  }
}

std::vector<QualityMonitor::LayerSummary> QualityMonitor::summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return summary_locked();
}

std::vector<QualityMonitor::LayerSummary> QualityMonitor::summary_locked()
    const {
  std::vector<LayerSummary> out;
  out.reserve(layers_.size());
  for (const auto& [layer, st] : layers_) {
    LayerSummary s;
    s.layer = layer;
    s.requests = st.requests;
    s.sensitive_fraction = st.cumulative.sensitive_fraction();
    s.sqnr_db = st.cumulative.total.sqnr_db();
    s.window_distance = st.window_distance;
    s.alerts = st.alerts;
    s.drifted = !st.armed;
    if (const QualityBaselineLayer* base = baseline_for(layer)) {
      s.baseline_fraction = base->sensitive_fraction;
      s.drift_distance = quality_hist_distance(
          st.cumulative.hist_lo, st.cumulative.hist_hi,
          normalized_hist(st.cumulative), base->hist_lo, base->hist_hi,
          base->hist);
    }
    out.push_back(s);
  }
  return out;  // std::map iteration is layer-sorted
}

std::uint64_t QualityMonitor::observed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return observed_;
}

std::int64_t QualityMonitor::drift_alerts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_alerts_;
}

void QualityMonitor::drift_snapshot_json(util::JsonWriter& w) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<LayerSummary> layers = summary_locked();
  w.begin_object();
  w.kv("doc", "odq_drift_snapshot");
  w.kv("version", 1);
  w.key("config");
  w.begin_object();
  w.kv("drift_window", cfg_.drift_window);
  w.kv("hist_drift_threshold", cfg_.hist_drift_threshold);
  w.kv("sens_drift_threshold", cfg_.sens_drift_threshold);
  w.kv("rearm_factor", cfg_.rearm_factor);
  w.end_object();
  w.kv("has_baseline", have_baseline_);
  if (have_baseline_) {
    w.key("baseline");
    w.begin_object();
    w.kv("model", baseline_.model);
    w.kv("scheme", baseline_.scheme);
    w.kv("inputs", baseline_.inputs);
    w.kv("seed", baseline_.seed);
    w.kv("batch", baseline_.batch);
    w.end_object();
  }
  w.kv("observed", observed_);
  w.kv("drift_alerts", total_alerts_);
  w.kv("flight_records", flight_.total_recorded());
  w.key("layers");
  w.begin_array();
  for (const LayerSummary& s : layers) {
    w.begin_object();
    w.kv("layer", static_cast<std::int64_t>(s.layer));
    w.kv("requests", s.requests);
    w.kv("sensitive_fraction", s.sensitive_fraction);
    w.kv("baseline_fraction", s.baseline_fraction);
    w.kv("sqnr_db", s.sqnr_db);
    w.kv("drift_distance", s.drift_distance);
    w.kv("window_distance", s.window_distance);
    w.kv("alerts", s.alerts);
    w.kv("drifted", s.drifted);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace odq::obs
