// Online quality monitoring for the serving path.
//
// The shadow lane (serve/shadow.hpp) re-evaluates a deterministic sample of
// live requests under a FidelityScope and hands each request's per-layer
// fidelity cells to the QualityMonitor here. The monitor:
//
//   * folds the per-request cells into cumulative and tumbling-window
//     accumulators via FidelityLayerSnapshot::merge (no quadratic
//     re-snapshotting);
//   * feeds per-layer metric series — quality.sensitive_fraction
//     .layer<k> (basis points, 0..10000), quality.sqnr_db.layer<k>
//     (centi-dB, clamped to [0, 30000]) and quality.drift_distance.layer<k>
//     (basis points) — which the MetricsExporter ships to the JSON/
//     Prometheus snapshots rendered by odq_top;
//   * every completed window of `drift_window` sampled requests, compares
//     the window's predictor-magnitude histogram (total-variation distance)
//     and sensitive fraction against a committed calibration baseline
//     (odq_fidelity --emit-baseline), and raises a drift alert when either
//     exceeds its threshold. Alerts are hysteretic: once fired, a layer
//     re-arms only after both statistics fall back below threshold *
//     rearm_factor, so a persistent shift fires once, not once per window.
//   * on alert, bumps the quality.drift counters, logs one warning
//     exemplar, and snapshots the offending request (input tensor +
//     per-layer stats) into the flight recorder (obs/flight.hpp) for
//     offline replay via odq_fidelity --replay.
//
// Thread model: observe() is called from the single shadow-lane thread;
// summary()/drift_alerts()/drift_snapshot_json() may race with it from the
// main thread — all state is guarded by one mutex (the shadow lane is off
// the serving hot path, so the lock is uncontended where it matters).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/fidelity.hpp"
#include "obs/flight.hpp"
#include "tensor/tensor.hpp"
#include "util/status.hpp"

namespace odq::util {
class JsonWriter;
}  // namespace odq::util

namespace odq::obs {

class Counter;
class Series;

// Baseline JSON document tag / version (odq_fidelity --emit-baseline).
inline constexpr const char* kQualityBaselineDoc = "odq_quality_baseline";
inline constexpr int kQualityBaselineVersion = 1;

// Per-layer calibration statistics the drift detector compares against.
struct QualityBaselineLayer {
  int layer = -1;
  float threshold = 0.0f;
  double sensitive_fraction = 0.0;
  double sqnr_db = 0.0;
  // Normalized |dequantized predictor| magnitude histogram (sums to 1 when
  // any sample landed; same fixed-width-bin layout as FidelityLayerSnapshot).
  double hist_lo = 0.0;
  double hist_hi = 0.0;
  std::vector<double> hist;
};

// Calibration baseline: what the per-layer quality statistics looked like
// on in-distribution traffic, plus the provenance needed to regenerate it.
struct QualityBaseline {
  std::string model;
  std::string scheme;
  std::int64_t width = 8;
  float threshold = 0.0f;
  std::string inputs;       // input generator name, e.g. "uniform"
  std::uint64_t seed = 0;
  std::int64_t batch = 0;   // number of calibration requests
  std::vector<QualityBaselineLayer> layers;  // sorted by layer id

  // Serialize to `path` atomically (tmp + rename, valid-or-absent).
  util::Status save(const std::string& path) const;
  // Parse and validate a baseline document.
  static util::StatusOr<QualityBaseline> load(const std::string& path);
};

// Build a baseline from fidelity cells accumulated over calibration
// traffic (only cells with ODQ mask data contribute layers).
QualityBaseline make_quality_baseline(
    const std::vector<FidelityLayerSnapshot>& cells);

// Total-variation distance (0.5 * sum |p - q|, in [0, 1]) between two
// normalized fixed-width-bin histograms. Mismatched bounds re-bin `q` into
// `p`'s layout by bin midpoint. Either side empty => 0 (no evidence).
double quality_hist_distance(double p_lo, double p_hi,
                             const std::vector<double>& p, double q_lo,
                             double q_hi, const std::vector<double>& q);

struct QualityConfig {
  // Sampled requests per tumbling drift-detection window.
  std::int64_t drift_window = 8;
  // Alert when the window histogram's TV distance from baseline exceeds
  // this...
  double hist_drift_threshold = 0.10;
  // ...or the window sensitive fraction moves further than this from the
  // baseline fraction (absolute).
  double sens_drift_threshold = 0.05;
  // Hysteresis: a fired layer re-arms once both statistics fall below
  // threshold * rearm_factor.
  double rearm_factor = 0.5;
  std::size_t flight_capacity = kDefaultFlightCapacity;
};

class QualityMonitor {
 public:
  explicit QualityMonitor(QualityConfig cfg = {});

  QualityMonitor(const QualityMonitor&) = delete;
  QualityMonitor& operator=(const QualityMonitor&) = delete;

  // Install the drift baseline. Without one, observe() still accumulates
  // and feeds its metric series but never raises drift alerts.
  void set_baseline(QualityBaseline baseline);
  bool has_baseline() const;

  // Fold one shadow-evaluated request into the monitor: `layers` are the
  // per-request fidelity cells from the FidelityScope that wrapped the
  // reference evaluation, `input` the request tensor (copied into the
  // flight recorder only when this request trips the detector).
  void observe(std::uint64_t request_id, const tensor::Tensor& input,
               const std::vector<FidelityLayerSnapshot>& layers);

  struct LayerSummary {
    int layer = -1;
    std::int64_t requests = 0;        // sampled requests folded in
    double sensitive_fraction = 0.0;  // cumulative, exact mask-side counts
    double sqnr_db = 0.0;             // cumulative scheme-vs-FP32 SQNR
    double drift_distance = 0.0;      // cumulative hist TV vs baseline
    double window_distance = 0.0;     // last completed window's TV distance
    double baseline_fraction = 0.0;   // baseline sensitive fraction
    std::int64_t alerts = 0;
    bool drifted = false;             // currently fired (not yet re-armed)
  };

  // Per-layer cumulative view, sorted by layer id. `drift_distance` and
  // `sensitive_fraction` derive from order-independent integer counts, so
  // they are bit-deterministic for a fixed request set regardless of
  // arrival order (the serve bench gate relies on this).
  std::vector<LayerSummary> summary() const;

  std::uint64_t observed() const;       // requests folded in
  std::int64_t drift_alerts() const;    // total alerts across layers

  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }

  // {"doc":"odq_drift_snapshot",...} document with config, baseline
  // provenance and the per-layer summary (odq_serve --drift-snapshot).
  void drift_snapshot_json(util::JsonWriter& w) const;

 private:
  struct LayerState {
    // Resolves the layer's metric handles once, when the layer is first
    // seen (a registry lookup takes its mutex).
    explicit LayerState(int layer);

    Series& sensitive_series;  // quality.sensitive_fraction.layer<k>
    Series& sqnr_series;       // quality.sqnr_db.layer<k>
    Series& drift_series;      // quality.drift_distance.layer<k>
    Counter& drift_counter;    // quality.drift.layer<k>
    FidelityLayerSnapshot cumulative;
    FidelityLayerSnapshot window;
    std::int64_t window_requests = 0;
    std::int64_t requests = 0;
    double window_distance = 0.0;
    std::int64_t alerts = 0;
    bool armed = true;
    bool baseline_warned = false;
  };

  // Requires mutex_. Returns the baseline layer or nullptr.
  const QualityBaselineLayer* baseline_for(int layer) const;
  // Requires mutex_.
  std::vector<LayerSummary> summary_locked() const;
  // Requires mutex_. Runs the drift check for a completed window.
  void check_window(LayerState& st, int layer, std::uint64_t request_id,
                    const tensor::Tensor& input,
                    const std::vector<FidelityLayerSnapshot>& layers);

  QualityConfig cfg_;
  FlightRecorder flight_;

  mutable std::mutex mutex_;
  bool have_baseline_ = false;
  QualityBaseline baseline_;
  std::map<int, LayerState> layers_;
  std::uint64_t observed_ = 0;
  std::int64_t total_alerts_ = 0;
};

}  // namespace odq::obs
