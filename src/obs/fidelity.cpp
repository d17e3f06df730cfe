#include "obs/fidelity.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>


namespace odq::obs {

namespace {

std::atomic<int> g_fidelity_enabled{-1};  // -1: read ODQ_FIDELITY on first use

struct Cell {
  std::int64_t calls = 0;
  float threshold = 0.0f;
  ErrorAccum total;
  ErrorAccum predictor;
  ErrorAccum sensitive;
  ErrorAccum insensitive;
  double hist_lo = 0.0;
  double hist_hi = 0.0;
  std::vector<std::uint64_t> hist;  // empty until the first ODQ record
};

struct Registry {
  std::mutex mutex;
  std::map<std::pair<std::string, int>, Cell> cells;
};

// Leaked on purpose: executors may record during static destruction.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

// Scope redirection: when a FidelityScope is alive on this thread, records
// land in its private registry instead of the global one.
thread_local Registry* t_scope_registry = nullptr;

Registry& active_registry() {
  return t_scope_registry != nullptr ? *t_scope_registry : registry();
}

// Histogram bounds for a cell: anchored at the threshold when there is one
// (the overlay point lands on an exact bin edge at 1/4 of the range), else
// a unit range. The last bin absorbs overflow, the first clamps negatives.
double hist_hi_for(float threshold) {
  return threshold > 0.0f ? 4.0 * static_cast<double>(threshold) : 1.0;
}

void hist_add(Cell& c, double x) {
  const double w = (c.hist_hi - c.hist_lo) / static_cast<double>(c.hist.size());
  auto bin = static_cast<std::int64_t>((x - c.hist_lo) / w);
  bin = std::clamp<std::int64_t>(bin, 0,
                                 static_cast<std::int64_t>(c.hist.size()) - 1);
  ++c.hist[static_cast<std::size_t>(bin)];
}

}  // namespace

bool fidelity_enabled() {
  if (t_scope_registry != nullptr) return true;
  int v = g_fidelity_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* env = std::getenv("ODQ_FIDELITY");
    v = (env != nullptr && env[0] != '\0' && std::string(env) != "0") ? 1 : 0;
    g_fidelity_enabled.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void set_fidelity_enabled(bool on) {
  g_fidelity_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

double ErrorAccum::sqnr_db() const {
  if (count == 0) return 0.0;
  if (err_sq <= 0.0) return 300.0;  // exact match
  if (ref_sq <= 0.0) return -300.0;
  return std::clamp(10.0 * std::log10(ref_sq / err_sq), -300.0, 300.0);
}

double ErrorAccum::cosine() const {
  const double denom = std::sqrt(ref_sq) * std::sqrt(out_sq);
  if (denom <= 0.0) return 1.0;
  return dot / denom;
}

double ErrorAccum::rmse() const {
  return count > 0 ? std::sqrt(err_sq / static_cast<double>(count)) : 0.0;
}

void ErrorAccum::add(double ref, double out) {
  const double err = out - ref;
  ++count;
  ref_sq += ref * ref;
  out_sq += out * out;
  dot += ref * out;
  err_sq += err * err;
  err_abs += std::abs(err);
  err_max = std::max(err_max, std::abs(err));
}

void ErrorAccum::merge(const ErrorAccum& other) {
  count += other.count;
  ref_sq += other.ref_sq;
  out_sq += other.out_sq;
  dot += other.dot;
  err_sq += other.err_sq;
  err_abs += other.err_abs;
  err_max = std::max(err_max, other.err_max);
}

std::uint64_t FidelityLayerSnapshot::hist_total() const {
  std::uint64_t t = 0;
  for (std::uint64_t c : hist) t += c;
  return t;
}

double FidelityLayerSnapshot::hist_fraction_above(double t) const {
  const std::uint64_t total = hist_total();
  if (total == 0 || hist.empty()) return 0.0;
  const double w = (hist_hi - hist_lo) / static_cast<double>(hist.size());
  std::uint64_t above = 0;
  for (std::size_t b = 0; b < hist.size(); ++b) {
    if (hist_lo + static_cast<double>(b) * w >= t) above += hist[b];
  }
  return static_cast<double>(above) / static_cast<double>(total);
}

void fidelity_record(const std::string& scheme, int layer, const float* ref,
                     const float* out, std::int64_t n) {
  if (!fidelity_enabled()) return;
  ErrorAccum acc;
  for (std::int64_t i = 0; i < n; ++i) acc.add(ref[i], out[i]);

  Registry& r = active_registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  Cell& c = r.cells[{scheme, layer}];
  ++c.calls;
  c.total.merge(acc);
}

void fidelity_record_odq(const std::string& scheme, int layer, float threshold,
                         const float* ref, const float* full,
                         const float* pred_out, const float* pred_mag,
                         const std::uint8_t* mask, std::int64_t n) {
  if (!fidelity_enabled()) return;
  ErrorAccum total, predictor, sens, insens;
  for (std::int64_t i = 0; i < n; ++i) {
    total.add(ref[i], full[i]);
    predictor.add(ref[i], pred_out[i]);
    if (mask[i] != 0) {
      sens.add(ref[i], full[i]);
    } else {
      insens.add(ref[i], full[i]);
    }
  }

  Registry& r = active_registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  Cell& c = r.cells[{scheme, layer}];
  ++c.calls;
  c.threshold = threshold;
  c.total.merge(total);
  c.predictor.merge(predictor);
  c.sensitive.merge(sens);
  c.insensitive.merge(insens);
  if (c.hist.empty()) {
    c.hist_lo = 0.0;
    c.hist_hi = hist_hi_for(threshold);
    c.hist.assign(kFidelityHistBins, 0);
  }
  for (std::int64_t i = 0; i < n; ++i) {
    hist_add(c, static_cast<double>(pred_mag[i]));
  }
}

void FidelityLayerSnapshot::merge(const FidelityLayerSnapshot& other) {
  calls += other.calls;
  if (other.threshold != 0.0f) threshold = other.threshold;
  total.merge(other.total);
  predictor.merge(other.predictor);
  sensitive.merge(other.sensitive);
  insensitive.merge(other.insensitive);
  if (other.hist.empty()) return;
  if (hist.empty()) {
    hist_lo = other.hist_lo;
    hist_hi = other.hist_hi;
    hist = other.hist;
    return;
  }
  if (other.hist_lo == hist_lo && other.hist_hi == hist_hi &&
      other.hist.size() == hist.size()) {
    for (std::size_t b = 0; b < hist.size(); ++b) hist[b] += other.hist[b];
    return;
  }
  // Bound mismatch (e.g. a threshold change between requests): re-bin by
  // bin midpoint into this cell's layout. Lossy at bin granularity, which
  // is all the histogram ever promised.
  const double ow = (other.hist_hi - other.hist_lo) /
                    static_cast<double>(other.hist.size());
  const double w = (hist_hi - hist_lo) / static_cast<double>(hist.size());
  for (std::size_t b = 0; b < other.hist.size(); ++b) {
    if (other.hist[b] == 0) continue;
    const double mid = other.hist_lo + (static_cast<double>(b) + 0.5) * ow;
    auto bin = static_cast<std::int64_t>((mid - hist_lo) / w);
    bin = std::clamp<std::int64_t>(
        bin, 0, static_cast<std::int64_t>(hist.size()) - 1);
    hist[static_cast<std::size_t>(bin)] += other.hist[b];
  }
}

namespace {

std::vector<FidelityLayerSnapshot> snapshot_registry(Registry& r) {
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<FidelityLayerSnapshot> out;
  out.reserve(r.cells.size());
  for (const auto& [key, c] : r.cells) {
    FidelityLayerSnapshot s;
    s.scheme = key.first;
    s.layer = key.second;
    s.calls = c.calls;
    s.threshold = c.threshold;
    s.total = c.total;
    s.predictor = c.predictor;
    s.sensitive = c.sensitive;
    s.insensitive = c.insensitive;
    s.hist_lo = c.hist_lo;
    s.hist_hi = c.hist_hi;
    s.hist = c.hist;
    out.push_back(std::move(s));
  }
  return out;  // std::map iteration is already (scheme, layer)-sorted
}

}  // namespace

std::vector<FidelityLayerSnapshot> fidelity_snapshot() {
  return snapshot_registry(registry());
}

FidelityScope::FidelityScope()
    : registry_(new Registry), prev_(t_scope_registry) {
  t_scope_registry = static_cast<Registry*>(registry_);
}

FidelityScope::~FidelityScope() {
  t_scope_registry = static_cast<Registry*>(prev_);
  delete static_cast<Registry*>(registry_);
}

std::vector<FidelityLayerSnapshot> FidelityScope::snapshot() const {
  return snapshot_registry(*static_cast<Registry*>(registry_));
}

void FidelityScope::reset() {
  Registry& r = *static_cast<Registry*>(registry_);
  std::lock_guard<std::mutex> lock(r.mutex);
  r.cells.clear();
}

void fidelity_reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.cells.clear();
}

}  // namespace odq::obs
