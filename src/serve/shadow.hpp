// Shadow-FP32 quality sampling lane for the serving engine.
//
// A ShadowLane owns one extra InferenceSession and a single low-priority
// background thread. Engine workers call offer(tag, input) after each
// successful request; the lane
//
//   * decides deterministically whether the request is sampled — a
//     SplitMix64 finalizer over the caller-supplied tag and the configured
//     seed, taken modulo `rate` (1-in-N). The decision depends only on
//     (seed, rate, tag), never on arrival order, worker count, or time, so
//     a replayed load samples the identical request set;
//   * if sampled, copies the input into a bounded queue. offer() never
//     blocks the serving hot path: a full queue drops the sample and bumps
//     quality.shadow_dropped. With rate == 0 the lane is fully off and
//     offer() is a single branch;
//   * the lane thread re-runs each queued input under a FidelityScope
//     (fidelity force-enabled and redirected thread-locally, so the global
//     registry and the serving workers are untouched), which makes the
//     instrumented executor compare every conv against the FP32 reference,
//     then hands the per-request cells to the QualityMonitor for
//     accumulation, metric series, and drift detection (obs/quality.hpp).
//
// stop() drains everything already accepted and joins, so after stop()
// the monitor has seen every sampled request — CI asserts exact sample
// counts. Counters: quality.shadow_samples (sampled), .shadow_evaluated
// (reference runs completed), .shadow_dropped (queue-full drops),
// .shadow_errors (reference run threw).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/quality.hpp"
#include "serve/session.hpp"
#include "tensor/tensor.hpp"

namespace odq::serve {

struct ShadowConfig {
  // Sample 1 in `rate` requests by tag; 0 disables the lane entirely.
  std::uint64_t rate = 0;
  std::uint64_t seed = 0;  // decorrelates sampling across deployments
  std::size_t queue_capacity = 256;  // pending shadow evaluations
  obs::QualityConfig quality;
};

class ShadowLane {
 public:
  // `session` is the reference-evaluation replica (same model/scheme as
  // the serving sessions; its instrumented executor is what produces the
  // fidelity cells). The lane thread starts immediately unless rate == 0.
  ShadowLane(ShadowConfig cfg, std::unique_ptr<InferenceSession> session);
  ~ShadowLane();

  ShadowLane(const ShadowLane&) = delete;
  ShadowLane& operator=(const ShadowLane&) = delete;

  // Deterministic sampling predicate (pure; exposed for tests and tools).
  bool sampled(std::uint64_t tag) const;

  // Called by engine workers per successful request. Never blocks.
  void offer(std::uint64_t tag, const tensor::Tensor& input);

  // Drain the queue, evaluate everything accepted, join. Idempotent.
  void stop();

  obs::QualityMonitor& monitor() { return monitor_; }
  const obs::QualityMonitor& monitor() const { return monitor_; }

  std::uint64_t samples() const;    // offered & sampled (incl. dropped)
  std::uint64_t evaluated() const;  // reference runs completed
  std::uint64_t dropped() const;    // sampled but queue was full
  std::uint64_t errors() const;     // reference runs that threw

 private:
  struct Item {
    std::uint64_t tag = 0;
    tensor::Tensor input;
  };

  void run();

  ShadowConfig cfg_;
  std::unique_ptr<InferenceSession> session_;
  obs::QualityMonitor monitor_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Item> queue_;
  bool stopping_ = false;
  std::uint64_t samples_ = 0;
  std::uint64_t evaluated_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t errors_ = 0;
  std::thread thread_;
};

}  // namespace odq::serve
