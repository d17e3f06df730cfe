#include "serve/shadow.hpp"

#include <exception>
#include <utility>

#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace odq::serve {

namespace {

// SplitMix64 finalizer: a cheap, well-mixed hash so "1 in N by tag" picks
// an unbiased, deterministic subset even for sequential tags.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Resolved once: a registry lookup takes its mutex.
struct ShadowMetrics {
  obs::Counter& samples = obs::counter("quality.shadow_samples");
  obs::Counter& dropped = obs::counter("quality.shadow_dropped");
  obs::Counter& evaluated = obs::counter("quality.shadow_evaluated");
  obs::Counter& errors = obs::counter("quality.shadow_errors");
};

ShadowMetrics& shadow_metrics() {
  static ShadowMetrics m;
  return m;
}

}  // namespace

ShadowLane::ShadowLane(ShadowConfig cfg,
                       std::unique_ptr<InferenceSession> session)
    : cfg_(cfg), session_(std::move(session)), monitor_(cfg.quality) {
  if (cfg_.queue_capacity == 0) cfg_.queue_capacity = 1;
  if (cfg_.rate > 0) {
    thread_ = std::thread([this] { run(); });
  }
}

ShadowLane::~ShadowLane() { stop(); }

bool ShadowLane::sampled(std::uint64_t tag) const {
  if (cfg_.rate == 0) return false;
  if (cfg_.rate == 1) return true;
  return mix64(tag + 0x9E3779B97F4A7C15ULL * (cfg_.seed + 1)) % cfg_.rate == 0;
}

void ShadowLane::offer(std::uint64_t tag, const tensor::Tensor& input) {
  if (cfg_.rate == 0) return;
  if (!sampled(tag)) return;
  shadow_metrics().samples.increment();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++samples_;
    if (stopping_ || queue_.size() >= cfg_.queue_capacity) {
      ++dropped_;
      shadow_metrics().dropped.increment();
      return;
    }
    queue_.push_back(Item{tag, input});  // copies the tensor
  }
  cv_.notify_one();
}

void ShadowLane::run() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ && drained
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      obs::FidelityScope scope;
      (void)session_->run(item.input);
      monitor_.observe(item.tag, item.input, scope.snapshot());
      shadow_metrics().evaluated.increment();
      std::lock_guard<std::mutex> lock(mutex_);
      ++evaluated_;
    } catch (const std::exception& e) {
      ODQ_LOG_WARN("shadow: reference evaluation failed for tag %llu: %s",
                   static_cast<unsigned long long>(item.tag), e.what());
      shadow_metrics().errors.increment();
      std::lock_guard<std::mutex> lock(mutex_);
      ++errors_;
    }
  }
}

void ShadowLane::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      // First caller owns the join; a second stop() (e.g. destructor after
      // an explicit stop) must not touch the thread again.
      return;
    }
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::uint64_t ShadowLane::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

std::uint64_t ShadowLane::evaluated() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evaluated_;
}

std::uint64_t ShadowLane::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::uint64_t ShadowLane::errors() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return errors_;
}

}  // namespace odq::serve
