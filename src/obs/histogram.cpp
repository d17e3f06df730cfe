#include "obs/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

namespace odq::obs {

namespace {

constexpr std::uint64_t kLinear = std::uint64_t{1} << kLogHistSubBits;
constexpr std::uint64_t kMaxValue = (std::uint64_t{1} << kLogHistMaxPow) - 1;

}  // namespace

std::size_t log_bucket_index(std::uint64_t v) {
  if (v < kLinear) return static_cast<std::size_t>(v);
  if (v > kMaxValue) v = kMaxValue;
  // msb in [kLogHistSubBits, kLogHistMaxPow): the octave; the next
  // kLogHistSubBits bits below it pick the sub-bucket.
  const int msb = 63 - std::countl_zero(v);
  const std::uint64_t sub = (v >> (msb - kLogHistSubBits)) - kLinear;
  return static_cast<std::size_t>(
      kLinear + static_cast<std::uint64_t>(msb - kLogHistSubBits) * kLinear +
      sub);
}

std::uint64_t log_bucket_lo(std::size_t index) {
  if (index < kLinear) return index;
  const std::uint64_t octave = (index - kLinear) / kLinear;
  const std::uint64_t sub = (index - kLinear) % kLinear;
  return (kLinear + sub) << octave;
}

std::uint64_t log_bucket_hi(std::size_t index) {
  if (index < kLinear) return index + 1;
  const std::uint64_t octave = (index - kLinear) / kLinear;
  return log_bucket_lo(index) + (std::uint64_t{1} << octave);
}

void LogHistogram::add(std::uint64_t v, std::uint64_t n) {
  if (n == 0) return;
  if (counts_.empty()) counts_.assign(kLogHistBuckets, 0);
  counts_[log_bucket_index(v)] += n;
  count_ += n;
  sum_ += v * n;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  if (counts_.empty()) counts_.assign(kLogHistBuckets, 0);
  for (std::size_t i = 0; i < kLogHistBuckets; ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void LogHistogram::subtract(const LogHistogram& other) {
  if (other.count_ == 0) return;
  if (counts_.empty()) counts_.assign(kLogHistBuckets, 0);
  for (std::size_t i = 0; i < kLogHistBuckets; ++i) {
    const std::uint64_t o = other.counts_[i];
    counts_[i] = counts_[i] > o ? counts_[i] - o : 0;
  }
  count_ = count_ > other.count_ ? count_ - other.count_ : 0;
  sum_ = sum_ > other.sum_ ? sum_ - other.sum_ : 0;
}

double LogHistogram::mean() const {
  return count_ > 0
             ? static_cast<double>(sum_) / static_cast<double>(count_)
             : 0.0;
}

std::uint64_t LogHistogram::min() const {
  if (count_ == 0) return 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] > 0) return log_bucket_lo(i);
  }
  return 0;
}

std::uint64_t LogHistogram::max() const {
  if (count_ == 0) return 0;
  for (std::size_t i = counts_.size(); i-- > 0;) {
    if (counts_[i] > 0) return log_bucket_hi(i) - 1;
  }
  return 0;
}

std::uint64_t LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile sample, 1-based: ceil(q * count), at least 1.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) return log_bucket_hi(i) - 1;
  }
  return max();
}

std::uint64_t LogHistogram::bucket_count(std::size_t index) const {
  if (index >= counts_.size()) return 0;
  return counts_[index];
}

void LogHistogram::add_in_bucket(std::size_t index, std::uint64_t n) {
  if (n == 0 || index >= kLogHistBuckets) return;
  if (counts_.empty()) counts_.assign(kLogHistBuckets, 0);
  counts_[index] += n;
  count_ += n;
}

namespace {

struct ShardRef {
  std::uint64_t gen = 0;
  void* shard = nullptr;
};
thread_local std::unordered_map<const void*, ShardRef> t_shards;

}  // namespace

void*& thread_shard_slot(const void* owner, std::uint64_t gen) {
  ShardRef& r = t_shards[owner];
  if (r.gen != gen) {
    r.gen = gen;
    r.shard = nullptr;
  }
  return r.shard;
}

std::uint64_t next_shard_generation() {
  static std::atomic<std::uint64_t> gen{0};
  return gen.fetch_add(1, std::memory_order_relaxed) + 1;
}

void ShardedLogHistogram::record(std::uint64_t v) {
  Shard& s = shards_.local();
  s.counts[log_bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(v, std::memory_order_relaxed);
}

LogHistogram ShardedLogHistogram::merged() const {
  // Counts and sums are read with relaxed loads while writers keep
  // recording: a sample mid-record may appear in the sum but not yet the
  // buckets (or vice versa) for one snapshot — telemetry-grade, not a
  // linearizable cut. Once writers quiesce, merged() is exact.
  LogHistogram out;
  shards_.for_each([&out](const Shard& s) {
    for (std::size_t i = 0; i < kLogHistBuckets; ++i) {
      const std::uint64_t c = s.counts[i].load(std::memory_order_relaxed);
      if (c > 0) out.add_in_bucket(i, c);
    }
    out.add_to_sum(s.sum.load(std::memory_order_relaxed));
  });
  return out;
}

void ShardedLogHistogram::reset() {
  shards_.for_each([](Shard& s) {
    for (auto& c : s.counts) c.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
  });
}

}  // namespace odq::obs
