// Log-bucketed HDR-style histograms behind the metrics registry's series
// (obs/metrics.hpp).
//
// One fixed bucket layout shared by every histogram in the process (so any
// two histograms merge bucket-for-bucket, and a serialized histogram is
// meaningful without carrying its own layout):
//
//   * values are non-negative 64-bit integers (microseconds, queue depths,
//     batch sizes — the recorder picks the unit, the name carries it);
//   * values below 2^kLogHistSubBits (32) get one exact bucket each;
//   * above that, every power-of-two octave is split into 32 sub-buckets,
//     bounding the relative bucket width to 1/32 ≈ 3.1% — the "two
//     significant digits" HDR guarantee;
//   * values at or beyond 2^kLogHistMaxPow clamp into the last bucket
//     (2^40 µs ≈ 12.7 days — nothing a serving process should wait for).
//
// That makes kLogHistBuckets = 1152 buckets ≈ 9 KB of counters: bounded
// memory no matter how many samples are recorded, unlike a sample vector.
//
// Two layers:
//   * LogHistogram — plain value type: add / merge / subtract / quantile.
//     merge() is element-wise, hence associative and order-independent:
//     merging per-thread shards in any grouping yields identical counts and
//     identical quantiles (tests/obs/test_histogram.cpp pins this).
//     Quantiles are *exact at bucket resolution*: quantile(q) returns the
//     highest representable value of the bucket containing the rank
//     ceil(q·count) sample, so a sorted-vector oracle's order statistic is
//     guaranteed to land in that same bucket.
//   * ShardedLogHistogram — lock-free recorder: each thread owns a shard
//     and record() is two relaxed atomic RMWs on it; merged() folds every
//     shard into one LogHistogram. No mutex is ever taken on the record
//     path (a per-recorder mutex guards only first-touch shard creation).
//
// PerThreadShards is the shard cache behind every lock-free recorder in
// src/obs: ShardedLogHistogram here and obs::Counter (obs/metrics.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace odq::obs {

// Bucket layout constants. Changing these is a snapshot schema change:
// bump kMetricsSchemaVersion and refresh the serve bench baseline.
inline constexpr int kLogHistSubBits = 5;   // 32 sub-buckets per octave
inline constexpr int kLogHistMaxPow = 40;   // clamp at 2^40
inline constexpr std::size_t kLogHistBuckets =
    (std::size_t{1} << kLogHistSubBits) * (kLogHistMaxPow - kLogHistSubBits + 1);

// Value -> bucket index (total order preserving; clamps at the top).
std::size_t log_bucket_index(std::uint64_t v);

// Bucket bounds: values v with lo <= v < hi map to this bucket.
std::uint64_t log_bucket_lo(std::size_t index);
std::uint64_t log_bucket_hi(std::size_t index);

class LogHistogram {
 public:
  LogHistogram() = default;

  void add(std::uint64_t v, std::uint64_t n = 1);

  // Element-wise sum; associative and commutative.
  void merge(const LogHistogram& other);

  // Element-wise difference, for epoch deltas between two cumulative
  // snapshots of the same recorder. `other` must be component-wise <=
  // *this (older snapshot of the same history); counts saturate at 0
  // defensively rather than wrapping.
  void subtract(const LogHistogram& other);

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  // Exact sum of recorded values (not bucket midpoints), so mean() is
  // exact even though quantiles are bucket-resolution.
  std::uint64_t sum() const { return sum_; }
  double mean() const;

  // Bucket-resolution extrema: lo of the first / hi-1 of the last
  // non-empty bucket. 0 when empty.
  std::uint64_t min() const;
  std::uint64_t max() const;

  // Highest representable value of the bucket holding the rank
  // ceil(q*count) sample (q clamped to [0,1]; 0 when empty).
  std::uint64_t quantile(double q) const;

  std::uint64_t bucket_count(std::size_t index) const;

  // Bucket-for-bucket transfer used when folding atomic shards (whose sums
  // are tracked exactly and separately): adds `n` samples to bucket
  // `index` without re-bucketing through a representative value.
  void add_in_bucket(std::size_t index, std::uint64_t n);
  void add_to_sum(std::uint64_t s) { sum_ += s; }

 private:
  // Lazily sized to kLogHistBuckets on first add so empty histograms (ring
  // slots before their first epoch) cost nothing.
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

// This thread's cache slot for the recorder at `owner` whose process-unique
// generation is `gen`. Null on first touch, and also when `owner` is a
// recycled address whose previous recorder had another generation.
void*& thread_shard_slot(const void* owner, std::uint64_t gen);
std::uint64_t next_shard_generation();

// Per-thread shards of one recorder. local() is this thread's shard,
// created on first touch; after that it costs one thread-local hash lookup
// and no lock. One thread-local cache keyed by owner address serves every
// instance. Its entries carry the owner's generation, so an instance built
// at a recycled address (short-lived instances in tests and tools) gets a
// fresh shard, never its destroyed predecessor's dangling one. Entries die
// with their thread; the shards stay owned here and keep their values.
template <class Shard>
class PerThreadShards {
 public:
  PerThreadShards() : gen_(next_shard_generation()) {}
  PerThreadShards(const PerThreadShards&) = delete;
  PerThreadShards& operator=(const PerThreadShards&) = delete;

  Shard& local() {
    void*& slot = thread_shard_slot(this, gen_);
    if (slot == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      shards_.push_back(std::make_unique<Shard>());
      slot = shards_.back().get();
    }
    return *static_cast<Shard*>(slot);
  }

  // f(Shard&) for every shard, under the growth lock (never contended by
  // recorders past their first touch).
  template <class F>
  void for_each(F&& f) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& s : shards_) f(*s);
  }

 private:
  const std::uint64_t gen_;
  mutable std::mutex mutex_;  // guards shards_ growth only
  std::vector<std::unique_ptr<Shard>> shards_;
};

// Lock-free sharded histogram recorder; a shard belongs to one recording
// thread and is only ever *read* by merged().
class ShardedLogHistogram {
 public:
  // Wait-free on the calling thread's own shard (after first touch).
  void record(std::uint64_t v);

  // Cumulative view over all shards. Deterministic: element-wise sums are
  // order-independent however recording was sharded across threads.
  LogHistogram merged() const;

  // Zero every shard (handles and shard ownership stay valid). Test/tool
  // helper; not meant to race with record().
  void reset();

 private:
  struct Shard {
    std::vector<std::atomic<std::uint64_t>> counts =
        std::vector<std::atomic<std::uint64_t>>(kLogHistBuckets);
    std::atomic<std::uint64_t> sum{0};
  };
  PerThreadShards<Shard> shards_;
};

}  // namespace odq::obs
