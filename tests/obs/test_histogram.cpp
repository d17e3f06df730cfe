// Log-bucketed HDR histograms: bucket-layout invariants, golden quantiles
// against a sorted-vector oracle, merge/subtract algebra, lock-free sharded
// recording, and the windowed epoch ring (advance / skip / clock jumps).
#include "obs/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/proptest.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace odq::obs {
namespace {

constexpr double kQuantiles[] = {0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0};

// The oracle uses the same rank convention the histogram documents:
// rank = max(1, ceil(q * n)), order statistic sorted[rank - 1].
std::uint64_t oracle_quantile(const std::vector<std::uint64_t>& sorted,
                              double q) {
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

TEST(LogBucketLayout, SmallValuesGetExactBuckets) {
  for (std::uint64_t v = 0; v < (1ULL << kLogHistSubBits); ++v) {
    EXPECT_EQ(log_bucket_index(v), v);
    EXPECT_EQ(log_bucket_lo(v), v);
    EXPECT_EQ(log_bucket_hi(v), v + 1);
  }
}

TEST(LogBucketLayout, IndexIsMonotoneAndBoundsRoundTrip) {
  // Sweep every bucket: lo maps back to its own index, hi-1 stays inside,
  // and lo/hi tile the value axis with no gaps or overlaps.
  for (std::size_t i = 0; i < kLogHistBuckets; ++i) {
    const std::uint64_t lo = log_bucket_lo(i);
    const std::uint64_t hi = log_bucket_hi(i);
    ASSERT_LT(lo, hi) << "bucket " << i;
    EXPECT_EQ(log_bucket_index(lo), i);
    EXPECT_EQ(log_bucket_index(hi - 1), i);
    if (i + 1 < kLogHistBuckets) {
      EXPECT_EQ(log_bucket_hi(i), log_bucket_lo(i + 1)) << "gap at " << i;
    }
  }
}

TEST(LogBucketLayout, RelativeWidthBoundedAboveSubBucketRange) {
  // The HDR guarantee: above the exact range, bucket width <= lo / 32,
  // i.e. any value is representable to within ~3.1%.
  for (std::size_t i = 1ULL << kLogHistSubBits; i < kLogHistBuckets; ++i) {
    const std::uint64_t lo = log_bucket_lo(i);
    const std::uint64_t width = log_bucket_hi(i) - lo;
    EXPECT_LE(width * (1ULL << kLogHistSubBits), lo) << "bucket " << i;
  }
}

TEST(LogBucketLayout, HugeValuesClampIntoLastBucket) {
  const std::uint64_t top = std::uint64_t{1} << kLogHistMaxPow;
  EXPECT_EQ(log_bucket_index(top), kLogHistBuckets - 1);
  EXPECT_EQ(log_bucket_index(top * 2), kLogHistBuckets - 1);
  EXPECT_EQ(log_bucket_index(~std::uint64_t{0}), kLogHistBuckets - 1);
  EXPECT_EQ(log_bucket_index(top - 1), kLogHistBuckets - 1);
}

TEST(LogHistogram, CountSumMeanAreExact) {
  LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.quantile(0.5), 0u);
  h.add(3);
  h.add(1000);
  h.add(77777, 2);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 3u + 1000u + 2u * 77777u);
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(h.sum()) / 4.0);
}

TEST(LogHistogram, MinMaxAreBucketResolution) {
  LogHistogram h;
  h.add(5);        // exact bucket: min == 5
  h.add(1000000);  // log bucket: max == hi-1 of its bucket
  EXPECT_EQ(h.min(), 5u);
  const std::size_t top = log_bucket_index(1000000);
  EXPECT_EQ(h.max(), log_bucket_hi(top) - 1);
  EXPECT_GE(h.max(), 1000000u);
}

// Golden quantiles: for any distribution, quantile(q) must land in the
// same bucket as the sorted-vector order statistic with the same rank.
void check_golden_quantiles(const std::vector<std::uint64_t>& samples) {
  LogHistogram h;
  for (std::uint64_t v : samples) h.add(v);
  std::vector<std::uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(h.count(), sorted.size());
  for (double q : kQuantiles) {
    const std::uint64_t got = h.quantile(q);
    const std::uint64_t want = oracle_quantile(sorted, q);
    EXPECT_EQ(log_bucket_index(got), log_bucket_index(want))
        << "q=" << q << " hist=" << got << " oracle=" << want;
    // And the reported value is the top of its bucket.
    EXPECT_EQ(got, log_bucket_hi(log_bucket_index(got)) - 1);
  }
}

TEST(LogHistogram, GoldenQuantilesUniform) {
  for (std::uint64_t c = 0; c < 20; ++c) {
    ODQ_PROP_CASE(cs, c);
    const int n = cs.rng().uniform_int(1, 5000);
    std::vector<std::uint64_t> samples;
    samples.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      samples.push_back(cs.rng().uniform_u64(200000));
    }
    check_golden_quantiles(samples);
  }
}

TEST(LogHistogram, GoldenQuantilesLognormal) {
  // Heavy-tailed latencies: exp(normal(mu, sigma)) stretched over several
  // octaves — the shape HDR bucketing exists for.
  for (std::uint64_t c = 0; c < 20; ++c) {
    ODQ_PROP_CASE(cs, c);
    const int n = cs.rng().uniform_int(100, 3000);
    const double mu = cs.rng().uniform(4.0, 10.0);
    const double sigma = cs.rng().uniform(0.3, 2.0);
    std::vector<std::uint64_t> samples;
    samples.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const double v = std::exp(mu + sigma * cs.rng().normal());
      samples.push_back(static_cast<std::uint64_t>(v));
    }
    check_golden_quantiles(samples);
  }
}

TEST(LogHistogram, GoldenQuantilesBimodal) {
  // Fast path + slow path: the p99 sits in the far mode, far from the mean.
  for (std::uint64_t c = 0; c < 20; ++c) {
    ODQ_PROP_CASE(cs, c);
    const int n = cs.rng().uniform_int(200, 4000);
    std::vector<std::uint64_t> samples;
    samples.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      if (cs.rng().uniform() < 0.85) {
        samples.push_back(300 + cs.rng().uniform_u64(300));
      } else {
        samples.push_back(50000 + cs.rng().uniform_u64(50000));
      }
    }
    check_golden_quantiles(samples);
  }
}

TEST(LogHistogram, MergeIsAssociativeAndOrderIndependent) {
  util::Rng rng(testprop::case_seed(101));
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 3000; ++i) samples.push_back(rng.uniform_u64(1 << 20));

  // Split into three parts; merge as (a+b)+c and a+(b+c) and c+a+b.
  LogHistogram part[3];
  for (std::size_t i = 0; i < samples.size(); ++i) {
    part[i % 3].add(samples[i]);
  }
  LogHistogram whole;
  for (std::uint64_t v : samples) whole.add(v);

  auto merged = [](std::initializer_list<const LogHistogram*> hs) {
    LogHistogram out;
    for (const LogHistogram* h : hs) out.merge(*h);
    return out;
  };
  const LogHistogram ab_c = merged({&part[0], &part[1], &part[2]});
  const LogHistogram c_ab = merged({&part[2], &part[0], &part[1]});
  for (const LogHistogram* m : {&ab_c, &c_ab}) {
    EXPECT_EQ(m->count(), whole.count());
    EXPECT_EQ(m->sum(), whole.sum());
    for (std::size_t i = 0; i < kLogHistBuckets; ++i) {
      ASSERT_EQ(m->bucket_count(i), whole.bucket_count(i)) << "bucket " << i;
    }
    for (double q : kQuantiles) {
      EXPECT_EQ(m->quantile(q), whole.quantile(q)) << "q=" << q;
    }
  }
}

TEST(LogHistogram, SubtractRecoversTheDelta) {
  // The windowing primitive: (old + new) - old == new, bucket for bucket.
  util::Rng rng(testprop::case_seed(202));
  LogHistogram older, newer;
  for (int i = 0; i < 1000; ++i) older.add(rng.uniform_u64(100000));
  for (int i = 0; i < 500; ++i) newer.add(rng.uniform_u64(100000));
  LogHistogram cum = older;
  cum.merge(newer);
  cum.subtract(older);
  EXPECT_EQ(cum.count(), newer.count());
  EXPECT_EQ(cum.sum(), newer.sum());
  for (std::size_t i = 0; i < kLogHistBuckets; ++i) {
    ASSERT_EQ(cum.bucket_count(i), newer.bucket_count(i)) << "bucket " << i;
  }
}

TEST(ShardedLogHistogram, ConcurrentRecordingMatchesSerialExactly) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  ShardedLogHistogram sharded;
  LogHistogram serial;

  // Each thread records a deterministic per-thread stream; the merged
  // result must equal the serial replay of all four streams.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sharded, t] {
      util::Rng rng(testprop::case_seed(static_cast<std::uint64_t>(t)));
      for (int i = 0; i < kPerThread; ++i) {
        sharded.record(rng.uniform_u64(1 << 22));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    util::Rng rng(testprop::case_seed(static_cast<std::uint64_t>(t)));
    for (int i = 0; i < kPerThread; ++i) {
      serial.add(rng.uniform_u64(1 << 22));
    }
  }

  const LogHistogram merged = sharded.merged();
  EXPECT_EQ(merged.count(), serial.count());
  EXPECT_EQ(merged.sum(), serial.sum());
  for (std::size_t i = 0; i < kLogHistBuckets; ++i) {
    ASSERT_EQ(merged.bucket_count(i), serial.bucket_count(i)) << "bucket " << i;
  }
  for (double q : kQuantiles) {
    EXPECT_EQ(merged.quantile(q), serial.quantile(q)) << "q=" << q;
  }

  sharded.reset();
  EXPECT_TRUE(sharded.merged().empty());
}

// -- Epoch ring (Series / Counter) ----------------------------------------
//
// These drive advance() with a manual epoch clock; no wall time anywhere.

constexpr std::uint64_t kUs = 1;  // microseconds
constexpr std::uint64_t kSec = 1000000 * kUs;

class WindowRingTest : public ::testing::Test {
 protected:
  void SetUp() override { set_metrics_enabled(true); }
  void TearDown() override { set_metrics_enabled(false); }
};

TEST_F(WindowRingTest, SamplesBecomeVisibleOnAdvance) {
  Series s("t.ring.visible");
  s.record(100);
  s.record(200);
  // Not yet advanced: windows are empty, total sees everything.
  EXPECT_EQ(s.window(1).count(), 0u);
  EXPECT_EQ(s.total().count(), 2u);

  s.advance(0 * kSec + 500000);  // epoch 0
  EXPECT_EQ(s.window(1).count(), 2u);
  EXPECT_EQ(s.window(10).count(), 2u);
  EXPECT_EQ(s.window(60).count(), 2u);
}

TEST_F(WindowRingTest, SameEpochAccumulatesIntoOneSlot) {
  Series s("t.ring.same_epoch");
  s.record(10);
  s.advance(5 * kSec);
  s.record(20);
  s.record(30);
  s.advance(5 * kSec + 900000);  // still epoch 5
  EXPECT_EQ(s.window(1).count(), 3u);
  EXPECT_EQ(s.window(1).sum(), 60u);
  EXPECT_EQ(s.total().count(), 3u);
}

TEST_F(WindowRingTest, OldEpochsAgeOutOfNarrowWindowsFirst) {
  Series s("t.ring.ageout");
  s.record(111);
  s.advance(0 * kSec);  // epoch 0 carries one sample
  s.record(222);
  s.advance(5 * kSec);  // epoch 5 carries the second

  // window(1) = epoch 5 only; window(10) = epochs (-5, 5] = both.
  EXPECT_EQ(s.window(1).count(), 1u);
  EXPECT_EQ(s.window(10).count(), 2u);
  EXPECT_EQ(s.window(60).count(), 2u);

  // Advance (with nothing new) to epoch 12: epoch 0 falls out of the 10s
  // window but stays in the 60s one.
  s.advance(12 * kSec);
  EXPECT_EQ(s.window(1).count(), 0u);
  EXPECT_EQ(s.window(10).count(), 1u);
  EXPECT_EQ(s.window(60).count(), 2u);

  // Past 60s: everything has aged out of every window; total remains.
  s.advance(70 * kSec);
  EXPECT_EQ(s.window(60).count(), 0u);
  EXPECT_EQ(s.total().count(), 2u);
}

TEST_F(WindowRingTest, EpochSkipLeavesInterveningEpochsEmpty) {
  Series s("t.ring.skip");
  s.record(1);
  s.advance(0 * kSec);
  // No samples for epochs 1..58, then one at 59.
  s.record(2);
  s.advance(59 * kSec);
  EXPECT_EQ(s.window(1).count(), 1u);
  EXPECT_EQ(s.window(60).count(), 2u);  // epoch 0 is exactly 59 back: in
  s.advance(60 * kSec);
  EXPECT_EQ(s.window(60).count(), 1u);  // now 60 back: out
}

TEST_F(WindowRingTest, ClockJumpPastWholeRingDropsStaleSlots) {
  Series s("t.ring.jump");
  s.record(7);
  s.advance(3 * kSec);
  EXPECT_EQ(s.window(60).count(), 1u);

  // Jump far past the 64-slot ring: the old slot's tag is stale, so no
  // window may resurrect it — but the cumulative total still has it.
  s.advance((3 + 1000) * kSec);
  EXPECT_EQ(s.window(1).count(), 0u);
  EXPECT_EQ(s.window(10).count(), 0u);
  EXPECT_EQ(s.window(60).count(), 0u);
  EXPECT_EQ(s.total().count(), 1u);

  // The ring keeps working after the jump.
  s.record(8);
  s.advance((3 + 1000) * kSec + 1000);
  EXPECT_EQ(s.window(1).count(), 1u);
}

TEST_F(WindowRingTest, BackwardsClockFoldsIntoCurrentEpoch) {
  Series s("t.ring.backwards");
  s.record(1);
  s.advance(10 * kSec);
  // A now_us older than the current epoch must not tear the ring: the
  // delta folds into the newest slot instead.
  s.record(2);
  s.advance(4 * kSec);
  EXPECT_EQ(s.window(1).count(), 2u);
  EXPECT_EQ(s.total().count(), 2u);
}

TEST_F(WindowRingTest, ResetClearsSamplesButKeepsWorking) {
  Series s("t.ring.reset");
  s.record(5);
  s.advance(1 * kSec);
  s.reset();
  EXPECT_EQ(s.total().count(), 0u);
  EXPECT_EQ(s.window(60).count(), 0u);
  s.record(6);
  s.advance(2 * kSec);
  EXPECT_EQ(s.window(1).count(), 1u);
}

TEST_F(WindowRingTest, DisabledRecordIsANoOp) {
  Series s("t.ring.disabled");
  set_metrics_enabled(false);
  s.record(9);
  set_metrics_enabled(true);
  s.advance(1 * kSec);
  EXPECT_EQ(s.total().count(), 0u);
}

TEST_F(WindowRingTest, CounterWindowsTrackDeltas) {
  Counter c("t.ring.counter");
  c.add(5);
  c.advance(0 * kSec);
  EXPECT_EQ(c.total(), 5);
  EXPECT_EQ(c.window(1), 5);

  c.increment();
  c.increment();
  c.advance(5 * kSec);
  EXPECT_EQ(c.total(), 7);
  EXPECT_EQ(c.window(1), 2);
  EXPECT_EQ(c.window(10), 7);

  c.advance(12 * kSec);  // epoch 0's 5 ages out of the 10s window
  EXPECT_EQ(c.window(10), 2);
  EXPECT_EQ(c.window(60), 7);

  c.advance(2000 * kSec);  // far jump: all windows drain, total holds
  EXPECT_EQ(c.window(60), 0);
  EXPECT_EQ(c.total(), 7);
}

}  // namespace
}  // namespace odq::obs
