#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace odq::util {
namespace {

using Range = std::pair<std::int64_t, std::int64_t>;

TEST(ThreadPool, IdlePoolShutsDown) {
  ThreadPool pool(2);  // destructor must join workers that never got work
  SUCCEED();
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ParallelFor, CoversFullRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&hits](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, RepeatedCallsRunEveryChunk) {
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    parallel_for(
        8,
        [&counter](std::int64_t b, std::int64_t e) {
          counter.fetch_add(static_cast<int>(e - b));
        },
        /*grain=*/1);
  }
  EXPECT_EQ(counter.load(), 800);
}

TEST(ParallelFor, HandlesZeroAndNegative) {
  int calls = 0;
  parallel_for(0, [&calls](std::int64_t, std::int64_t) { ++calls; });
  parallel_for(-5, [&calls](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SmallRangeRunsInline) {
  // n <= grain must execute on the caller thread as a single chunk.
  int chunks = 0;
  parallel_for(
      10,
      [&chunks](std::int64_t b, std::int64_t e) {
        ++chunks;
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 10);
      },
      /*grain=*/64);
  EXPECT_EQ(chunks, 1);
}

TEST(ParallelFor, SumMatchesSerial) {
  std::atomic<std::int64_t> total{0};
  parallel_for(
      100000,
      [&total](std::int64_t b, std::int64_t e) {
        std::int64_t local = 0;
        for (std::int64_t i = b; i < e; ++i) local += i;
        total.fetch_add(local);
      },
      /*grain=*/128);
  EXPECT_EQ(total.load(), 100000LL * 99999 / 2);
}

// Tiles and float summation orders downstream depend on the exact chunk
// boundaries: min(4 * workers, ceil(n / grain)) equal steps of
// ceil(n / chunks), the last one clipped to n.
TEST(ParallelFor, ChunkBoundariesAreFixed) {
  const auto workers = static_cast<std::int64_t>(ThreadPool::global().size());
  if (workers <= 1) GTEST_SKIP() << "pool size 1 runs inline";
  for (const auto& [n, grain] : {Range{1000, 10}, Range{10, 1}, Range{9, 1},
                                 Range{4097, 1024}, Range{100000, 128}}) {
    std::mutex mu;
    std::set<Range> seen;
    parallel_for(
        n,
        [&](std::int64_t b, std::int64_t e) {
          std::lock_guard<std::mutex> lock(mu);
          EXPECT_TRUE(seen.insert({b, e}).second) << "duplicate chunk " << b;
        },
        grain);
    const std::int64_t chunks = std::min(workers * 4, (n + grain - 1) / grain);
    const std::int64_t step = (n + chunks - 1) / chunks;
    std::set<Range> expected;
    for (std::int64_t b = 0; b < n; b += step) {
      expected.insert({b, std::min(b + step, n)});
    }
    EXPECT_EQ(seen, expected) << "n=" << n << " grain=" << grain;
  }
}

// Caller A's region is parked on a latch inside its chunks (and so are the
// helpers that claimed them). Caller B must still finish: it runs its own
// chunks and waits only for those, not for the pool to go idle.
TEST(ParallelFor, WaitsOnlyForItsOwnRegion) {
  if (ThreadPool::global().size() <= 1) GTEST_SKIP() << "pool size 1 runs inline";
  std::latch a_entered(1);
  std::latch release_a(1);
  std::atomic<bool> entered{false};
  std::thread a([&] {
    parallel_for(
        64,
        [&](std::int64_t, std::int64_t) {
          if (!entered.exchange(true)) a_entered.count_down();
          release_a.wait();
        },
        /*grain=*/1);
  });
  a_entered.wait();

  std::atomic<std::int64_t> sum{0};
  parallel_for(
      1000,
      [&sum](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) sum.fetch_add(i);
      },
      /*grain=*/10);
  EXPECT_EQ(sum.load(), 1000LL * 999 / 2);

  release_a.count_down();
  a.join();
}

TEST(ParallelFor, NestedCallRunsInlineInEveryChunk) {
  std::atomic<int> chunks{0};
  std::atomic<int> bad{0};
  parallel_for(
      64,
      [&](std::int64_t, std::int64_t) {
        chunks.fetch_add(1);
        const std::thread::id outer = std::this_thread::get_id();
        int inner_calls = 0;
        parallel_for(
            1000,
            [&](std::int64_t b, std::int64_t e) {
              ++inner_calls;
              if (b != 0 || e != 1000 ||
                  std::this_thread::get_id() != outer) {
                bad.fetch_add(1);
              }
            },
            /*grain=*/1);
        if (inner_calls != 1) bad.fetch_add(1);
      },
      /*grain=*/1);
  EXPECT_GE(chunks.load(), 1);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_FALSE(ThreadPool::in_parallel_for());
}

TEST(ParallelFor, ExceptionReachesCallerAndPoolStaysUsable) {
  std::atomic<int> finished{0};
  EXPECT_THROW(parallel_for(
                   64,
                   [&finished](std::int64_t b, std::int64_t) {
                     if (b == 0) throw std::runtime_error("chunk 0 failed");
                     finished.fetch_add(1);
                   },
                   /*grain=*/1),
               std::runtime_error);
  EXPECT_FALSE(ThreadPool::in_parallel_for());

  // Every chunk ran exactly once, so the pool is idle and reusable.
  std::atomic<std::int64_t> total{0};
  parallel_for(
      10000,
      [&total](std::int64_t b, std::int64_t e) {
        std::int64_t local = 0;
        for (std::int64_t i = b; i < e; ++i) local += i;
        total.fetch_add(local);
      },
      /*grain=*/16);
  EXPECT_EQ(total.load(), 10000LL * 9999 / 2);
}

TEST(ParallelFor, FirstOfSeveralExceptionsIsRethrown) {
  try {
    parallel_for(
        64,
        [](std::int64_t b, std::int64_t) {
          throw std::runtime_error("chunk " + std::to_string(b));
        },
        /*grain=*/1);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("chunk ", 0), 0u);
  }
}

}  // namespace
}  // namespace odq::util
