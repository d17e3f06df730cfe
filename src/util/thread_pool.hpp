// A small work-stealing-free thread pool plus a chunked fork-join
// parallel_for.
//
// The library is written to scale with hardware threads but remains fully
// correct (and overhead-free on the hot path) when only one core is
// available: with pool size 1 parallel_for runs inline on the caller.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace odq::util {

class ThreadPool {
 public:
  // threads == 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Process-wide pool, sized from ODQ_THREADS env var or hardware
  // concurrency. Constructed on first use.
  static ThreadPool& global();

  // True on a pool worker, and on a caller while it runs chunks of its own
  // parallel_for. parallel_for runs nested calls from either inline: the
  // enclosing region already keeps the pool busy, so fanning out again
  // would only oversubscribe it.
  static bool in_parallel_for();

 private:
  friend void parallel_for_dispatch(
      std::int64_t, const std::function<void(std::int64_t, std::int64_t)>&,
      std::int64_t);

  // One parallel_for call's shared state (defined in thread_pool.cpp).
  struct Job;

  // A queued helper for a job plus its enqueue timestamp (µs on the obs
  // trace clock; 0 when observability is off) so workers can report
  // queue-wait time.
  struct Task {
    std::shared_ptr<Job> job;
    double enqueue_us = 0.0;
  };

  // Queue `helpers` tasks that each claim chunks of `job` until none remain.
  void submit(const std::shared_ptr<Job>& job, std::size_t helpers);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mutex_;
  std::condition_variable task_cv_;
  bool stop_ = false;
};

// Out-of-line slow path for parallel_for: chunk [0, n) onto the pool.
// Callers should use the parallel_for template below, which only pays for
// the std::function type erasure when work is actually dispatched.
void parallel_for_dispatch(
    std::int64_t n, const std::function<void(std::int64_t, std::int64_t)>& body,
    std::int64_t grain);

// Splits [0, n) into chunks and runs body(begin, end) on the global pool.
// With a single worker (or tiny n) the body runs inline on the caller — a
// direct call, so the compiler can inline and optimize the loop body exactly
// as if it were written in place (type-erasing the body through
// std::function on a 1-core host cost ~25% on the ODQ hot loop). Otherwise
// the caller claims chunks alongside up to size()-1 pool helpers and waits
// only for its own chunks, never for another caller's, so concurrent
// top-level callers proceed independently. Nested calls (a body that itself
// calls parallel_for, on a worker or on the caller) run inline. If a chunk
// throws, the first exception is rethrown on the caller once every claimed
// chunk has finished. The body must be safe to run concurrently on disjoint
// ranges.
template <typename Body>
void parallel_for(std::int64_t n, Body&& body, std::int64_t grain = 1024) {
  if (n <= 0) return;
  if (ThreadPool::in_parallel_for() || ThreadPool::global().size() <= 1 ||
      n <= grain) {
    body(0, n);
    return;
  }
  parallel_for_dispatch(
      n, std::function<void(std::int64_t, std::int64_t)>(body), grain);
}

}  // namespace odq::util
