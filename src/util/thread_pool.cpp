#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace odq::util {

namespace {
// Set for a pool worker's lifetime, and on a caller while it runs its own
// parallel_for chunks.
thread_local bool t_in_parallel_for = false;

// Observability handles, resolved once. Recording is a no-op (one relaxed
// load inside the metric) while ODQ_METRICS is off.
obs::Counter& tasks_counter() {
  static obs::Counter& c = obs::counter("threadpool.tasks");
  return c;
}
obs::Counter& busy_us_counter() {
  static obs::Counter& c = obs::counter("threadpool.worker_busy_us");
  return c;
}
obs::Series& queue_wait_series() {
  static obs::Series& s = obs::series("threadpool.queue_wait_us");
  return s;
}

bool observing() { return obs::metrics_enabled() || obs::trace_enabled(); }

}  // namespace

// Heap-held so that a helper dequeued after the caller has returned still
// finds valid counters. The caller's body lives on the caller's stack; it is
// dereferenced only for a claimed chunk, and the caller does not return
// before every claimed chunk has finished.
struct ThreadPool::Job {
  using Body = std::function<void(std::int64_t, std::int64_t)>;

  Job(const Body& body, std::int64_t n, std::int64_t step)
      : body(&body),
        n(n),
        step(step),
        chunks((n + step - 1) / step),
        pending(static_cast<int>(chunks)) {}

  // Claims and runs chunks until none are left unclaimed. A thread that ran
  // chunks calls `before_release` after its last one, but before that chunk
  // counts as finished, so what it records happens before wait() returns.
  template <typename Fn>
  void run_chunks(Fn&& before_release) {
    for (std::int64_t c = next++; c < chunks;) {
      const std::int64_t begin = c * step;
      try {
        (*body)(begin, std::min(begin + step, n));
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
      }
      // Claim the next chunk first: while it is claimed but unfinished,
      // the decrement below cannot release the caller.
      c = next++;
      if (c >= chunks) before_release();
      // The decrement publishes the chunk's writes (and `error`) to wait().
      if (--pending == 0) pending.notify_one();
    }
  }

  // Blocks until every chunk has finished, then rethrows the first
  // exception a chunk raised.
  void wait() {
    for (int left = pending.load(); left != 0; left = pending.load()) {
      pending.wait(left);
    }
    if (error) std::rethrow_exception(error);
  }

  const Body* body;
  const std::int64_t n;
  const std::int64_t step;
  const std::int64_t chunks;
  std::atomic<std::int64_t> next{0};  // next unclaimed chunk
  std::atomic<int> pending;           // chunks not yet finished
  std::atomic<bool> failed{false};
  std::exception_ptr error;  // written only by the chunk that set `failed`
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  task_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(const std::shared_ptr<Job>& job, std::size_t helpers) {
  const double enqueue_us = observing() ? obs::trace_now_us() : 0.0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < helpers; ++i) {
      tasks_.push(Task{job, enqueue_us});
    }
  }
  for (std::size_t i = 0; i < helpers; ++i) task_cv_.notify_one();
}

bool ThreadPool::in_parallel_for() { return t_in_parallel_for; }

void ThreadPool::worker_loop() {
  t_in_parallel_for = true;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    if (observing()) {
      const double start_us = obs::trace_now_us();
      if (task.enqueue_us > 0.0) {
        queue_wait_series().record(static_cast<std::uint64_t>(
            std::max(0.0, start_us - task.enqueue_us)));
      }
      // The span goes in before the caller can return (a trace read after
      // parallel_for holds it); a helper that ran no chunk records none.
      task.job->run_chunks([&] {
        obs::trace_record("pool.task", start_us,
                          obs::trace_now_us() - start_us);
      });
      const double end_us = obs::trace_now_us();
      tasks_counter().increment();
      busy_us_counter().add(static_cast<std::int64_t>(end_us - start_us));
    } else {
      task.job->run_chunks([] {});
    }
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("ODQ_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    return static_cast<std::size_t>(0);
  }());
  return pool;
}

void parallel_for_dispatch(
    std::int64_t n, const std::function<void(std::int64_t, std::int64_t)>& body,
    std::int64_t grain) {
  // The template fast path already handled n <= 0, nested calls, single
  // worker, and n <= grain — this only runs when work really fans out.
  obs::TraceSpan span("pool.parallel_for");
  span.arg("n", n);
  ThreadPool& pool = ThreadPool::global();
  const auto workers = static_cast<std::int64_t>(pool.size());
  const std::int64_t chunks = std::min(workers * 4, (n + grain - 1) / grain);
  const auto job = std::make_shared<ThreadPool::Job>(
      body, n, /*step=*/(n + chunks - 1) / chunks);
  pool.submit(job, static_cast<std::size_t>(
                       std::min(workers - 1, job->chunks - 1)));
  const bool outer = std::exchange(t_in_parallel_for, true);
  job->run_chunks([] {});
  t_in_parallel_for = outer;
  job->wait();
}

}  // namespace odq::util
