// ServeEngine: an in-process batched inference serving engine.
//
// Architecture (docs/testing.md and README "Serving" describe usage):
//
//   submit() ──► RequestQueue (bounded, backpressure) ──► worker threads
//                                                            │
//                  dynamic batcher: flush on max_batch       │
//                  or deadline timeout, whichever first      ▼
//                                        InferenceSession (one may serve all)
//
// Each worker runs the session the factory gave it (workers may share one)
// and pops dynamic batches off the shared queue. A batch is evaluated one
// request at a time — see session.hpp for why coalescing must never couple
// requests numerically — and every request's promise is fulfilled with an
// InferResponse whose util::Status carries any failure (bad input shape,
// injected fault, executor error) without taking the worker down.
//
// Shutdown is drain-and-join: shutdown() closes the queue to new
// submissions (they get kUnavailable), workers finish everything already
// accepted, then exit. The destructor calls shutdown(), so no accepted
// request is ever dropped with an unfulfilled promise.
//
// Metrics (off unless ODQ_METRICS is on; obs/metrics.hpp has the window
// semantics and the exporter). Every one carries {total, 1s, 10s, 60s}:
//   serve.latency_us             series, enqueue -> response µs
//   serve.latency_us.<scheme>    same, split per session scheme
//   serve.batch_size             series, requests per batch
//   serve.queue_depth            series, depth after each push/pop (its
//                                max is the peak depth)
//   serve.in_flight              series, level after each +-1
//   serve.requests / serve.errors / serve.batches / serve.rejected /
//   serve.slo_violations / serve.deadline_exceeded / serve.degraded
//                                counters
//   serve.rejected.<tenant>      per-tenant rejection attribution (only for
//                                submits that named a tenant)
// Trace spans (ODQ_TRACE): serve.batch (batch execution), serve.exec,
// serve.request and serve.queue_wait (per request, see below).
//
// Per-request tracing: every request gets a trace id (its request id,
// allocated at submit). The worker wraps each session run in a
// TraceRequestScope, so the serve.exec span and every conv-phase span it
// encloses carry a req_id argument; retrospective serve.request and
// serve.queue_wait spans carry the same id, linking the full
// queue -> batch -> exec -> gemm path in the Chrome trace. When
// EngineConfig::slo_us is set, over-SLO requests additionally log one
// rate-limited (1/s) exemplar line with their full phase breakdown.
//
// Fault injection (docs/robustness.md):
//   serve.submit   submit() refuses with kUnavailable before enqueueing
//   serve.batch    one whole batch fails; every request in it gets
//                  kUnavailable and the worker keeps serving
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/session.hpp"

namespace odq::serve {

class ShadowLane;

struct EngineConfig {
  int num_workers = 1;
  std::size_t queue_capacity = 256;  // backpressure bound
  std::size_t max_batch = 8;         // flush a batch at this size...
  std::int64_t flush_timeout_us = 2000;  // ...or this long after the oldest
                                         // request arrived, whichever first
  std::int64_t slo_us = 0;  // latency SLO; requests over it count as
                            // violations and emit a rate-limited exemplar
                            // log (0 disables)
  // Optional shadow quality-sampling lane (serve/shadow.hpp). Not owned;
  // must outlive the engine. Workers offer each successfully served
  // request's (tag, input) to it — a no-op when null or rate == 0.
  ShadowLane* shadow = nullptr;
};

// This engine's own exact tally, independent of the process-wide ODQ_METRICS
// registry, so tests and the load generator can assert on batching
// behavior exactly with the switch off and with several engines alive.
struct EngineStats {
  std::uint64_t submitted = 0;  // accepted into the queue
  std::uint64_t rejected = 0;   // refused by submit (closed / fault / full)
  std::uint64_t completed = 0;  // responses delivered
  std::uint64_t errors = 0;     // responses with !status.ok()
  std::uint64_t batches = 0;
  std::uint64_t multi_request_batches = 0;  // batches with more than 1
  std::uint64_t max_batch_observed = 0;
  std::uint64_t slo_violations = 0;  // responses over EngineConfig::slo_us
  // Accepted requests whose deadline passed before execution: answered
  // kDeadlineExceeded without running the model (load shedding).
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t degraded = 0;  // requests served via run_degraded
  // batch_size_hist[k] = batches that carried exactly k requests
  // (index 0 unused). Sized max_batch + 1.
  std::vector<std::uint64_t> batch_size_hist;
};

class ServeEngine {
 public:
  // Each worker's session, from `factory` (called with worker ids
  // 0..num_workers-1 on the constructing thread, so factory errors throw
  // here, not inside a worker); it may return one session for all. Workers
  // start immediately.
  using SessionFactory =
      std::function<std::shared_ptr<InferenceSession>(int worker_id)>;

  ServeEngine(EngineConfig cfg, const SessionFactory& factory);
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  // Enqueue one request. Blocks while the queue is at capacity
  // (backpressure). Returns the future the worker fulfills, or a Status:
  // kUnavailable after shutdown()/close or from the serve.submit fault site.
  // `tag` is the client identity the shadow lane samples on; the default
  // sentinel falls back to the engine-assigned request id.
  util::StatusOr<std::future<InferResponse>> submit(
      tensor::Tensor input, std::uint64_t tag = kNoRequestTag);

  // Non-blocking variant: kUnavailable immediately when the queue is full.
  util::StatusOr<std::future<InferResponse>> try_submit(
      tensor::Tensor input, std::uint64_t tag = kNoRequestTag);

  // Full-metadata variants (tenant attribution, deadline, degradation
  // hint) — the networked front end's entry points. Rejections are charged
  // to opts.tenant in the serve.rejected.<tenant> counter.
  util::StatusOr<std::future<InferResponse>> submit(tensor::Tensor input,
                                                    const SubmitOptions& opts);
  util::StatusOr<std::future<InferResponse>> try_submit(
      tensor::Tensor input, const SubmitOptions& opts);

  // Submit with a caller-owned promise (the front end's dispatch path: the
  // caller handed out the matching future at admission time, possibly long
  // before this call). On rejection the promise is fulfilled with the
  // rejection status — every admitted request always gets exactly one
  // response — and the returned Status mirrors it.
  util::Status submit_with_promise(tensor::Tensor input,
                                   const SubmitOptions& opts,
                                   std::promise<InferResponse> promise,
                                   bool blocking = true);

  // Stop accepting, drain everything already accepted, join workers.
  // Idempotent; also run by the destructor.
  void shutdown();

  EngineStats stats() const;
  const EngineConfig& config() const { return cfg_; }
  std::size_t queue_depth() const { return queue_.size(); }

  // Microseconds since engine construction on a steady clock — the
  // timebase of every InferResponse timestamp.
  double now_us() const;

 private:
  util::StatusOr<std::future<InferResponse>> submit_impl(
      tensor::Tensor input, const SubmitOptions& opts, bool blocking);
  void worker_loop(int worker_id);

  EngineConfig cfg_;
  RequestQueue queue_;
  std::vector<std::shared_ptr<InferenceSession>> sessions_;
  std::vector<std::thread> workers_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> next_batch_id_{0};
  std::atomic<std::int64_t> in_flight_{0};
  std::atomic<std::int64_t> last_slo_log_s_{-1};  // exemplar rate limiter
  std::atomic<bool> shut_down_{false};

  mutable std::mutex stats_mutex_;
  EngineStats stats_;
};

}  // namespace odq::serve
