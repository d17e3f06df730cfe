#include "serve/engine.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/shadow.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"

namespace odq::serve {

using util::Status;
using util::StatusCode;
using util::StatusOr;

namespace {

// Handles resolved once: a registry lookup takes its mutex, and a record
// with the switch off must cost one relaxed load.
struct ServeTelemetry {
  obs::Series& latency_us = obs::series("serve.latency_us");
  obs::Series& batch_size = obs::series("serve.batch_size");
  obs::Series& in_flight = obs::series("serve.in_flight");
  obs::Counter& requests = obs::counter("serve.requests");
  obs::Counter& errors = obs::counter("serve.errors");
  obs::Counter& batches = obs::counter("serve.batches");
  obs::Counter& rejected = obs::counter("serve.rejected");
  obs::Counter& slo_violations = obs::counter("serve.slo_violations");
  obs::Counter& deadline_exceeded = obs::counter("serve.deadline_exceeded");
  obs::Counter& degraded = obs::counter("serve.degraded");
};

ServeTelemetry& serve_telemetry() {
  static ServeTelemetry t;
  return t;
}

std::uint64_t clamp_u64(double v) {
  return v > 0.0 ? static_cast<std::uint64_t>(v) : 0;
}

}  // namespace

ServeEngine::ServeEngine(EngineConfig cfg, const SessionFactory& factory)
    : cfg_(cfg),
      queue_(cfg.queue_capacity),
      epoch_(std::chrono::steady_clock::now()) {
  if (cfg_.num_workers < 1) cfg_.num_workers = 1;
  if (cfg_.max_batch < 1) cfg_.max_batch = 1;
  if (cfg_.flush_timeout_us < 0) cfg_.flush_timeout_us = 0;
  stats_.batch_size_hist.assign(cfg_.max_batch + 1, 0);

  sessions_.reserve(static_cast<std::size_t>(cfg_.num_workers));
  for (int i = 0; i < cfg_.num_workers; ++i) {
    std::shared_ptr<InferenceSession> session = factory(i);
    if (session == nullptr) {
      throw std::invalid_argument(
          "ServeEngine: session factory returned null for worker " +
          std::to_string(i));
    }
    sessions_.push_back(std::move(session));
  }
  workers_.reserve(sessions_.size());
  for (int i = 0; i < cfg_.num_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ServeEngine::~ServeEngine() { shutdown(); }

double ServeEngine::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

StatusOr<std::future<InferResponse>> ServeEngine::submit(
    tensor::Tensor input, std::uint64_t tag) {
  SubmitOptions opts;
  opts.tag = tag;
  return submit_impl(std::move(input), opts, /*blocking=*/true);
}

StatusOr<std::future<InferResponse>> ServeEngine::try_submit(
    tensor::Tensor input, std::uint64_t tag) {
  SubmitOptions opts;
  opts.tag = tag;
  return submit_impl(std::move(input), opts, /*blocking=*/false);
}

StatusOr<std::future<InferResponse>> ServeEngine::submit(
    tensor::Tensor input, const SubmitOptions& opts) {
  return submit_impl(std::move(input), opts, /*blocking=*/true);
}

StatusOr<std::future<InferResponse>> ServeEngine::try_submit(
    tensor::Tensor input, const SubmitOptions& opts) {
  return submit_impl(std::move(input), opts, /*blocking=*/false);
}

StatusOr<std::future<InferResponse>> ServeEngine::submit_impl(
    tensor::Tensor input, const SubmitOptions& opts, bool blocking) {
  std::promise<InferResponse> promise;
  std::future<InferResponse> future = promise.get_future();
  const Status s = submit_with_promise(std::move(input), opts,
                                       std::move(promise), blocking);
  if (!s.ok()) return s;
  return future;
}

util::Status ServeEngine::submit_with_promise(
    tensor::Tensor input, const SubmitOptions& opts,
    std::promise<InferResponse> promise, bool blocking) {
  PendingRequest req;
  req.promise = std::move(promise);
  auto reject = [&](const Status& s) -> Status {
    serve_telemetry().rejected.increment();
    // Per-tenant attribution so admission-control decisions show up as
    // serve.rejected.<tenant> in odq_top, not just one global number. The
    // tenant is free-form, so its handle is looked up (registry mutex) only
    // with the switch on.
    if (!opts.tenant.empty() && obs::metrics_enabled()) {
      obs::counter("serve.rejected." + opts.tenant).increment();
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.rejected;
    }
    InferResponse res;
    res.status = s;
    req.promise.set_value(std::move(res));
    return s;
  };
  if (util::fault_fire("serve.submit")) {
    return reject(
        Status(StatusCode::kUnavailable, "injected serve.submit fault"));
  }

  req.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  req.tag = opts.tag == kNoRequestTag ? req.id : opts.tag;
  req.tenant = opts.tenant;
  req.deadline = opts.deadline;
  req.degraded = opts.degraded;
  req.input = std::move(input);
  req.enqueue_us = now_us();
  req.enqueue_tp = std::chrono::steady_clock::now();

  Status pushed = blocking ? queue_.push(std::move(req))
                           : queue_.try_push(std::move(req));
  if (!pushed.ok()) return reject(pushed);

  serve_telemetry().requests.increment();
  serve_telemetry().in_flight.record(static_cast<std::uint64_t>(
      in_flight_.fetch_add(1, std::memory_order_relaxed) + 1));
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.submitted;
  }
  return Status::Ok();
}

void ServeEngine::worker_loop(int worker_id) {
  InferenceSession& session = *sessions_[static_cast<std::size_t>(worker_id)];
  // Per-scheme latency split, resolved once per worker (registry lookup
  // takes a lock; the handle is process-lifetime).
  obs::Series& scheme_latency =
      obs::series("serve.latency_us." + session.scheme());
  std::vector<PendingRequest> batch;
  while (queue_.pop_batch(batch, cfg_.max_batch, cfg_.flush_timeout_us)) {
    const std::uint64_t batch_id =
        next_batch_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    obs::TraceSpan batch_span("serve.batch");
    batch_span.arg("batch_size", static_cast<std::int64_t>(batch.size()));
    batch_span.arg("batch_id", static_cast<std::int64_t>(batch_id));
    serve_telemetry().batches.increment();
    serve_telemetry().batch_size.record(batch.size());
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.batches;
      if (batch.size() > 1) ++stats_.multi_request_batches;
      if (batch.size() > stats_.max_batch_observed) {
        stats_.max_batch_observed = batch.size();
      }
      if (batch.size() < stats_.batch_size_hist.size()) {
        ++stats_.batch_size_hist[batch.size()];
      }
    }

    // One fault check per batch: the whole coalescing unit fails together,
    // the way a wedged replica would take out everything riding on it.
    const bool batch_fault = util::fault_fire("serve.batch");
    if (batch_fault) {
      ODQ_LOG_WARN("serve: injected serve.batch fault, failing %zu request(s)",
                   batch.size());
    }

    for (PendingRequest& req : batch) {
      InferResponse res;
      res.request_id = req.id;
      res.batch_size = batch.size();
      res.worker_id = worker_id;
      res.enqueue_us = req.enqueue_us;
      res.start_us = now_us();
      const bool expired = req.deadline != kNoDeadline &&
                           std::chrono::steady_clock::now() > req.deadline;
      if (batch_fault) {
        res.status =
            Status(StatusCode::kUnavailable, "injected serve.batch fault");
      } else if (expired) {
        // Shed before execution: a request that already missed its deadline
        // would only burn capacity the queue behind it needs.
        res.status = Status(StatusCode::kDeadlineExceeded,
                            "deadline passed before execution");
        serve_telemetry().deadline_exceeded.increment();
      } else {
        // The request scope tags the exec span and every span the session
        // run emits underneath it (conv phases: odq.pack/gemm/...) with
        // this request's id, linking the whole path in the trace.
        obs::TraceRequestScope req_scope(static_cast<std::int64_t>(req.id));
        obs::TraceSpan exec_span("serve.exec");
        exec_span.arg("worker", worker_id);
        try {
          if (req.degraded) {
            res.output = session.run_degraded(req.input);
            res.scheme = session.degraded_scheme();
            res.degraded = true;
            serve_telemetry().degraded.increment();
          } else {
            res.output = session.run(req.input);
            res.scheme = session.scheme();
          }
        } catch (const std::exception& e) {
          res.status = Status(StatusCode::kInvalidArgument, e.what());
        } catch (...) {
          res.status = Status(StatusCode::kInvalidArgument,
                              "unknown inference failure");
        }
      }
      res.done_us = now_us();
      const double queue_wait_us = res.start_us - res.enqueue_us;
      if (cfg_.shadow != nullptr && res.status.ok()) {
        cfg_.shadow->offer(req.tag, req.input);
      }

      serve_telemetry().in_flight.record(static_cast<std::uint64_t>(std::max(
          in_flight_.fetch_sub(1, std::memory_order_relaxed) - 1,
          std::int64_t{0})));
      serve_telemetry().latency_us.record(clamp_u64(res.latency_us()));
      scheme_latency.record(clamp_u64(res.latency_us()));
      if (!res.status.ok()) serve_telemetry().errors.increment();
      if (obs::trace_enabled()) {
        // Retrospective spans on the trace timeline, so queue wait +
        // batching delay + execution show up per request; both carry the
        // request id explicitly (the scope above has already closed).
        const double end_ts = obs::trace_now_us();
        const auto req_id = static_cast<std::int64_t>(req.id);
        obs::trace_record("serve.request", end_ts - res.latency_us(),
                          res.latency_us(), "batch_size",
                          static_cast<std::int64_t>(res.batch_size), "req_id",
                          req_id);
        obs::trace_record("serve.queue_wait", end_ts - res.latency_us(),
                          queue_wait_us, "req_id", req_id);
      }
      const bool over_slo = cfg_.slo_us > 0 &&
                            res.latency_us() > static_cast<double>(cfg_.slo_us);
      if (over_slo) {
        serve_telemetry().slo_violations.increment();
        // Exemplar: one full phase breakdown per second, not one per
        // violation — an overloaded engine must not drown in its own logs.
        const auto now_s = static_cast<std::int64_t>(res.done_us / 1e6);
        std::int64_t last = last_slo_log_s_.load(std::memory_order_relaxed);
        if (now_s != last &&
            last_slo_log_s_.compare_exchange_strong(
                last, now_s, std::memory_order_relaxed)) {
          ODQ_LOG_WARN(
              "serve: req %llu over SLO (%lld us): latency %.0f us = queue "
              "%.0f us + exec %.0f us, batch %zu (id %llu), worker %d, "
              "scheme %s",
              static_cast<unsigned long long>(req.id),
              static_cast<long long>(cfg_.slo_us), res.latency_us(),
              queue_wait_us, res.done_us - res.start_us, res.batch_size,
              static_cast<unsigned long long>(batch_id), worker_id,
              session.scheme().c_str());
        }
      }
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.completed;
        if (!res.status.ok()) ++stats_.errors;
        if (over_slo) ++stats_.slo_violations;
        if (expired && !batch_fault) ++stats_.deadline_exceeded;
        if (res.degraded) ++stats_.degraded;
      }
      req.promise.set_value(std::move(res));
    }
    batch.clear();
  }
}

void ServeEngine::shutdown() {
  bool expected = false;
  if (!shut_down_.compare_exchange_strong(expected, true)) {
    // Another caller already ran (or is running) the drain; joining again
    // would race on workers_, and the first caller guarantees the drain.
    return;
  }
  queue_.close();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

EngineStats ServeEngine::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace odq::serve
