#include "serve/frontend.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace odq::serve {

using util::Status;
using util::StatusCode;
using util::StatusOr;

ServeFrontEnd::ServeFrontEnd(ServeEngine& engine, FrontEndConfig cfg)
    : engine_(engine),
      shed_(cfg.degrade),
      shed_metric_(obs::counter("serve.shed")),
      deadline_metric_(obs::counter("serve.deadline_exceeded")) {
  if (cfg.tenants.empty()) {
    throw std::invalid_argument("ServeFrontEnd needs at least one tenant");
  }
  tenants_.reserve(cfg.tenants.size());
  for (auto& spec : cfg.tenants) {
    if (spec.name.empty()) {
      throw std::invalid_argument("tenant name must be nonempty");
    }
    if (!(spec.weight > 0.0)) {
      throw std::invalid_argument("tenant weight must be positive: " +
                                  spec.name);
    }
    if (spec.queue_limit == 0) {
      throw std::invalid_argument("tenant queue_limit must be nonzero: " +
                                  spec.name);
    }
    if (!tenant_index_.emplace(spec.name, tenants_.size()).second) {
      throw std::invalid_argument("duplicate tenant: " + spec.name);
    }
    auto t = std::make_unique<Tenant>();
    t->spec = std::move(spec);
    t->rejected_metric = &obs::counter("serve.rejected." + t->spec.name);
    tenants_.push_back(std::move(t));
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

ServeFrontEnd::~ServeFrontEnd() { shutdown(); }

StatusOr<std::future<InferResponse>> ServeFrontEnd::submit(
    tensor::Tensor input, const std::string& tenant, SubmitOptions opts) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (stop_) {
    return Status(StatusCode::kUnavailable, "front end shutting down");
  }
  const auto it = tenant_index_.find(tenant);
  if (it == tenant_index_.end()) {
    return Status(StatusCode::kInvalidArgument, "unknown tenant: " + tenant);
  }
  Tenant& t = *tenants_[it->second];
  if (t.spec.best_effort && shed_.level() >= 2) {
    ++t.stats.shed;
    shed_metric_.increment();
    return Status(StatusCode::kUnavailable,
                  "overload: best-effort traffic shed for " + tenant);
  }
  if (t.queue.size() >= t.spec.queue_limit) {
    ++t.stats.rejected;
    t.rejected_metric->increment();
    return Status(StatusCode::kResourceExhausted,
                  "tenant queue limit reached for " + tenant);
  }

  QueuedRequest q;
  q.input = std::move(input);
  q.opts = std::move(opts);
  q.opts.tenant = t.spec.name;
  std::future<InferResponse> future = q.promise.get_future();
  // WFQ finish tag: start from the virtual time (an idle tenant earns no
  // credit) or this tenant's own newest tag, whichever is later.
  const double start = std::max(vtime_, t.last_finish);
  q.finish_tag = start + 1.0 / t.spec.weight;
  t.last_finish = q.finish_tag;
  t.queue.push_back(std::move(q));
  ++backlog_;
  ++t.stats.accepted;
  shed_.observe(backlog_);
  lock.unlock();
  cv_.notify_one();
  return future;
}

void ServeFrontEnd::dispatcher_loop() {
  for (;;) {
    QueuedRequest req;
    bool expired = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || backlog_ > 0; });
      if (backlog_ == 0) {
        if (stop_) return;  // drained — admission is closed, nothing left
        continue;
      }
      // Forward the smallest head finish tag (WFQ dispatch order).
      Tenant* pick = nullptr;
      for (auto& t : tenants_) {
        if (t->queue.empty()) continue;
        if (pick == nullptr ||
            t->queue.front().finish_tag < pick->queue.front().finish_tag) {
          pick = t.get();
        }
      }
      req = std::move(pick->queue.front());
      pick->queue.pop_front();
      --backlog_;
      vtime_ = std::max(vtime_, req.finish_tag);
      const int level = shed_.observe(backlog_);
      expired = req.opts.deadline != kNoDeadline &&
                std::chrono::steady_clock::now() > req.opts.deadline;
      if (expired) {
        ++pick->stats.deadline_shed;
      } else {
        // Degrade at dispatch time, not admission: requests admitted just
        // before the level rose still ride the cheap path.
        if (level >= 1 && pick->spec.best_effort) req.opts.degraded = true;
        ++pick->stats.dispatched;
        if (req.opts.degraded) ++pick->stats.degraded;
      }
    }
    if (expired) {
      deadline_metric_.increment();
      InferResponse res;
      res.status = Status(StatusCode::kDeadlineExceeded,
                          "deadline passed before dispatch");
      req.promise.set_value(std::move(res));
      continue;
    }
    // Blocking submit: a full engine queue stalls the dispatcher (the
    // per-tenant queues absorb the burst) instead of dropping work. On
    // rejection (engine shut down, serve.submit fault) the engine fulfills
    // the promise with the refusal — nothing is ever silently dropped.
    engine_.submit_with_promise(std::move(req.input), req.opts,
                                std::move(req.promise),
                                /*blocking=*/true);
  }
}

void ServeFrontEnd::shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  draining_.store(true, std::memory_order_relaxed);
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  draining_.store(false, std::memory_order_relaxed);
}

std::size_t ServeFrontEnd::backlog() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return backlog_;
}

std::map<std::string, TenantStats> ServeFrontEnd::all_tenant_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, TenantStats> out;
  for (const auto& t : tenants_) out[t->spec.name] = t->stats;
  return out;
}

ServeFrontEnd::Snapshot ServeFrontEnd::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot s;
  s.ready = !stop_;
  s.draining = draining_.load(std::memory_order_relaxed);
  s.degrade_level = shed_.level();
  s.backlog = backlog_;
  for (const auto& t : tenants_) {
    s.accepted += t->stats.accepted;
    s.rejected += t->stats.rejected;
    s.shed += t->stats.shed;
  }
  return s;
}

}  // namespace odq::serve
