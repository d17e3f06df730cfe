// Tenant-aware serving front end: admission control, weighted fair
// queueing, deadline shedding, and graceful degradation — the policy layer
// the network server (net/server.hpp) drops requests into.
//
//   submit(tenant) ──► per-tenant bounded FIFO ──► WFQ dispatcher thread
//                       (admission control)              │
//                                                        ▼
//                                        ServeEngine::submit_with_promise
//                                        (blocking — engine backpressure
//                                         stalls the dispatcher, never
//                                         drops an admitted request)
//
// Admission (under one mutex, so decisions are totally ordered):
//   * unknown tenant                 -> kInvalidArgument
//   * best-effort tenant, level 2    -> kUnavailable   (overload shed)
//   * tenant backlog at queue_limit  -> kResourceExhausted, charged to the
//                                       serve.rejected.<tenant> counter
//
// Scheduling is classic virtual-time weighted fair queueing: request k of
// tenant t gets finish tag max(vtime, t.last_finish) + 1/weight, and the
// dispatcher always forwards the smallest head tag. A tenant with weight 2
// drains twice as fast as a tenant with weight 1 under contention, and an
// idle tenant's first request is tagged from the current virtual time, so
// sleeping never accumulates credit (no burst after idle).
//
// Deadlines: a request whose deadline has already passed when the
// dispatcher reaches it is answered kDeadlineExceeded right there —
// expired work never occupies an engine queue slot. (The engine repeats
// the check at execution time for requests that expire in its own queue.)
//
// Degradation: the LoadShedController (serve/degrade.hpp) watches the
// front-end backlog. At level >= 1, best-effort tenants are dispatched
// with the degraded flag (the session serves them under its cheap scheme);
// at level 2 they are refused at admission. Guaranteed tenants are never
// degraded or shed — overload costs best-effort traffic first, exactly.
//
// shutdown() stops admission, lets the dispatcher drain every queued
// request into the engine (fulfilling each promise), and joins. It does
// NOT shut the engine down — the engine outlives its front end, and the
// caller sequences engine shutdown after.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/degrade.hpp"
#include "serve/engine.hpp"
#include "serve/request.hpp"
#include "util/status.hpp"

namespace odq::obs {
class Counter;
}  // namespace odq::obs

namespace odq::serve {

struct TenantSpec {
  std::string name;
  double weight = 1.0;           // WFQ share (relative drain rate)
  std::size_t queue_limit = 64;  // per-tenant backlog bound (admission)
  // Best-effort tenants absorb overload: degraded at level 1, shed at
  // level 2. Guaranteed (false) tenants always get the full scheme.
  bool best_effort = false;
};

struct TenantStats {
  std::uint64_t accepted = 0;       // admitted into the tenant queue
  std::uint64_t rejected = 0;       // queue_limit admission refusals
  std::uint64_t shed = 0;           // level-2 overload refusals
  std::uint64_t deadline_shed = 0;  // expired before dispatch
  std::uint64_t degraded = 0;       // dispatched on the degraded path
  std::uint64_t dispatched = 0;     // forwarded into the engine
};

struct FrontEndConfig {
  std::vector<TenantSpec> tenants;
  DegradeConfig degrade;
};

class ServeFrontEnd {
 public:
  // `engine` is not owned and must outlive the front end.
  ServeFrontEnd(ServeEngine& engine, FrontEndConfig cfg);
  ~ServeFrontEnd();

  ServeFrontEnd(const ServeFrontEnd&) = delete;
  ServeFrontEnd& operator=(const ServeFrontEnd&) = delete;

  // Admit one request under `tenant`'s quota. Returns the future the
  // engine worker (or a shed path) fulfills, or the admission refusal.
  // opts.tenant is overwritten with `tenant`; opts.deadline and opts.tag
  // are honored. Never blocks: admission is a queue-limit check, the
  // dispatcher absorbs engine backpressure.
  util::StatusOr<std::future<InferResponse>> submit(
      tensor::Tensor input, const std::string& tenant,
      SubmitOptions opts = {});

  // Stop admission, drain queued requests into the engine, join the
  // dispatcher. Idempotent; also run by the destructor.
  void shutdown();

  int degrade_level() const { return shed_.level(); }
  std::size_t backlog() const;

  TenantStats tenant_stats(const std::string& tenant) const;
  std::map<std::string, TenantStats> all_tenant_stats() const;

  // One-glance health for the readiness probe.
  struct Snapshot {
    bool ready = false;     // accepting new requests
    bool draining = false;  // shutdown drain in progress
    int degrade_level = 0;
    std::size_t backlog = 0;   // queued ahead of the engine
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;  // queue_limit refusals, all tenants
    std::uint64_t shed = 0;      // overload refusals, all tenants
  };
  Snapshot snapshot() const;

 private:
  struct QueuedRequest {
    tensor::Tensor input;
    SubmitOptions opts;
    std::promise<InferResponse> promise;
    double finish_tag = 0.0;
  };

  struct Tenant {
    TenantSpec spec;
    std::deque<QueuedRequest> queue;
    double last_finish = 0.0;  // finish tag of this tenant's newest request
    TenantStats stats;
    obs::Counter* rejected_metric = nullptr;  // serve.rejected.<name>
  };

  void dispatcher_loop();

  ServeEngine& engine_;
  LoadShedController shed_;
  // Metric handles, resolved here rather than under mutex_ (a registry
  // lookup takes the registry's own mutex).
  obs::Counter& shed_metric_;      // serve.shed
  obs::Counter& deadline_metric_;  // serve.deadline_exceeded

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  // unique_ptr because QueuedRequest (a promise) is move-only, which makes
  // Tenant itself unfit for vector relocation.
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::map<std::string, std::size_t> tenant_index_;
  double vtime_ = 0.0;        // WFQ virtual time
  std::size_t backlog_ = 0;   // total queued across tenants
  bool stop_ = false;

  std::mutex shutdown_mutex_;  // serializes shutdown() callers
  std::atomic<bool> draining_{false};

  std::thread dispatcher_;
};

}  // namespace odq::serve
