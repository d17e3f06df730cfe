// Request/response types for the in-process batched inference engine.
//
// A request is one sample (an NCHW tensor with N == 1, or an unbatched
// CHW tensor the session promotes). The engine answers every accepted
// request with an InferResponse carrying a typed util::Status — errors
// (bad shape, injected faults, executor failures) travel back to the
// caller instead of taking a worker down.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <string>

#include "tensor/tensor.hpp"
#include "util/status.hpp"

namespace odq::serve {

// submit() tag sentinel: "no client tag, use the engine-assigned id".
inline constexpr std::uint64_t kNoRequestTag = ~0ULL;

// "No deadline": requests without one never expire.
inline constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

struct InferResponse {
  util::Status status;    // OK iff `output` is valid
  tensor::Tensor output;  // model output for this sample ([1, classes])

  // Scheduling metadata, for latency accounting and batching tests.
  std::uint64_t request_id = 0;
  std::size_t batch_size = 0;  // how many requests shared the batch
  int worker_id = -1;
  double enqueue_us = 0.0;  // microseconds on the engine's steady clock
  double start_us = 0.0;    // batch execution began
  double done_us = 0.0;     // response delivered
  // Scheme the session actually evaluated under ("odq", and under load-shed
  // degradation the session's degraded scheme, e.g. "static_int8").
  std::string scheme;
  bool degraded = false;  // true when the degraded path served the request

  double latency_us() const { return done_us - enqueue_us; }
};

// Per-request submit metadata. Defaults reproduce the plain submit(input)
// behavior: engine-assigned tag, no tenant attribution, no deadline, full
// scheme.
struct SubmitOptions {
  std::uint64_t tag = kNoRequestTag;
  // Tenant identity for admission attribution (serve.rejected.<tenant>
  // metrics and the front end's per-tenant accounting). Empty = untracked.
  std::string tenant;
  // Absolute shed point: a request whose deadline passed before execution
  // is answered kDeadlineExceeded without running the model.
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
  // Load-shed hint: evaluate under the session's degraded scheme
  // (predictor-only / static-INT8) instead of the full one.
  bool degraded = false;
};

// A queued request: input plus the promise the worker fulfills. Internal to
// the engine/queue; callers hold the matching std::future<InferResponse>.
struct PendingRequest {
  std::uint64_t id = 0;
  // Client-supplied identity for the shadow sampling lane. Engine ids are
  // allocated in arrival order (nondeterministic under concurrent
  // submitters), so deterministic 1-in-N sampling keys on this instead;
  // defaults to the engine id when the caller passes kNoRequestTag.
  std::uint64_t tag = 0;
  std::string tenant;
  tensor::Tensor input;
  double enqueue_us = 0.0;
  std::chrono::steady_clock::time_point enqueue_tp;
  std::chrono::steady_clock::time_point deadline = kNoDeadline;
  bool degraded = false;
  std::promise<InferResponse> promise;
};

}  // namespace odq::serve
