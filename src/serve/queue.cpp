#include "serve/queue.hpp"

#include "obs/metrics.hpp"

namespace odq::serve {

using util::Status;
using util::StatusCode;

namespace {

// Resolved once; the registry returns the same object for the process
// lifetime, so every RequestQueue shares one depth series (the engine only
// ever constructs one queue). Its max is the peak depth.
void note_depth(std::size_t depth) {
  static obs::Series& s = obs::series("serve.queue_depth");
  s.record(depth);
}

}  // namespace

RequestQueue::RequestQueue(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

Status RequestQueue::push(PendingRequest&& req) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    space_cv_.wait(lock,
                   [&] { return items_.size() < capacity_ || closed_; });
    if (closed_) {
      return Status(StatusCode::kUnavailable, "request queue closed");
    }
    items_.push_back(std::move(req));
    note_depth(items_.size());
  }
  nonempty_cv_.notify_one();
  return Status::Ok();
}

Status RequestQueue::try_push(PendingRequest&& req) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_) {
      return Status(StatusCode::kUnavailable, "request queue closed");
    }
    if (items_.size() >= capacity_) {
      return Status(StatusCode::kUnavailable, "request queue full");
    }
    items_.push_back(std::move(req));
    note_depth(items_.size());
  }
  nonempty_cv_.notify_one();
  return Status::Ok();
}

bool RequestQueue::pop_batch(std::vector<PendingRequest>& out,
                             std::size_t max_batch,
                             std::int64_t flush_timeout_us) {
  out.clear();
  if (max_batch == 0) max_batch = 1;

  std::unique_lock<std::mutex> lock(mutex_);
  nonempty_cv_.wait(lock, [&] { return !items_.empty() || closed_; });
  if (items_.empty()) return false;  // closed and drained

  // Flush deadline anchored at the *oldest* request: a request never waits
  // in the batcher more than flush_timeout_us past its enqueue, and a
  // backlog (front already past deadline) flushes without waiting.
  const auto deadline =
      items_.front().enqueue_tp + std::chrono::microseconds(flush_timeout_us);

  auto take_available = [&] {
    while (!items_.empty() && out.size() < max_batch) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
  };
  take_available();

  while (out.size() < max_batch && !closed_) {
    const bool more = nonempty_cv_.wait_until(
        lock, deadline, [&] { return !items_.empty() || closed_; });
    if (!more) break;  // deadline expired with no new arrivals
    take_available();
  }
  if (closed_) take_available();  // closing flushes whatever arrived

  note_depth(items_.size());
  lock.unlock();
  space_cv_.notify_all();
  return true;
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  nonempty_cv_.notify_all();
  space_cv_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return items_.size();
}

}  // namespace odq::serve
