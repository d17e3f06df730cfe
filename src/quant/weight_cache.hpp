// Prepared weights per conv, shared by the quantized conv executors (ODQ,
// static INT-N, DRQ; docs/quantization.md, "Prepared weights").
//
// An entry holds what an executor derives from one conv's float weights
// (codes, scales, packed panels) together with the float weights it was
// built from. It is reused while the incoming weight tensor keeps the same
// shape and bytes, validated by content (memcmp) on every call, so whoever
// writes the weights (an optimizer step, a checkpoint load, a test) needs
// to tell no one. Entries are immutable once published; get() snapshots
// and swaps them under one short lock, so concurrent run() callers are
// safe, and a caller keeps the entry it got alive for as long as it needs.
#pragma once

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace odq::quant {

template <typename Prepared>
class WeightCache {
 public:
  // The entry of conv `conv_id` (a negative id shares entry 0), rebuilt as
  // prepare(weight) and swapped in when `weight` differs from the weights
  // it was built from.
  template <typename Prepare>
  std::shared_ptr<const Prepared> get(const tensor::Tensor& weight,
                                      int conv_id, Prepare&& prepare) {
    const auto id = static_cast<std::size_t>(std::max(conv_id, 0));
    std::shared_ptr<const Entry> entry;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (id < entries_.size()) entry = entries_[id];
    }
    // Validated outside the lock.
    if (entry == nullptr || !entry->matches(weight)) {
      auto fresh = std::make_shared<const Entry>(
          Entry{weight, std::make_shared<const Prepared>(prepare(weight))});
      std::lock_guard<std::mutex> lock(mutex_);
      if (entries_.size() <= id) entries_.resize(id + 1);
      entries_[id] = fresh;
      entry = std::move(fresh);
    }
    return entry->value;
  }

 private:
  // `value` is held by pointer, so `Prepared` may still be incomplete where
  // an executor declares its cache.
  struct Entry {
    tensor::Tensor source;  // the float weights the entry was built from
    std::shared_ptr<const Prepared> value;

    bool matches(const tensor::Tensor& weight) const {
      return source.shape() == weight.shape() &&
             (weight.numel() == 0 ||
              std::memcmp(source.data(), weight.data(),
                          static_cast<std::size_t>(weight.numel()) *
                              sizeof(float)) == 0);
    }
  };

  std::mutex mutex_;
  std::vector<std::shared_ptr<const Entry>> entries_;
};

}  // namespace odq::quant
