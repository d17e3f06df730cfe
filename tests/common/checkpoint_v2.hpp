// Legacy v2 checkpoint writer. The library only reads v2 files; tests write
// fresh v2 bytes with this to keep the reader covered. Layout: magic
// "NQDO", u64 param count, params, u64 buffer count, buffers (BatchNorm
// running statistics); each tensor is a u64 element count and its raw
// float payload. No shape records, no checksum.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "nn/model.hpp"
#include "util/status.hpp"

namespace odq::testutil {

inline util::Status save_v2(nn::Model& model, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return {util::StatusCode::kIoError, "save_v2: cannot open " + path};
  }
  bool ok = true;
  auto put = [&](const void* data, std::size_t bytes) {
    ok = ok && std::fwrite(data, 1, bytes, f) == bytes;
  };
  auto put_tensor = [&](const tensor::Tensor& t) {
    const auto n = static_cast<std::uint64_t>(t.numel());
    put(&n, sizeof n);
    put(t.data(), static_cast<std::size_t>(n) * sizeof(float));
  };
  const std::uint32_t magic = 0x4F44514EU;  // bytes "NQDO"
  put(&magic, sizeof magic);
  const std::vector<nn::Param*> params = model.params();
  const auto pcount = static_cast<std::uint64_t>(params.size());
  put(&pcount, sizeof pcount);
  for (const nn::Param* p : params) put_tensor(p->value);
  const std::vector<tensor::Tensor*> buffers = model.buffers();
  const auto bcount = static_cast<std::uint64_t>(buffers.size());
  put(&bcount, sizeof bcount);
  for (const tensor::Tensor* b : buffers) put_tensor(*b);
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    return {util::StatusCode::kIoError, "save_v2: short write to " + path};
  }
  return util::Status::Ok();
}

}  // namespace odq::testutil
