#include "nn/model.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "tensor/ops.hpp"
#include "util/crc32.hpp"
#include "util/fault.hpp"

namespace odq::nn {

using tensor::Shape;
using tensor::Tensor;

Tensor Model::forward(const Tensor& x, bool train) {
  Tensor cur = x;
  for (auto& layer : layers_) cur = layer->forward(cur, train);
  return cur;
}

Tensor Model::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

std::vector<Param*> Model::params() {
  std::vector<Param*> out;
  for (auto& layer : layers_) layer->collect_params(out);
  return out;
}

std::vector<tensor::Tensor*> Model::buffers() {
  std::vector<tensor::Tensor*> out;
  for (auto& layer : layers_) layer->collect_buffers(out);
  return out;
}

void Model::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

std::int64_t Model::num_parameters() {
  std::int64_t n = 0;
  for (Param* p : params()) n += p->value.numel();
  return n;
}

std::vector<Conv2d*> Model::assign_conv_ids() {
  std::vector<Conv2d*> out;
  for (auto& layer : layers_) {
    layer->visit_convs([&out](Conv2d& c) {
      c.set_conv_id(static_cast<int>(out.size()));
      out.push_back(&c);
    });
  }
  return out;
}

std::vector<Conv2d*> Model::convs() {
  std::vector<Conv2d*> out;
  for (auto& layer : layers_) {
    layer->visit_convs([&out](Conv2d& c) { out.push_back(&c); });
  }
  return out;
}

void Model::set_conv_executor(const std::shared_ptr<ConvExecutor>& executor) {
  for (Conv2d* c : convs()) c->set_executor(executor);
}

namespace {

using util::Status;
using util::StatusCode;

// Checkpoint formats.
//
// v2 (legacy, read only): magic "NQDO", u64 param count, params, u64 buffer
// count, buffers (BatchNorm running statistics). Each tensor: u64 numel +
// float payload. No shape records, no checksum.
//
// v3: magic "DOQ3", then a header — u32 version, u64 param count, u64
// buffer count, one record per tensor (params then buffers: u8 dtype,
// u8 rank, u64 dims[rank]), u64 payload byte count, u32 CRC32 over the
// payload — followed by the payload (raw float data, tensors in record
// order). Saves go through a tmp file and a rename so a crash mid-save
// leaves the previous checkpoint (or nothing) behind, never a torn file.
// The full layout and its failure taxonomy live in docs/robustness.md.
constexpr std::uint32_t kMagicV2 = 0x4F44514EU;  // bytes "NQDO"
constexpr std::uint32_t kMagicV3 = 0x33514F44U;  // bytes "DOQ3"
constexpr std::uint32_t kVersion3 = 3;
constexpr std::uint8_t kDtypeF32 = 0;
constexpr std::uint8_t kMaxRank = 8;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// fwrite with failure and short-write injection sites; a real or injected
// short write surfaces as a typed error naming what was being written.
Status checked_write(std::FILE* f, const void* data, std::size_t bytes,
                     const char* what, const std::string& path) {
  if (util::fault_fire("ckpt.write")) {
    return {StatusCode::kIoError, std::string("injected write failure (") +
                                      what + ") in " + path};
  }
  std::size_t want = bytes;
  if (util::fault_fire("ckpt.short_write") && want > 0) want = bytes - 1;
  const std::size_t n = std::fwrite(data, 1, want, f);
  if (n != bytes) {
    return {StatusCode::kIoError, std::string("short write (") + what +
                                      ", wrote " + std::to_string(n) + " of " +
                                      std::to_string(bytes) + " bytes) in " +
                                      path};
  }
  return Status::Ok();
}

// fread with failure and short-read injection sites. A short read without a
// stream error is a truncated file -> corruption; a stream error -> I/O.
Status checked_read(std::FILE* f, void* data, std::size_t bytes,
                    const char* what, const std::string& path) {
  if (util::fault_fire("ckpt.read")) {
    return {StatusCode::kIoError, std::string("injected read failure (") +
                                      what + ") in " + path};
  }
  std::size_t want = bytes;
  if (util::fault_fire("ckpt.short_read") && want > 0) want = bytes - 1;
  const std::size_t n = std::fread(data, 1, want, f);
  if (n != bytes) {
    if (std::ferror(f) != 0) {
      return {StatusCode::kIoError,
              std::string("read error (") + what + ") in " + path};
    }
    return {StatusCode::kCorruption, std::string("truncated file (") + what +
                                         ", got " + std::to_string(n) +
                                         " of " + std::to_string(bytes) +
                                         " bytes) in " + path};
  }
  return Status::Ok();
}

std::size_t tensor_bytes(const tensor::Tensor& t) {
  return static_cast<std::size_t>(t.numel()) * sizeof(float);
}

// Tensor payload write with the bit-flip injection site:
// when armed, the nth payload write lands on disk with one bit flipped
// *after* the CRC was computed — the way real media corruption looks to a
// reader. The save itself still reports success.
Status write_payload(std::FILE* f, const tensor::Tensor& t,
                     const std::string& path) {
  const std::size_t bytes = tensor_bytes(t);
  if (util::fault_fire("ckpt.bitflip") && bytes > 0) {
    std::vector<unsigned char> corrupt(bytes);
    std::memcpy(corrupt.data(), t.data(), bytes);
    corrupt[0] ^= 1U;
    return checked_write(f, corrupt.data(), bytes, "tensor payload", path);
  }
  return checked_write(f, t.data(), bytes, "tensor payload", path);
}

// Gather params-then-buffers in serialization order.
std::vector<const tensor::Tensor*> serialized_tensors(
    std::vector<Param*>& ps, std::vector<tensor::Tensor*>& bs) {
  std::vector<const tensor::Tensor*> out;
  out.reserve(ps.size() + bs.size());
  for (Param* p : ps) out.push_back(&p->value);
  for (tensor::Tensor* b : bs) out.push_back(b);
  return out;
}

}  // namespace

util::Status Model::try_save(const std::string& path) {
  auto ps = params();
  auto bs = buffers();
  const auto tensors = serialized_tensors(ps, bs);

  // Pre-pass: payload size + CRC, streamed tensor-by-tensor.
  std::uint64_t payload_bytes = 0;
  std::uint32_t crc = util::crc32_init();
  for (const tensor::Tensor* t : tensors) {
    payload_bytes += tensor_bytes(*t);
    crc = util::crc32_update(crc, t->data(), tensor_bytes(*t));
  }
  const std::uint32_t payload_crc = util::crc32_final(crc);

  const std::string tmp = path + ".tmp";
  if (util::fault_fire("ckpt.open_w")) {
    return {StatusCode::kIoError, "injected open failure for " + tmp};
  }
  FilePtr f(std::fopen(tmp.c_str(), "wb"));
  if (f == nullptr) {
    return {StatusCode::kIoError, "Model::save: cannot open " + tmp};
  }

  const auto pcount = static_cast<std::uint64_t>(ps.size());
  const auto bcount = static_cast<std::uint64_t>(bs.size());
  Status st = [&] {
    Status s = checked_write(f.get(), &kMagicV3, sizeof(kMagicV3), "magic",
                             tmp);
    if (!s.ok()) return s;
    s = checked_write(f.get(), &kVersion3, sizeof(kVersion3), "version", tmp);
    if (!s.ok()) return s;
    s = checked_write(f.get(), &pcount, sizeof(pcount), "param count", tmp);
    if (!s.ok()) return s;
    s = checked_write(f.get(), &bcount, sizeof(bcount), "buffer count", tmp);
    if (!s.ok()) return s;
    for (const tensor::Tensor* t : tensors) {
      const std::uint8_t dtype = kDtypeF32;
      const auto rank = static_cast<std::uint8_t>(t->shape().rank());
      s = checked_write(f.get(), &dtype, sizeof(dtype), "tensor dtype", tmp);
      if (!s.ok()) return s;
      s = checked_write(f.get(), &rank, sizeof(rank), "tensor rank", tmp);
      if (!s.ok()) return s;
      for (std::int64_t d : t->shape().dims()) {
        const auto dim = static_cast<std::uint64_t>(d);
        s = checked_write(f.get(), &dim, sizeof(dim), "tensor dim", tmp);
        if (!s.ok()) return s;
      }
    }
    s = checked_write(f.get(), &payload_bytes, sizeof(payload_bytes),
                      "payload size", tmp);
    if (!s.ok()) return s;
    s = checked_write(f.get(), &payload_crc, sizeof(payload_crc),
                      "payload crc", tmp);
    if (!s.ok()) return s;
    for (const tensor::Tensor* t : tensors) {
      s = write_payload(f.get(), *t, tmp);
      if (!s.ok()) return s;
    }
    return Status::Ok();
  }();

  if (st.ok() && std::fflush(f.get()) != 0) {
    st = Status(StatusCode::kIoError, "Model::save: cannot flush " + tmp);
  }
  f.reset();  // close before rename
  if (!st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  if (util::fault_fire("ckpt.rename") ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return {StatusCode::kIoError, "Model::save: cannot rename " + tmp +
                                      " to " + path};
  }
  return Status::Ok();
}

namespace {

// Legacy v2 body (magic already consumed). Streams straight into the model
// tensors — a failed v2 load may leave the model partially updated, which
// is why v3 stages instead.
Status load_v2_body(std::FILE* f, const std::string& path,
                    std::vector<Param*>& ps, std::vector<tensor::Tensor*>& bs) {
  auto read_tensor_v2 = [&](tensor::Tensor& t, const char* what) {
    std::uint64_t n = 0;
    Status s = checked_read(f, &n, sizeof(n), "tensor size", path);
    if (!s.ok()) return s;
    if (n != static_cast<std::uint64_t>(t.numel())) {
      return Status(StatusCode::kFailedPrecondition,
                    std::string("Model::load: ") + what +
                        " size mismatch in " + path);
    }
    return checked_read(f, t.data(), tensor_bytes(t), what, path);
  };
  std::uint64_t pcount = 0;
  Status s = checked_read(f, &pcount, sizeof(pcount), "param count", path);
  if (!s.ok()) return s;
  if (pcount != ps.size()) {
    return Status(StatusCode::kFailedPrecondition,
                  "Model::load: parameter count mismatch in " + path);
  }
  for (Param* p : ps) {
    s = read_tensor_v2(p->value, "parameter");
    if (!s.ok()) return s;
  }
  std::uint64_t bcount = 0;
  s = checked_read(f, &bcount, sizeof(bcount), "buffer count", path);
  if (!s.ok()) return s;
  if (bcount != bs.size()) {
    return Status(StatusCode::kFailedPrecondition,
                  "Model::load: buffer count mismatch in " + path);
  }
  for (tensor::Tensor* b : bs) {
    s = read_tensor_v2(*b, "buffer");
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace

util::Status Model::try_load(const std::string& path) {
  auto ps = params();
  auto bs = buffers();
  if (util::fault_fire("ckpt.open_r")) {
    return {StatusCode::kIoError, "injected open failure for " + path};
  }
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return {StatusCode::kNotFound, "Model::load: cannot open " + path};
  }

  std::uint32_t magic = 0;
  Status s = checked_read(f.get(), &magic, sizeof(magic), "magic", path);
  if (!s.ok()) return s;
  if (magic == kMagicV2) return load_v2_body(f.get(), path, ps, bs);
  if (magic != kMagicV3) {
    return {StatusCode::kCorruption, "Model::load: bad magic in " + path};
  }

  std::uint32_t version = 0;
  s = checked_read(f.get(), &version, sizeof(version), "version", path);
  if (!s.ok()) return s;
  if (version != kVersion3) {
    return {StatusCode::kFailedPrecondition,
            "Model::load: unsupported checkpoint version " +
                std::to_string(version) + " in " + path};
  }

  std::uint64_t pcount = 0, bcount = 0;
  s = checked_read(f.get(), &pcount, sizeof(pcount), "param count", path);
  if (!s.ok()) return s;
  s = checked_read(f.get(), &bcount, sizeof(bcount), "buffer count", path);
  if (!s.ok()) return s;
  if (pcount != ps.size() || bcount != bs.size()) {
    return {StatusCode::kFailedPrecondition,
            "Model::load: tensor count mismatch in " + path + " (file has " +
                std::to_string(pcount) + " params / " + std::to_string(bcount) +
                " buffers, model has " + std::to_string(ps.size()) + " / " +
                std::to_string(bs.size()) + ")"};
  }

  const auto tensors = serialized_tensors(ps, bs);
  std::uint64_t expected_payload = 0;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    const tensor::Shape& shape = tensors[i]->shape();
    std::uint8_t dtype = 0, rank = 0;
    s = checked_read(f.get(), &dtype, sizeof(dtype), "tensor dtype", path);
    if (!s.ok()) return s;
    if (dtype != kDtypeF32) {
      return {StatusCode::kCorruption,
              "Model::load: unknown dtype " + std::to_string(dtype) +
                  " for tensor #" + std::to_string(i) + " in " + path};
    }
    s = checked_read(f.get(), &rank, sizeof(rank), "tensor rank", path);
    if (!s.ok()) return s;
    if (rank > kMaxRank) {
      return {StatusCode::kCorruption,
              "Model::load: implausible rank " + std::to_string(rank) +
                  " for tensor #" + std::to_string(i) + " in " + path};
    }
    if (rank != shape.rank()) {
      return {StatusCode::kFailedPrecondition,
              "Model::load: rank mismatch for tensor #" + std::to_string(i) +
                  " in " + path + " (file " + std::to_string(rank) +
                  ", model " + std::to_string(shape.rank()) + ")"};
    }
    for (std::size_t d = 0; d < rank; ++d) {
      std::uint64_t dim = 0;
      s = checked_read(f.get(), &dim, sizeof(dim), "tensor dim", path);
      if (!s.ok()) return s;
      if (dim != static_cast<std::uint64_t>(shape[d])) {
        return {StatusCode::kFailedPrecondition,
                "Model::load: shape mismatch for tensor #" +
                    std::to_string(i) + " dim " + std::to_string(d) + " in " +
                    path + " (file " + std::to_string(dim) + ", model " +
                    shape.str() + ")"};
      }
    }
    expected_payload += tensor_bytes(*tensors[i]);
  }

  std::uint64_t payload_bytes = 0;
  std::uint32_t payload_crc = 0;
  s = checked_read(f.get(), &payload_bytes, sizeof(payload_bytes),
                   "payload size", path);
  if (!s.ok()) return s;
  s = checked_read(f.get(), &payload_crc, sizeof(payload_crc), "payload crc",
                   path);
  if (!s.ok()) return s;
  if (payload_bytes != expected_payload) {
    return {StatusCode::kCorruption,
            "Model::load: payload size mismatch in " + path + " (header " +
                std::to_string(payload_bytes) + ", expected " +
                std::to_string(expected_payload) + " bytes)"};
  }

  // Cheap truncation / trailing-garbage check before reading the payload:
  // the header pins the exact file size, so a truncated checkpoint is
  // rejected without scanning (the corruption-matrix test sweeps every
  // byte offset of a real checkpoint and leans on this being O(header)).
  const long header_end = std::ftell(f.get());
  if (header_end < 0 || std::fseek(f.get(), 0, SEEK_END) != 0) {
    return {StatusCode::kIoError, "Model::load: cannot seek in " + path};
  }
  const long file_size = std::ftell(f.get());
  if (file_size < 0 ||
      std::fseek(f.get(), header_end, SEEK_SET) != 0) {
    return {StatusCode::kIoError, "Model::load: cannot seek in " + path};
  }
  const auto expected_size =
      static_cast<std::uint64_t>(header_end) + payload_bytes;
  if (static_cast<std::uint64_t>(file_size) != expected_size) {
    return {StatusCode::kCorruption,
            "Model::load: file size mismatch in " + path + " (" +
                std::to_string(file_size) + " bytes, header implies " +
                std::to_string(expected_size) +
                "; truncated or trailing garbage)"};
  }

  // Stage the payload and verify the CRC before touching the model: a load
  // that fails from here on leaves the previous weights fully intact.
  std::vector<float> staged(static_cast<std::size_t>(payload_bytes) /
                            sizeof(float));
  s = checked_read(f.get(), staged.data(),
                   static_cast<std::size_t>(payload_bytes), "payload", path);
  if (!s.ok()) return s;
  const std::uint32_t crc = util::crc32(
      staged.data(), static_cast<std::size_t>(payload_bytes));
  if (crc != payload_crc) {
    return {StatusCode::kCorruption,
            "Model::load: payload crc mismatch in " + path};
  }

  const float* src = staged.data();
  for (const tensor::Tensor* t : tensors) {
    auto* dst = const_cast<tensor::Tensor*>(t);
    std::memcpy(dst->data(), src, tensor_bytes(*t));
    src += t->numel();
  }
  return Status::Ok();
}

void Model::save(const std::string& path) { try_save(path).throw_if_error(); }

void Model::load(const std::string& path) { try_load(path).throw_if_error(); }

double evaluate_accuracy(Model& model, const Tensor& images,
                         const std::vector<int>& labels, std::int64_t batch) {
  const std::int64_t n = images.shape()[0];
  if (static_cast<std::int64_t>(labels.size()) != n) {
    throw std::invalid_argument("evaluate_accuracy: label count mismatch");
  }
  const std::int64_t c = images.shape()[1], h = images.shape()[2],
                     w = images.shape()[3];
  const std::int64_t chw = c * h * w;
  std::int64_t correct = 0;
  for (std::int64_t start = 0; start < n; start += batch) {
    const std::int64_t bs = std::min(batch, n - start);
    Tensor x(Shape{bs, c, h, w},
             std::vector<float>(images.data() + start * chw,
                                images.data() + (start + bs) * chw));
    Tensor logits = model.forward(x, /*train=*/false);
    for (std::int64_t i = 0; i < bs; ++i) {
      if (tensor::argmax_row(logits, i) == labels[static_cast<std::size_t>(
                                               start + i)]) {
        ++correct;
      }
    }
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

namespace {

// Hands every call to `inner` and keeps each conv's input by conv id.
struct RecordingExecutor : ConvExecutor {
  RecordingExecutor(std::shared_ptr<ConvExecutor> inner, std::size_t convs)
      : inner(std::move(inner)), inputs(convs) {}

  Tensor run(const Tensor& input, const Tensor& weight, const Tensor& bias,
             std::int64_t stride, std::int64_t pad, int conv_id) override {
    inputs.at(static_cast<std::size_t>(conv_id)) = input;
    return inner->run(input, weight, bias, stride, pad, conv_id);
  }
  std::string name() const override { return inner->name(); }

  std::shared_ptr<ConvExecutor> inner;
  std::vector<Tensor> inputs;
};

}  // namespace

std::vector<Tensor> record_conv_inputs(
    Model& model, const Tensor& x,
    const std::shared_ptr<ConvExecutor>& executor) {
  if (executor == nullptr) {
    throw std::invalid_argument("record_conv_inputs: executor is null");
  }
  const std::vector<Conv2d*> convs = model.assign_conv_ids();
  auto recorder = std::make_shared<RecordingExecutor>(executor, convs.size());
  model.set_conv_executor(recorder);
  try {
    (void)model.forward(x, /*train=*/false);
  } catch (...) {
    model.set_conv_executor(nullptr);
    throw;
  }
  model.set_conv_executor(nullptr);
  for (std::size_t i = 0; i < convs.size(); ++i) {
    if (recorder->inputs[i].empty()) {
      throw std::logic_error("record_conv_inputs: the forward never reached "
                             "conv " + std::to_string(i) + " (" +
                             convs[i]->name() + ")");
    }
  }
  return std::move(recorder->inputs);
}

}  // namespace odq::nn
