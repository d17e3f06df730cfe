// Model: an owning sequence of layers with save/load, parameter access,
// conv enumeration and executor plumbing.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/layer.hpp"
#include "util/status.hpp"

namespace odq::nn {

class Model {
 public:
  Model() = default;
  explicit Model(std::string name) : name_(std::move(name)) {}

  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  const std::string& name() const { return name_; }

  // Add a layer; returns a typed reference for further configuration.
  template <typename L, typename... Args>
  L& add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

  tensor::Tensor forward(const tensor::Tensor& x, bool train = false);
  // Backward through the whole stack; returns grad w.r.t. the model input.
  tensor::Tensor backward(const tensor::Tensor& grad_out);

  std::vector<Param*> params();
  // Non-trainable serialized state (BatchNorm running statistics).
  std::vector<tensor::Tensor*> buffers();
  void zero_grad();
  std::int64_t num_parameters();

  // Enumerate conv layers in definition order and assign ids 0..K-1
  // (the paper's C1..CK). Returns the conv pointers in id order.
  std::vector<Conv2d*> assign_conv_ids();
  std::vector<Conv2d*> convs();

  // Install the same executor on every conv layer (null resets to FP32).
  void set_conv_executor(const std::shared_ptr<ConvExecutor>& executor);

  // Binary parameter serialization (values only; architecture must match).
  //
  // save() writes checkpoint format v3: a versioned header with per-tensor
  // dtype/shape records, a CRC32 over the payload, and an atomic tmp+rename
  // commit (a crash mid-save never destroys an existing checkpoint). load()
  // reads v3 and legacy v2 files (distinguished by magic). The try_* forms
  // return a typed util::Status — corruption, truncation and architecture
  // mismatch are distinguishable — and a failed v3 try_load leaves the
  // model's tensors untouched (the payload is staged and CRC-verified
  // before being committed). save()/load() wrap them and throw
  // std::runtime_error on failure. Fault-injection sites on every
  // open/read/write are listed in docs/robustness.md.
  util::Status try_save(const std::string& path);
  util::Status try_load(const std::string& path);
  void save(const std::string& path);
  void load(const std::string& path);

 private:
  std::string name_;
  std::vector<LayerPtr> layers_;
};

// Top-1 accuracy of `model` on (images, labels): images [N,C,H,W] evaluated
// in minibatches of `batch`.
double evaluate_accuracy(Model& model, const tensor::Tensor& images,
                         const std::vector<int>& labels,
                         std::int64_t batch = 32);

// Runs one eval forward of `x` with `executor` on every conv and returns
// each conv's input by conv id (§5.2: data recorded from inference feeds
// the accelerator simulator). It installs a recorder on every conv, so no
// other thread may run the model meanwhile, and leaves every conv on the
// FP32 path (no executor), also when the forward throws. Throws for a null
// executor and for a conv the forward never reached.
std::vector<tensor::Tensor> record_conv_inputs(
    Model& model, const tensor::Tensor& x,
    const std::shared_ptr<ConvExecutor>& executor);

}  // namespace odq::nn
