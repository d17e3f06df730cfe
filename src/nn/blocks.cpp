#include "nn/blocks.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace odq::nn {

using tensor::Shape;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// ResidualBlock
// ---------------------------------------------------------------------------

ResidualBlock::ResidualBlock(std::int64_t in_channels,
                             std::int64_t out_channels, std::int64_t stride,
                             std::string label)
    : label_(std::move(label)),
      conv1_(in_channels, out_channels, 3, stride, 1, /*bias=*/false,
             label_ + ".conv1"),
      bn1_(out_channels, 0.1f, 1e-5f, label_ + ".bn1"),
      relu1_(label_ + ".relu1"),
      conv2_(out_channels, out_channels, 3, 1, 1, /*bias=*/false,
             label_ + ".conv2"),
      bn2_(out_channels, 0.1f, 1e-5f, label_ + ".bn2"),
      relu2_(label_ + ".relu2"),
      has_projection_(stride != 1 || in_channels != out_channels) {
  if (has_projection_) {
    proj_conv_ = std::make_unique<Conv2d>(in_channels, out_channels, 1, stride,
                                          0, /*bias=*/false,
                                          label_ + ".proj_conv");
    proj_bn_ = std::make_unique<BatchNorm2d>(out_channels, 0.1f, 1e-5f,
                                             label_ + ".proj_bn");
  }
}

Tensor ResidualBlock::forward(const Tensor& x, bool train) {
  Tensor main = bn2_.forward(
      conv2_.forward(relu1_.forward(bn1_.forward(conv1_.forward(x, train),
                                                 train),
                                    train),
                     train),
      train);
  if (has_projection_) {
    tensor::add_inplace(
        main, proj_bn_->forward(proj_conv_->forward(x, train), train));
  } else {
    tensor::add_inplace(main, x);
  }
  return relu2_.forward(main, train);
}

Tensor ResidualBlock::backward(const Tensor& grad_out) {
  Tensor g = relu2_.backward(grad_out);  // grad at (main + shortcut)
  // Main path.
  Tensor gmain = conv1_.backward(
      bn1_.backward(relu1_.backward(conv2_.backward(bn2_.backward(g)))));
  // Shortcut path.
  if (has_projection_) {
    tensor::add_inplace(gmain, proj_conv_->backward(proj_bn_->backward(g)));
  } else {
    tensor::add_inplace(gmain, g);
  }
  return gmain;
}

void ResidualBlock::collect_params(std::vector<Param*>& out) {
  conv1_.collect_params(out);
  bn1_.collect_params(out);
  conv2_.collect_params(out);
  bn2_.collect_params(out);
  if (has_projection_) {
    proj_conv_->collect_params(out);
    proj_bn_->collect_params(out);
  }
}

void ResidualBlock::collect_buffers(std::vector<tensor::Tensor*>& out) {
  bn1_.collect_buffers(out);
  bn2_.collect_buffers(out);
  if (has_projection_) proj_bn_->collect_buffers(out);
}

void ResidualBlock::visit_convs(const std::function<void(Conv2d&)>& fn) {
  fn(conv1_);
  fn(conv2_);
  if (has_projection_) fn(*proj_conv_);
}

// ---------------------------------------------------------------------------
// DenseBlock
// ---------------------------------------------------------------------------

DenseBlock::DenseBlock(std::int64_t in_channels, std::int64_t growth,
                       std::int64_t num_layers, std::string label)
    : label_(std::move(label)),
      in_channels_(in_channels),
      growth_(growth),
      num_layers_(num_layers) {
  std::int64_t c = in_channels;
  for (std::int64_t l = 0; l < num_layers; ++l) {
    Inner inner;
    const std::string base = label_ + ".l" + std::to_string(l);
    inner.bn = std::make_unique<BatchNorm2d>(c, 0.1f, 1e-5f, base + ".bn");
    inner.relu = std::make_unique<ReLU>(base + ".relu");
    inner.conv = std::make_unique<Conv2d>(c, growth, 3, 1, 1, /*bias=*/false,
                                          base + ".conv");
    layers_.push_back(std::move(inner));
    c += growth;
  }
}

Tensor DenseBlock::forward(const Tensor& x, bool train) {
  if (train) cached_concat_.clear();
  Tensor features = x;
  for (auto& inner : layers_) {
    if (train) cached_concat_.push_back(features);
    Tensor f = inner.conv->forward(
        inner.relu->forward(inner.bn->forward(features, train), train), train);
    features = tensor::concat_channels(features, f);
  }
  return features;
}

Tensor DenseBlock::backward(const Tensor& grad_out) {
  if (cached_concat_.size() != layers_.size()) {
    throw std::logic_error(label_ + ": backward before train-mode forward");
  }
  // grad over the full concatenated output [in + L*growth channels].
  Tensor grad = grad_out;
  const Shape& s = grad.shape();
  const std::int64_t n = s[0], h = s[2], w = s[3];
  const std::int64_t hw = h * w;

  for (std::int64_t l = static_cast<std::int64_t>(layers_.size()) - 1; l >= 0;
       --l) {
    auto& inner = layers_[static_cast<std::size_t>(l)];
    const std::int64_t cin = in_channels_ + growth_ * l;
    const std::int64_t ctot = cin + growth_;
    // Split grad into [grad_prefix (cin ch), grad_f (growth ch)].
    Tensor gprefix(Shape{n, cin, h, w});
    Tensor gf(Shape{n, growth_, h, w});
    for (std::int64_t b = 0; b < n; ++b) {
      const float* src = grad.data() + b * ctot * hw;
      std::copy(src, src + cin * hw, gprefix.data() + b * cin * hw);
      std::copy(src + cin * hw, src + ctot * hw,
                gf.data() + b * growth_ * hw);
    }
    // Backprop the layer's output grad to its (concatenated) input and fold
    // into the prefix grad.
    Tensor gin = inner.bn->backward(
        inner.relu->backward(inner.conv->backward(gf)));
    tensor::add_inplace(gprefix, gin);
    grad = std::move(gprefix);
  }
  return grad;
}

void DenseBlock::collect_params(std::vector<Param*>& out) {
  for (auto& inner : layers_) {
    inner.bn->collect_params(out);
    inner.conv->collect_params(out);
  }
}

void DenseBlock::collect_buffers(std::vector<tensor::Tensor*>& out) {
  for (auto& inner : layers_) inner.bn->collect_buffers(out);
}

void DenseBlock::visit_convs(const std::function<void(Conv2d&)>& fn) {
  for (auto& inner : layers_) fn(*inner.conv);
}

// ---------------------------------------------------------------------------
// TransitionLayer
// ---------------------------------------------------------------------------

TransitionLayer::TransitionLayer(std::int64_t in_channels,
                                 std::int64_t out_channels, std::string label)
    : label_(std::move(label)),
      bn_(in_channels, 0.1f, 1e-5f, label_ + ".bn"),
      relu_(label_ + ".relu"),
      conv_(in_channels, out_channels, 1, 1, 0, /*bias=*/false,
            label_ + ".conv"),
      pool_(2, label_ + ".pool") {}

Tensor TransitionLayer::forward(const Tensor& x, bool train) {
  return pool_.forward(
      conv_.forward(relu_.forward(bn_.forward(x, train), train), train),
      train);
}

Tensor TransitionLayer::backward(const Tensor& grad_out) {
  return bn_.backward(relu_.backward(conv_.backward(pool_.backward(grad_out))));
}

void TransitionLayer::collect_params(std::vector<Param*>& out) {
  bn_.collect_params(out);
  conv_.collect_params(out);
}

void TransitionLayer::collect_buffers(std::vector<tensor::Tensor*>& out) {
  bn_.collect_buffers(out);
}

void TransitionLayer::visit_convs(const std::function<void(Conv2d&)>& fn) {
  fn(conv_);
}

}  // namespace odq::nn
