// The deployment export: a model's conv weights as packed INT4 codes plus
// their scale, the form the accelerator's PE arrays read (§5.2), in a v3
// checkpoint (dtype 1, docs/robustness.md) that Model::load reads back.
#pragma once

#include <string>

#include "nn/model.hpp"
#include "util/status.hpp"

namespace odq::quant {

// Writes `model` through Model::try_save with every conv weight quantized
// as the ODQ executor quantizes it — quantize_weights(w, 4, kLinear) — and
// every other tensor as float. A model loaded from the file holds
// code·scale as its conv weights; requantizing those gives back the same
// codes and scale, so its ODQ forward equals the source model's bit for
// bit. A conv weight that is not finite is refused (kInvalidArgument,
// naming the conv); save errors come back as Model::try_save reports them.
util::Status export_int4(nn::Model& model, const std::string& path);

}  // namespace odq::quant
