// The replica recipe the serving tools share: every copy of a served model,
// in any thread or process, holds the same weights bit for bit.
#pragma once

#include <cstdint>
#include <string>

#include "nn/init.hpp"
#include "nn/models.hpp"

namespace odq::tools {

// nn::make_model(name, width), Kaiming init at seed 1, then `checkpoint`
// when it is not empty. Throws if the checkpoint does not load.
inline nn::Model make_replica(const std::string& name, std::int64_t width,
                              const std::string& checkpoint = "") {
  nn::Model model = nn::make_model(name, width);
  nn::kaiming_init(model, 1);
  if (!checkpoint.empty()) model.try_load(checkpoint).throw_if_error();
  return model;
}

}  // namespace odq::tools
