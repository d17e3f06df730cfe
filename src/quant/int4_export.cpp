#include "quant/int4_export.hpp"

#include <cmath>
#include <map>

#include "quant/quantizer.hpp"

namespace odq::quant {

util::Status export_int4(nn::Model& model, const std::string& path) {
  std::map<const nn::Param*, nn::Int4Codes> int4;
  const std::vector<nn::Conv2d*> convs = model.convs();
  for (std::size_t i = 0; i < convs.size(); ++i) {
    const nn::Param& w = convs[i]->weight();
    for (std::int64_t j = 0; j < w.value.numel(); ++j) {
      if (!std::isfinite(w.value[j])) {
        return {util::StatusCode::kInvalidArgument,
                "export_int4: conv " + std::to_string(i) + " (" +
                    convs[i]->name() + ") has a non-finite weight"};
      }
    }
    QTensor q = quantize_weights(w.value, 4, WeightTransform::kLinear);
    int4[&w] = nn::Int4Codes{std::move(q.q), q.scale};
  }
  return model.try_save(path, int4);
}

}  // namespace odq::quant
