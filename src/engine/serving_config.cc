#include "engine/serving_config.h"

#include <cmath>

namespace psens {

std::string ServingConfig::Validate() const {
  if (!(dmax > 0.0) || !std::isfinite(dmax)) {
    return "dmax must be finite and positive";
  }
  if (!std::isfinite(working_region.x_min) ||
      !std::isfinite(working_region.y_min) ||
      !std::isfinite(working_region.x_max) ||
      !std::isfinite(working_region.y_max)) {
    return "working_region must be finite";
  }
  if (working_region.x_max < working_region.x_min ||
      working_region.y_max < working_region.y_min) {
    return "working_region is inverted (max < min)";
  }
  if (!(approx.epsilon > 0.0)) return "approx.epsilon must be positive";
  return std::string();
}

}  // namespace psens
