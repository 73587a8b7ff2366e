#include "engine/serving_config.h"

#include <cmath>

namespace psens {

std::string ServingConfig::Validate() const {
  if (!(dmax > 0.0)) return "dmax must be positive";
  if (working_region.x_max < working_region.x_min ||
      working_region.y_max < working_region.y_min) {
    return "working_region is inverted (max < min)";
  }
  if (threads < 0) return "threads must be >= 0 (0 = hardware concurrency)";
  if (!(approx.epsilon > 0.0)) return "approx.epsilon must be positive";
  if (approx.min_sample < 1) return "approx.min_sample must be >= 1";
  if (approx.sample_hint < 0) return "approx.sample_hint must be >= 0";
  if (index_auto_threshold < 0) return "index_auto_threshold must be >= 0";
  if (!std::isfinite(slo_ms) || slo_ms < 0.0) {
    return "slo_ms must be finite and >= 0 (0 disables adaptive scheduling)";
  }
  return std::string();
}

}  // namespace psens
