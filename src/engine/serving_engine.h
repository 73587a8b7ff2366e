#ifndef PSENS_ENGINE_SERVING_ENGINE_H_
#define PSENS_ENGINE_SERVING_ENGINE_H_

#include <memory>
#include <vector>

#include "core/sensor.h"
#include "engine/acquisition_engine.h"
#include "engine/serving_config.h"

namespace psens {

/// The serving API's name for the one engine class: every serving path
/// (SlotServer, the closed loop, the trace replayer, the benches) holds
/// a ServingEngine built by MakeServingEngine.
using ServingEngine = AcquisitionEngine;

/// Builds the serving engine the config describes. Refuses (prints the
/// problem and aborts) when config.Validate() reports one, so
/// configuration mistakes surface at construction instead of as silent
/// mis-serving.
std::unique_ptr<ServingEngine> MakeServingEngine(std::vector<Sensor> sensors,
                                                 const ServingConfig& config);

}  // namespace psens

#endif  // PSENS_ENGINE_SERVING_ENGINE_H_
