// The per-layer rows of a traced run: live readings from the traced round
// plus single-threaded replays that time each layer's public functions on
// the events that round delivered.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "workloads.h"

namespace perfbench {

struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0;
};

// `traced` is the traced round and `trace` what it observed. The tracing
// overhead row needs an untraced round too and is added by the caller.
std::vector<LayerMetric> LayerMetrics(Workload workload, uint64_t seed,
                                      const RoundResult& traced, LiveTrace& trace);

}  // namespace perfbench
