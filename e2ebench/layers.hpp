// The traced pass's per-layer figures, measured from outside the program:
// steady_clock spans around each module's public entry points, on the
// workload's own query text, population and result sizes. They never run
// while end-to-end figures are being measured.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "closed_loop.hpp"

namespace e2ebench {

struct LayerMetric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct LayerInputs {
  const WorkloadSpec& spec;
  /// One request's query texts, as client 0 sends them.
  std::vector<std::string> texts;
  /// A reply of the traced loop with the median number of ids.
  const hyperfile::QueryResult& median_reply;
  /// Ids of the population and the oracle closure (for portion sizes).
  const Oracle& oracle;
  /// Private directory for the WAL-attached stores.
  std::string scratch_dir;
  /// Restart time of each durable site, from the durability check; empty
  /// for volatile workloads, which time a single-site recovery instead.
  std::vector<double> restart_ms;
};

/// Time each layer's entry points; metrics come back in a fixed order.
std::vector<LayerMetric> measure_layers(const LayerInputs& in);

}  // namespace e2ebench
