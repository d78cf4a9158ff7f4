#pragma once

// Per-layer host-cost ladder. Each rung times one layer's entry point in a
// tight loop over the workload's own inputs, after the measured phase, and
// reports `<rung>.host_ns` (median ns per call over batches) and
// `<rung>.allocs` (heap allocations per call).

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace kosha {
class KoshaCluster;
}

namespace kosha::bench {

struct LadderInputs {
  /// The workload's cluster, after its measured phase.
  KoshaCluster* cluster = nullptr;
  /// Directory names the workload created (hashed and routed by rungs).
  std::vector<std::string> names;
  /// Files the workload wrote (resolved once, then getattr'd).
  std::vector<std::string> files;
  /// The workload's typical file size (store and wire rungs).
  std::size_t file_bytes = 0;
};

[[nodiscard]] Report run_ladder(const LadderInputs& in);

}  // namespace kosha::bench
