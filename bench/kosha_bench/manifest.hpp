#pragma once

// BENCHMARK.json at the repository root is the benchmark's manifest: the
// metrics every run prints, with their units, and the regression bounds of
// the end-to-end ones. The binary reads its metric lists from it, so the
// file and the output cannot drift apart.

#include <string>
#include <vector>

#include "common/result.hpp"

namespace kosha::bench {

struct ManifestMetric {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
  /// Share of the base value by which the metric may worsen (end-to-end
  /// metrics only; 0 for per-layer ones).
  double bound = 0;
};

struct Manifest {
  std::vector<ManifestMetric> end_to_end;
  std::vector<ManifestMetric> per_layer;
};

[[nodiscard]] Result<Manifest, std::string> load_manifest(const std::string& path);

}  // namespace kosha::bench
