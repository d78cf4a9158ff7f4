#pragma once

// The five benchmark workloads. Each call of a workload is one rep: it
// builds a fresh cluster from the seed, runs the measured phase from one
// thread, checks the outputs, and reports what it saw.

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace kosha::bench {

struct RepOptions {
  std::uint64_t seed = 42;
  /// Shrinks every workload size (smoke runs); 1 is the benchmark proper.
  double scale = 1.0;
  /// Metrics, tracer and profiler on: the traced rep.
  bool traced = false;
  /// Time the per-layer ladder rungs after the measured phase.
  bool ladder = false;
};

struct RepResult {
  double setup_s = 0;  // host seconds: cluster construction plus inputs
  double run_s = 0;    // host seconds: the measured phase
  /// Nodes built during set-up (pastry.join.host_us = setup_s / nodes).
  std::size_t nodes = 0;
  std::uint64_t attempted = 0;
  /// Ops that failed or returned the wrong content.
  std::uint64_t failed = 0;
  /// Non-empty when an output check failed; the run is then incorrect.
  std::string error;
  /// Deterministic figures (virtual time, counts): every rep of one seed,
  /// traced or not, must reproduce them bit for bit.
  Report virt;
  /// Host-measured per-layer figures of this rep; reported as the median
  /// over reps.
  Report host;
  /// Figures only the traced rep produces.
  Report traced;
};

using WorkloadFn = RepResult (*)(const RepOptions&);

struct WorkloadInfo {
  const char* name;
  WorkloadFn run;
};

[[nodiscard]] const std::vector<WorkloadInfo>& workloads();

}  // namespace kosha::bench
