#pragma once

// Multi-client workload driver for the event-driven execution model.
//
// Runs N simulated clients against one cluster, each mounting /kosha on
// its own host and working in a private /u<c> subtree (mkdir, then a
// create/write pass, then a read pass that verifies content). Each file's
// content is a short per-(client, file) stamp repeated to the file size:
// the driver builds it only to write it, and checks every read in place
// against the stamp, so the load generator makes about one pass over a
// file's bytes per op and never materialises an expected string. Client
// timelines are interleaved conservatively: the driver always runs the
// client with the lowest local virtual time next (ties broken by lowest
// client index), hopping the cluster clock between per-client timelines,
// so service-queue contention at the storage nodes is observed in
// timestamp order and the schedule is deterministic for a given seed.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"

namespace kosha {
class KoshaCluster;
}

namespace kosha::sim {

/// Seeded Zipf(s) popularity sampler over ranks [0, n): rank k is drawn
/// with probability proportional to 1/(k+1)^s. Built once (O(n) CDF),
/// sampled by inverse-CDF binary search, so every draw costs one uniform
/// from the caller's Rng — deterministic for a given seed and cheap enough
/// for per-op use in the workload drivers.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n == 0 ? 1 : n) {
    double total = 0.0;
    for (std::size_t k = 0; k < cdf_.size(); ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& v : cdf_) v /= total;
    cdf_.back() = 1.0;  // guard against accumulated rounding
  }

  /// Draw a rank in [0, n); rank 0 is the most popular.
  [[nodiscard]] std::size_t sample(Rng& rng) const {
    const double u = rng.next_double();
    return static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

  [[nodiscard]] std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // cdf_[k] = P(rank <= k)
};

struct WorkloadConfig {
  std::size_t clients = 4;
  std::size_t files_per_client = 4;
  std::size_t file_bytes = 4096;
  /// Whole-file reads (with content verification) per file after the
  /// write pass.
  std::size_t reads_per_file = 2;
  /// Read-pass popularity skew. 0 (default) keeps the legacy round-robin
  /// file selection; > 0 draws each read's file from Zipf(zipf_s) using a
  /// per-client stream forked from the cluster seed, so hot-file
  /// contention is reproducible run to run.
  double zipf_s = 0.0;
};

struct WorkloadResult {
  /// Latest client finish minus the start (client timelines overlap).
  SimDuration makespan{};
  /// Sum of per-op latencies across all clients (the serial-equivalent
  /// cost of the same schedule).
  SimDuration busy{};
  SimDuration max_op{};
  std::size_t ops = 0;
  /// Ops that failed outright plus reads returning the wrong content.
  std::size_t failures = 0;

  [[nodiscard]] double mean_op_us() const {
    return ops == 0 ? 0.0 : busy.to_micros() / static_cast<double>(ops);
  }
};

/// `stamp` repeated to exactly `bytes` bytes (the last copy cut short).
/// Writes the stamp once, then doubles the filled prefix with `memcpy`.
/// `stamp` must not be empty.
[[nodiscard]] std::string repeat_stamp(std::string_view stamp, std::size_t bytes);

/// True iff `got == repeat_stamp(stamp, bytes)`, checked in place: the
/// size, the first min(k, bytes) bytes against the stamp (k = its size),
/// and then got[k..] == got[..bytes-k] in one overlapping compare, which
/// holds iff every byte equals the one k before it. `stamp` must not be
/// empty.
[[nodiscard]] bool is_repeated_stamp(std::string_view got, std::string_view stamp,
                                     std::size_t bytes);

/// Run the workload on `cluster` (which must outlive the call). The
/// cluster's clock ends at the workload's finish time.
[[nodiscard]] WorkloadResult run_multi_client_workload(KoshaCluster& cluster,
                                                       const WorkloadConfig& config);

}  // namespace kosha::sim
