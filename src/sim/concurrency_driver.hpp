#pragma once

// Closed-loop multi-client runs on one cluster clock.
//
// run_closed_loop is the scheduler both multi-client drivers share (this
// file's run_multi_client_workload and overload_sim's flash crowd). It
// always runs the client whose next op issues earliest, ties to the lowest
// index, hopping the shared clock between per-client timelines, so service
// queues see arrivals in timestamp order and the schedule is a pure
// function of the seed.
//
// run_multi_client_workload: N clients, each mounting /kosha on its own
// host, issue back to back a mkdir of a private /u<c>, a write pass and a
// read pass that verifies content. A file's content is a per-(client,
// file) stamp repeated to its size, built only to write it and checked in
// place on every read, so the load generator never holds an expected copy.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <tuple>
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

/// One client's place on the closed-loop schedule: it first issues at
/// `start` and issues nothing at or past `stop`.
struct Timeline {
  SimDuration start{};
  SimDuration stop = SimDuration::nanos(std::numeric_limits<std::int64_t>::max());
};

/// One op's interval on its client's timeline, as the runner measured it.
struct OpSpan {
  SimDuration issued{};
  SimDuration done{};
  [[nodiscard]] SimDuration took() const { return done - issued; }
};

/// Run `clients` closed-loop clients on `clock`; client i's start and stop
/// are timeline(i), read once before any op runs. Always runs the op with
/// the lowest (issue time, client index): sets the clock to its issue
/// time, calls op(i) (returns whether it succeeded) and passes the measured
/// span to next(i, span, ok), which returns client i's next issue time, or
/// nullopt when it is done. A client leaves once its next issue time
/// reaches its stop. Leaves the clock where the last op left it; returns
/// the latest op completion (both the entry time if none ran).
template <typename TimelineOf, typename Op, typename Next>
SimDuration run_closed_loop(SimClock& clock, std::size_t clients, TimelineOf&& timeline,
                            Op&& op, Next&& next) {
  using Ready = std::tuple<SimDuration, std::size_t, SimDuration>;  // (issue, client, stop)
  std::priority_queue<Ready, std::vector<Ready>, std::greater<>> ready;
  for (std::size_t i = 0; i < clients; ++i) {
    const Timeline t = timeline(i);
    if (t.start < t.stop) ready.emplace(t.start, i, t.stop);
  }
  SimDuration latest = clock.now();
  while (!ready.empty()) {
    const auto [issued, i, stop] = ready.top();
    ready.pop();
    clock.set_now(issued);
    const bool ok = op(i);
    const OpSpan span{issued, clock.now()};
    if (span.done > latest) latest = span.done;
    const std::optional<SimDuration> again = next(i, span, ok);
    if (again.has_value() && *again < stop) ready.emplace(*again, i, stop);
  }
  return latest;
}

/// Run the workload on `cluster` (which must outlive the call). The
/// cluster's clock ends at the workload's finish time.
[[nodiscard]] WorkloadResult run_multi_client_workload(KoshaCluster& cluster,
                                                       const WorkloadConfig& config);

}  // namespace kosha::sim
