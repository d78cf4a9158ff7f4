#pragma once

// Flash-crowd / metastable-failure simulation (overload control A/B).
//
// Drives a live KoshaCluster with a closed-loop population of readers all
// hitting one hot anchor directory (every file under /hot lives on a single
// owner node), then injects a flash crowd: a burst of extra clients with
// near-zero think time for a bounded window. Each reader issues its next op
// one think time (plus a little jitter) after its last one completed, and
// sim::run_closed_loop (concurrency_driver.hpp) interleaves the readers'
// timelines, so the schedule is a pure function of the seed.
//
// The experiment exists to demonstrate the metastable failure mode and its
// cure (ISSUE: overload control):
//
//  * Uncontrolled (overload control disabled, but clients impatient —
//    RetryPolicy::response_timeout set): during the spike the hot node's
//    service queue grows past the point where every queued request is
//    abandoned by its sender before it executes. The server still executes
//    the abandoned copies (dead work), the senders retransmit on a tight
//    exponential schedule (retry amplification), and once dead work alone
//    exceeds capacity the collapse is self-sustaining: goodput stays pinned
//    near zero long after the spike ends. The trigger is gone; the failure
//    stays — the definition of a metastable failure.
//
//  * Controlled (same workload, same retry schedule, overload control on):
//    deadline-aware admission bounces arrivals that cannot be served before
//    the sender gives up, the service loop drops queued work whose deadline
//    passed (refusing dead work instead of executing it), retry budgets cap
//    the retransmission amplification factor, and circuit breakers fail the
//    hopeless clients fast. The system sheds during the spike — spike
//    clients see kOverloaded, not slow service — and returns to baseline
//    goodput within a bounded window of the spike ending.
//
// Determinism: two same-seed runs produce byte-identical timeline CSVs and
// digests (asserted by tests/test_overload and the overload-soak CI job).

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_clock.hpp"
#include "nfs/retry_policy.hpp"

namespace kosha::sim {

struct FlashCrowdConfig {
  std::size_t nodes = 4;
  unsigned replicas = 1;
  /// Hot set: files under the single hot anchor, read with Zipf(zipf_s)
  /// popularity (rank 0 hottest).
  std::size_t hot_files = 8;
  std::size_t file_bytes = 16 * 1024;
  double zipf_s = 1.1;

  /// Steady-state population: closed-loop readers active for the whole
  /// run, think time between ops.
  std::size_t base_clients = 24;
  SimDuration base_think = SimDuration::millis(25);

  /// The flash crowd: extra readers active only in [spike_start,
  /// spike_end), with a much shorter think time.
  std::size_t spike_clients = 60;
  SimDuration spike_think = SimDuration::millis(2);
  SimDuration spike_start = SimDuration::seconds(3);
  SimDuration spike_end = SimDuration::seconds(5);

  /// Total measured run length and the goodput-accounting window.
  SimDuration duration = SimDuration::seconds(12);
  SimDuration window = SimDuration::millis(500);

  std::uint64_t seed = 1;

  /// Client impatience, shared by both arms: per-transmission abandonment
  /// after response_timeout, tight exponential backoff. This is what makes
  /// the uncontrolled system *able* to collapse — patient clients (the
  /// legacy infinite-wait schedule) queue instead of retransmitting.
  nfs::RetryPolicy retry{
      .max_attempts = 4,
      .initial_backoff = SimDuration::millis(1),
      .multiplier = 2.0,
      .max_backoff = SimDuration::millis(4),
      .jitter = 0.25,
      .response_timeout = SimDuration::millis(6),
  };

  /// false: overload control off (the metastable arm). true: the knobs
  /// below are installed cluster-wide (enabled is forced on).
  bool controlled = false;
  nfs::OverloadControlConfig overload{
      .enabled = true,
      .max_inflight = 8,
      .retry_budget_cap = 8.0,
      .retry_budget_refill = 0.1,
      .breaker_threshold = 6,
      .breaker_cooldown = SimDuration::millis(100),
      .op_budget = SimDuration::millis(30),
      .repair_yield_inflight = 4,
  };
};

struct FlashCrowdWindow {
  SimDuration start{};  // relative to measurement start
  std::size_t ok = 0;
  std::size_t failed = 0;
};

struct FlashCrowdResult {
  std::vector<FlashCrowdWindow> windows;

  /// Mean successful ops per window before the spike (first window skipped
  /// as warm-up), during the spike, and over the final post-spike windows.
  double baseline_ops = 0;
  double spike_ops = 0;
  double post_ops = 0;
  /// post_ops / baseline_ops: < 0.5 is the ISSUE's collapse criterion,
  /// >= 0.95 its recovery criterion.
  double post_over_baseline = 0;

  /// Recovery: the earliest post-spike window from which goodput stays at
  /// >= 95% of baseline through the end of the run. recovery_after_spike
  /// is the virtual time from spike_end to the end of that window (or to
  /// the end of the run when the system never recovers).
  bool recovered = false;
  SimDuration recovery_after_spike{};

  std::size_t ops_ok = 0;
  std::size_t ops_failed = 0;

  // Network-level overload counters (NetStats).
  std::uint64_t timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t admission_rejected = 0;
  std::uint64_t deadline_rejected = 0;
  std::uint64_t expired = 0;
  std::uint64_t inflight_peak = 0;

  // Client- and daemon-level counters, summed over nodes.
  std::uint64_t overloaded_replies = 0;
  std::uint64_t budget_exhausted = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_fast_fails = 0;
  std::uint64_t server_deadline_rejects = 0;
  std::uint64_t ladder_deadline_aborts = 0;

  /// Deterministic serializations for same-seed byte-identity checks.
  std::string timeline_csv;
  std::string digest;
};

/// Run one arm (config.controlled selects which). Builds its own cluster.
[[nodiscard]] FlashCrowdResult simulate_flash_crowd(const FlashCrowdConfig& config);

}  // namespace kosha::sim
