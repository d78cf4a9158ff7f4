#pragma once

// Deterministic fault injection for the simulated LAN.
//
// A FaultPlan sits between a sender and the wire: every message is judged
// against (in order) link partitions, host brownouts, and a per-message
// drop probability; delivered messages may additionally suffer a latency
// spike. All stochastic draws come from the plan's own seeded Rng, so a
// chaos run with a given plan replays bit-for-bit — the property the
// determinism-guard tests and the Fig-7 fault sweeps rely on.
//
// Failure vocabulary (distinct from SimNetwork's permanent up/down flag):
//   * drop      — one message silently lost; the sender times out.
//   * brownout  — a host stalls for a virtual-time window [start, end):
//                 messages to or from it are lost until it recovers.
//   * partition — no traffic crosses between two host groups during a
//                 virtual-time window; both sides stay individually alive.
//   * spike     — a delivered message pays extra latency.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"

namespace kosha::net {

using HostId = std::uint32_t;

/// Stochastic knobs of a fault plan; windows are added imperatively.
struct FaultPlanConfig {
  std::uint64_t seed = 1;
  /// Probability that any single remote message is silently dropped.
  double drop_probability = 0.0;
  /// Probability that a delivered remote message pays `latency_spike`.
  double latency_spike_probability = 0.0;
  SimDuration latency_spike = SimDuration::millis(2);
};

class FaultPlan {
 public:
  /// Verdict for one message attempt.
  enum class Delivery { kDeliver, kDrop, kBrownout, kPartitioned };

  explicit FaultPlan(FaultPlanConfig config) : config_(config), rng_(config.seed) {}

  /// Stall `host` during the virtual-time window [start, end).
  void add_brownout(HostId host, SimDuration start, SimDuration end) {
    brownouts_.push_back({host, start, end});
  }

  /// Block all traffic between the two groups during [start, end).
  void add_partition(std::vector<HostId> group_a, std::vector<HostId> group_b,
                     SimDuration start, SimDuration end) {
    partitions_.push_back({std::move(group_a), std::move(group_b), start, end});
  }

  /// Test hook: force the n-th subsequently judged remote message
  /// (1 = the very next one) to drop, regardless of probabilities.
  void force_drop_message(std::uint64_t nth_from_now) {
    forced_drops_.push_back(judged_ + nth_from_now);
  }

  /// Judge one remote message sent at virtual time `now`. Local messages
  /// (src == dst) never traverse the wire and are not judged.
  [[nodiscard]] Delivery judge(HostId src, HostId dst, SimDuration now);

  /// Extra latency for one delivered message; zero unless a spike fires.
  /// Consumes one Rng draw iff spikes are configured.
  [[nodiscard]] SimDuration draw_spike();

  [[nodiscard]] bool in_brownout(HostId host, SimDuration now) const;
  [[nodiscard]] bool partitioned(HostId a, HostId b, SimDuration now) const;

  [[nodiscard]] const FaultPlanConfig& config() const { return config_; }

 private:
  struct Brownout {
    HostId host;
    SimDuration start, end;
  };
  struct Partition {
    std::vector<HostId> a, b;
    SimDuration start, end;
  };

  FaultPlanConfig config_;
  Rng rng_;
  std::vector<Brownout> brownouts_;
  std::vector<Partition> partitions_;
  std::uint64_t judged_ = 0;
  std::vector<std::uint64_t> forced_drops_;
};

}  // namespace kosha::net
