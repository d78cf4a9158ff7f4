#pragma once

// Anti-entropy replica repair daemon (paper §4.3: transparent recovery).
//
// One per node, running on the virtual clock via the event loop. Each
// pass delegates to ReplicaManager::reconcile(): promote/hand off anchors
// of dead primaries, refresh targets, migrate moved anchors, audit every
// (anchor, target) placement against the current ring, re-push missing
// or incomplete copies (rate-limited to max_pushes_per_tick per pass),
// and reclaim stale hidden copies.
//
// The daemon is what turns the failure detector's local ring repair into
// restored replication: a leaf-set change re-targets replicas once, but
// only the periodic audit converges the system back to K live copies when
// pushes raced a crash, a brownout ate a delete, or a falsely-suspected
// node returned with stale state.
//
// Invariants (DESIGN §8):
//   * repair traffic is background: counted by NetStats, never charged to
//     a foreground op. A pass's copies count their messages, and its
//     routes (reconciling dead primaries, migrating moved anchors) count
//     their hops and ignore the cost they return, so a pass never moves
//     the clock;
//   * repair is idempotent: a pass over a converged node performs audits
//     only, no mutations;
//   * repair is rate-limited: at most max_pushes_per_tick anchor pushes
//     per pass, so a mass failure cannot melt the network;
//   * scheduled callbacks never capture the daemon: they re-resolve it
//     through the runtime registry, so a crashed node's pending tick is
//     an inert no-op (same discipline as pastry::FailureDetector).

#include <cstdint>

#include "common/event_loop.hpp"
#include "common/sim_clock.hpp"
#include "kosha/runtime.hpp"

namespace kosha {

struct RepairDaemonConfig {
  /// Base interval between anti-entropy passes, plus loop jitter in
  /// [0, jitter] so the cluster's daemons do not phase-lock.
  SimDuration period = SimDuration::millis(400);
  SimDuration jitter = SimDuration::millis(60);
  /// Repair-RPC rate limit: anchor re-pushes allowed per pass.
  std::size_t max_pushes_per_tick = 4;
};

struct RepairDaemonStats {
  std::uint64_t ticks = 0;
  std::uint64_t promoted = 0;
  std::uint64_t handed_off = 0;
  std::uint64_t pushed = 0;
  std::uint64_t dropped = 0;
  /// Holes seen by the most recent audit (0 once converged).
  std::uint64_t last_missing = 0;
  /// Passes that performed no pushes because the host was busy serving
  /// foreground RPCs (overload control: anti-entropy yields first).
  std::uint64_t yields = 0;

  friend bool operator==(const RepairDaemonStats&, const RepairDaemonStats&) = default;
};

class RepairDaemon {
 public:
  RepairDaemon(RepairDaemonConfig config, Runtime* runtime, net::HostId host);

  RepairDaemon(const RepairDaemon&) = delete;
  RepairDaemon& operator=(const RepairDaemon&) = delete;

  /// Register with the runtime and schedule the first pass.
  void start();
  /// Stop and deregister; pending ticks become no-ops.
  void stop();

  /// One anti-entropy pass now (also the scheduled-tick body).
  void tick();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] net::HostId host() const { return host_; }
  [[nodiscard]] const RepairDaemonStats& stats() const { return stats_; }
  [[nodiscard]] const RepairDaemonConfig& config() const { return config_; }

 private:
  void schedule_tick();

  RepairDaemonConfig config_;
  Runtime* runtime_;
  net::HostId host_;
  bool running_ = false;
  RepairDaemonStats stats_;
};

}  // namespace kosha
