#pragma once

// Shared infrastructure handles threaded through the Kosha components.

#include <functional>
#include <map>

#include "common/sim_clock.hpp"
#include "kosha/config.hpp"
#include "net/sim_network.hpp"
#include "nfs/nfs_client.hpp"
#include "pastry/overlay.hpp"

namespace kosha {

class MetricsRegistry;
class RepairDaemon;
class ReplicaManager;
class Tracer;

/// One per cluster; owned by KoshaCluster, borrowed by every node-level
/// component. Bundles the simulated infrastructure plus the cluster-wide
/// Kosha configuration.
struct Runtime {
  SimClock* clock = nullptr;
  net::SimNetwork* network = nullptr;
  pastry::PastryOverlay* overlay = nullptr;
  nfs::ServerDirectory* servers = nullptr;
  KoshaConfig config;

  /// Cluster-wide observability sinks (nullptr = off, the default). Set by
  /// KoshaCluster before any node-level component is constructed, so
  /// components may resolve their instruments once at construction.
  MetricsRegistry* metrics = nullptr;
  Tracer* tracer = nullptr;

  /// Per-host replica managers, filled in by the cluster as nodes start.
  /// Ordered map on purpose: ReplicaManager::promote walks it to pick a
  /// repair donor, and that choice must be the same in every same-seed run
  /// (kosha-lint rule D2 — unordered iteration order leaks into traces).
  std::map<net::HostId, ReplicaManager*> replica_managers;

  /// Per-host anti-entropy repair daemons (self-healing mode only).
  /// Scheduled ticks resolve the daemon through this map at fire time, so
  /// a tick aimed at a crashed node's daemon is an inert no-op. Ordered
  /// for the same D2 reason as replica_managers.
  std::map<net::HostId, RepairDaemon*> repair_daemons;

  /// Fault-injection hook for tests: when set and it returns true, an
  /// in-progress subtree copy aborts midway, leaving the
  /// MIGRATION_NOT_COMPLETE flag in place (paper §4.4 failure scenario).
  std::function<bool()> migration_interrupt;

  [[nodiscard]] ReplicaManager* replica_manager(net::HostId host) const {
    const auto it = replica_managers.find(host);
    return it == replica_managers.end() ? nullptr : it->second;
  }

  [[nodiscard]] RepairDaemon* repair_daemon(net::HostId host) const {
    const auto it = repair_daemons.find(host);
    return it == repair_daemons.end() ? nullptr : it->second;
  }
};

}  // namespace kosha
