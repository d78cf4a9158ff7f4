#pragma once

// KoshaCluster — the top-level public API of the reproduction.
//
// Owns the simulated infrastructure (clock, network, Pastry overlay, NFS
// servers) and one Kosha node per host: an NFS server exporting the host's
// /kosha_store partition, a replica manager, and a koshad loopback daemon.
// Drives node lifecycle: join (with key-space migration), crash failure
// (with replica promotion), and revival (with purge + fresh node id, paper
// §4.3).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/event_loop.hpp"
#include "common/metrics.hpp"
#include "common/profile.hpp"
#include "common/rng.hpp"
#include "common/tracing.hpp"
#include "kosha/koshad.hpp"
#include "kosha/repair.hpp"
#include "kosha/replication.hpp"
#include "kosha/runtime.hpp"
#include "nfs/nfs_server.hpp"
#include "pastry/failure_detector.hpp"

namespace kosha {

/// Observability switches. All default off: the Table 1/2 numbers must be
/// byte-identical with the instrumentation compiled in but disabled, so
/// every seam holds a nullable pointer that these flags populate.
struct ObservabilityConfig {
  bool metrics = false;
  bool tracing = false;
  /// Simulator self-profiling: per-event-category wall-clock cost, host
  /// occupancy, events/sec. Wall-derived figures vary run-to-run (the one
  /// sanctioned non-determinism, confined to kosha_prof outputs); virtual-
  /// time figures stay deterministic. Off keeps runs numerically identical.
  bool profiling = false;
};

/// Autonomous failure handling (DESIGN §8). Off by default: fail_node then
/// tells the survivors directly (the oracle) and repair runs synchronously
/// — the model every pre-existing test assumes. Enabled, fail_node only
/// stops the host: each node runs a heartbeat failure detector and an
/// anti-entropy repair daemon on the event loop, and the survivors must
/// detect the death, repair the ring, and converge replication themselves;
/// the detectors and repair daemons are timers on the cluster's event loop.
struct SelfHealConfig {
  bool enabled = false;
  pastry::FailureDetectorConfig detector;
  RepairDaemonConfig repair;
};

struct ClusterConfig {
  /// Nodes created by the constructor (more can be added later).
  std::size_t nodes = 8;
  /// Per-node contributed capacity; `capacities` overrides per node.
  std::uint64_t node_capacity_bytes = 35ull << 30;
  std::vector<std::uint64_t> capacities;
  std::uint64_t seed = 42;
  KoshaConfig kosha;
  net::NetworkConfig network;
  nfs::NfsCostModel costs;
  ObservabilityConfig observability;
  SelfHealConfig self_heal;
};

class KoshaCluster {
 public:
  explicit KoshaCluster(ClusterConfig config);
  ~KoshaCluster();

  KoshaCluster(const KoshaCluster&) = delete;
  KoshaCluster& operator=(const KoshaCluster&) = delete;

  /// Add a node contributing `capacity_bytes` (0 = config default).
  /// Triggers the join protocol and any key-space migration.
  net::HostId add_node(std::uint64_t capacity_bytes = 0);

  /// Crash a node. Without self-healing its leaf-set neighbors repair
  /// immediately (oracle-driven) and replicas are promoted before this
  /// returns. With self-healing this only stops the host: survivors
  /// discover the death via their failure detectors as virtual time runs
  /// (drive the loop, e.g. loop().run_until_time), repair the ring, and
  /// the repair daemons converge replication. Clients fail over
  /// transparently on their next access either way.
  void fail_node(net::HostId host);

  /// Gracefully retire a node (paper §4.3: leaving is distinct from
  /// failing): its primaries are evacuated to their successor owners
  /// before it departs, so nothing is lost even without replicas.
  void retire_node(net::HostId host);

  /// Bring a crashed node back: Kosha purges all its data and it rejoins
  /// the overlay under a fresh node id (paper §4.3.2).
  void revive_node(net::HostId host);

  [[nodiscard]] bool is_up(net::HostId host) const { return network_.is_up(host); }
  [[nodiscard]] std::vector<net::HostId> live_hosts() const;

  [[nodiscard]] Koshad& daemon(net::HostId host);
  [[nodiscard]] nfs::NfsServer& server(net::HostId host);
  [[nodiscard]] ReplicaManager& replicas(net::HostId host);
  [[nodiscard]] pastry::NodeId node_id(net::HostId host) const;
  /// The node's failure detector / repair daemon (self-healing mode only;
  /// null otherwise or while the node is down).
  [[nodiscard]] pastry::FailureDetector* detector(net::HostId host);
  [[nodiscard]] RepairDaemon* repair_daemon(net::HostId host);

  /// One confirmed-detection record per real failure (self-healing mode):
  /// filled when the first survivor declares the dead node and repairs.
  struct DetectionEvent {
    net::HostId host = net::kInvalidHost;
    SimDuration failed_at{};
    SimDuration detected_at{};
  };
  [[nodiscard]] const std::vector<DetectionEvent>& detections() const { return detections_; }
  /// Real failures whose death no survivor has confirmed yet.
  [[nodiscard]] std::size_t undetected_failures() const { return death_times_.size(); }

  [[nodiscard]] SimClock& clock() { return clock_; }
  /// The cluster's discrete-event scheduler: every RPC, service queue,
  /// failover probe and self-healing timer runs on it.
  [[nodiscard]] EventLoop& loop() { return loop_; }
  [[nodiscard]] net::SimNetwork& network() { return network_; }
  [[nodiscard]] pastry::PastryOverlay& overlay() { return overlay_; }
  [[nodiscard]] Runtime& runtime() { return runtime_; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }

  /// The cluster's instruments and trace collector. Both exist regardless
  /// of the observability flags; the flags only decide whether hot paths
  /// feed them (derived gauges are filled at export either way).
  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] Tracer& tracer() { return tracer_; }
  /// Simulator self-profiler (fed only when observability.profiling).
  [[nodiscard]] SimProfiler& profiler() { return profiler_; }

  /// Snapshot the registry (refreshing gauges derived from NetStats,
  /// server and daemon counters, and per-node storage occupancy) as the
  /// deterministic JSON / CSV formats kosha_stat consumes.
  [[nodiscard]] std::string export_metrics_json();
  [[nodiscard]] std::string export_metrics_csv();
  /// Finished spans as JSONL (empty when tracing was off).
  [[nodiscard]] std::string export_trace_jsonl() const { return tracer_.to_jsonl(); }

 private:
  struct Node {
    net::HostId host = net::kInvalidHost;
    pastry::NodeId id;
    /// Boot verifier of the current daemon incarnation (see
    /// nfs::RpcContext::boot). A revival allocates a fresh value so the
    /// reborn client's restarted xids cannot match servers' DRC entries
    /// from the previous life.
    std::uint64_t boot = 0;
    std::unique_ptr<nfs::NfsServer> server;
    std::unique_ptr<ReplicaManager> replicas;
    std::unique_ptr<Koshad> daemon;
    /// Self-healing mode only: the node's heartbeat detector and repair
    /// daemon. Stopped (not destroyed — their scheduled events resolve
    /// through registries, so stale objects are inert) on failure and
    /// replaced on revival.
    std::unique_ptr<pastry::FailureDetector> detector;
    std::unique_ptr<RepairDaemon> repair;
    bool alive = true;
  };

  Node& node_ref(net::HostId host);
  const Node& node_ref(net::HostId host) const;
  void join_overlay(Node& node);
  /// Self-healing mode: create and start the node's detector and repair
  /// daemon (fresh objects per incarnation).
  void start_self_heal(Node& node);
  /// Failure listener: `observer` confirmed `dead`; record first-detection
  /// latency for the real failure, if that is what it was.
  void on_failure_reported(pastry::NodeId observer, pastry::NodeId dead);
  /// Recompute the gauges derived from externally-held statistics.
  void refresh_derived_metrics();

  ClusterConfig config_;
  SimClock clock_;
  EventLoop loop_;
  Rng rng_;
  MetricsRegistry metrics_;
  Tracer tracer_;
  SimProfiler profiler_;
  net::SimNetwork network_;
  pastry::PastryOverlay overlay_;
  nfs::ServerDirectory servers_;
  Runtime runtime_;
  std::vector<std::unique_ptr<Node>> nodes_;  // indexed by host id
  /// Monotonic boot-verifier source: deterministic (no wall clock) so a
  /// seeded run replays identically across crash/revive cycles.
  std::uint64_t next_boot_ = 1;
  /// Self-healing bookkeeping: when each still-undetected real failure
  /// happened (keyed by the dead incarnation's node id), and the detection
  /// record once the first survivor confirms it.
  std::map<Uint128, DetectionEvent> death_times_;
  std::vector<DetectionEvent> detections_;
};

}  // namespace kosha
