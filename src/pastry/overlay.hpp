#pragma once

// The Pastry overlay: a set of message-passing nodes with prefix routing.
//
// This is the substrate Kosha runs on (paper §2.2, §4.3). Nodes join by
// routing a join message to the numerically closest existing node and
// copying state from the nodes along the path; a failure verdict triggers
// leaf-set repair at the observer, and dead routing-table entries held
// elsewhere are detected lazily during routing.
// All inter-node traffic is counted on the simulated network, and none of
// it advances the clock: membership and repair are background work, and a
// route returns its wire time for the caller to wait out (only koshad's
// resolution does).
//
// The overlay keeps a ground-truth Ring of live nodes for verification and
// for picking deterministic bootstrap nodes; the routing protocol itself
// never consults it.

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/sim_network.hpp"
#include "pastry/failure_detector.hpp"
#include "pastry/leaf_set.hpp"
#include "pastry/ring.hpp"
#include "pastry/routing_table.hpp"
#include "pastry/types.hpp"

namespace kosha::pastry {

/// Result of routing a key: the owning node, the overlay hops taken, and
/// the route's wire time (hop latencies plus rpc_timeout per dead
/// routing-table entry pruned on the way).
struct RouteResult {
  NodeId owner;
  unsigned hops = 0;
  SimDuration cost{};
};

/// Fired on a node when its leaf set membership changes (join or repair).
/// Kosha's replication manager reacts by re-establishing replicas.
using NeighborCallback = std::function<void()>;

/// Fired when `observer` confirms `dead` as failed and repairs its own
/// state (every verdict, oracle or detector; the cluster uses it to time
/// detection).
using FailureListener = std::function<void(NodeId observer, NodeId dead)>;

class PastryOverlay {
 public:
  PastryOverlay(PastryConfig config, net::SimNetwork* network);

  /// Join a new node with identifier `id` living on `host` (one overlay
  /// node per host). Performs the Pastry join protocol against a live
  /// bootstrap node. Background work: its traffic is counted, and the
  /// clock does not move.
  void join(NodeId id, net::HostId host);

  /// Crash-fail a node with instantaneous verdicts (the oracle, used when
  /// self-healing is off): mark_dead() plus report_failure() at once for
  /// every live node whose leaf set holds it. Other routing-table entries
  /// decay lazily during routing.
  void fail(NodeId id);

  /// Crash-fail a node *without* telling anyone: the node stops being
  /// live, but survivors keep it in their leaf sets until a verdict
  /// (a failure detector's, or fail()'s) calls report_failure().
  void mark_dead(NodeId id);

  /// `observer` confirmed `dead` as failed: drop it from the observer's
  /// leaf set and routing table, repair the leaf set, fire the observer's
  /// neighbor callback so replication reacts, and tell the failure
  /// listener. Background work: the repair traffic is counted, and the
  /// clock does not move. Safe to call with stale verdicts (no-op when
  /// already gone).
  void report_failure(NodeId observer, NodeId dead);

  /// `observer` learned that `peer` — which it had declared dead — is in
  /// fact alive (false suspicion healed): fold it back into the observer's
  /// leaf set and routing table and fire the neighbor callback. Background
  /// work, counted like report_failure().
  void reintroduce(NodeId observer, NodeId peer);

  [[nodiscard]] bool is_live(NodeId id) const;
  [[nodiscard]] std::size_t live_count() const { return ring_.size(); }

  [[nodiscard]] net::HostId host_of(NodeId id) const;
  /// The live node on `host`, or kInvalid if none.
  [[nodiscard]] NodeId node_on_host(net::HostId host) const;
  [[nodiscard]] bool host_has_node(net::HostId host) const;

  /// Route `key` from the node on `from_host`: counts one message per hop
  /// and one timeout per dead routing-table entry it prunes, and returns
  /// the wire time in RouteResult::cost without advancing the clock.
  [[nodiscard]] RouteResult route(net::HostId from_host, Key key);

  /// Route without counting or pruning (diagnostics / analytics).
  [[nodiscard]] RouteResult trace_route(NodeId from, Key key) const;

  /// The K leaf-set neighbors of `node`, closest first — Kosha's replica
  /// targets.
  [[nodiscard]] std::vector<NodeId> replica_targets(NodeId node, std::size_t k) const;

  void set_neighbor_callback(NodeId id, NeighborCallback callback);

  /// Failure-detector registry: scheduled probe events resolve detectors
  /// through here at fire time, so events aimed at a dead or stopped node
  /// become no-ops instead of dangling. mark_dead() clears the slot.
  void set_detector(NodeId id, FailureDetector* detector);
  [[nodiscard]] FailureDetector* detector(NodeId id) const;
  /// detector(id) for a node that lives (or lived) on `host`: one read of
  /// the per-host table and an id check instead of an index probe. A
  /// revived host runs a fresh id, so the check rejects its old one.
  [[nodiscard]] FailureDetector* detector_on(net::HostId host, NodeId id) const {
    const Node* n = host < node_by_host_.size() ? node_by_host_[host] : nullptr;
    return n != nullptr && n->id == id ? n->detector : nullptr;
  }
  /// The heartbeat legs in flight, for every node's detector.
  [[nodiscard]] HeartbeatLegPool& heartbeat_legs() { return heartbeat_legs_; }

  /// Observe confirmed failure reports (detection-latency metrics).
  void set_failure_listener(FailureListener listener) { failure_listener_ = std::move(listener); }

  /// Ground truth over live nodes (tests, simulators, bootstrap choice).
  [[nodiscard]] const Ring& ring() const { return ring_; }

  [[nodiscard]] const LeafSet& leaf_set(NodeId id) const;
  [[nodiscard]] const RoutingTable& routing_table(NodeId id) const;
  [[nodiscard]] const PastryConfig& config() const { return config_; }

 private:
  struct Node {
    NodeId id;
    net::HostId host;
    RoutingTable table;
    LeafSet leaves;
    NeighborCallback on_leaf_change;
    /// The node's heartbeat failure detector, when the cluster runs one
    /// (self-healing mode). Not owned; cleared on death.
    FailureDetector* detector = nullptr;

    Node(NodeId node_id, net::HostId h, const PastryConfig& cfg)
        : id(node_id), host(h), table(node_id, cfg), leaves(node_id, cfg.leaf_half()) {}
  };

  /// One slot of the node index: an insert-only open-addressing table
  /// (power-of-two capacity, linear probing, at most half full) from id to
  /// node. Liveness lives here and nowhere else, so is_live(), node() and
  /// detector() are each one probe. Insert-only suffices because nodes_
  /// never shrinks: a dead node keeps its slot with live == false.
  struct IndexSlot {
    NodeId id;
    Node* node = nullptr;  // nullptr marks an empty slot
    bool live = false;
  };

  /// Position of `id` in index_, or of the empty slot where it would go.
  [[nodiscard]] std::size_t slot_of(NodeId id) const;
  void index_insert(Node* n);
  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] const Node& node(NodeId id) const;
  /// One routing step from `cur` toward `key`; nullopt when `cur` is the
  /// destination. Dead routing-table entries encountered are appended to
  /// `dead_rt` (if non-null) for the caller to prune.
  [[nodiscard]] std::optional<NodeId> compute_next_hop(const Node& cur, Key key,
                                                       std::vector<NodeId>* dead_rt) const;
  void repair_leaf_set(Node& n);
  void notify_leaf_change(Node& n);

  PastryConfig config_;
  net::SimNetwork* network_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<IndexSlot> index_;
  /// 64 - log2(index_.size()): the hash keeps the top bits.
  unsigned index_shift_;
  /// The live node on each host, indexed by HostId (SimNetwork hands out
  /// dense ids); nullptr when the host runs none.
  std::vector<Node*> node_by_host_;
  Ring ring_;
  FailureListener failure_listener_;
  HeartbeatLegPool heartbeat_legs_;
};

}  // namespace kosha::pastry
