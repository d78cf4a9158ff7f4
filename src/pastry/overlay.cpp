#include "pastry/overlay.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <stdexcept>

#include "pastry/failure_detector.hpp"

namespace kosha::pastry {

namespace {

/// Total order "a is closer to target than b" with deterministic tie-break.
bool closer(Key target, NodeId a, NodeId b) {
  const Uint128 da = ring_distance(a, target);
  const Uint128 db = ring_distance(b, target);
  if (da != db) return da < db;
  return a < b;
}

/// Rough wire size of a node-state transfer, for byte accounting only.
constexpr std::size_t kStateBytes = 2048;

/// Initial node-index capacity (a power of two).
constexpr unsigned kIndexBits = 4;

}  // namespace

PastryOverlay::PastryOverlay(PastryConfig config, net::SimNetwork* network)
    : config_(config),
      network_(network),
      index_(std::size_t{1} << kIndexBits),
      index_shift_(64 - kIndexBits) {
  assert(network_ != nullptr);
}

std::size_t PastryOverlay::slot_of(NodeId id) const {
  // Ids are uniform, so a fold and one multiply spread them well enough;
  // the fold also keeps hand-written test ids that differ in only the
  // high or only the low half apart.
  std::uint64_t h = id.hi ^ id.lo;
  h ^= h >> 32;
  const std::size_t mask = index_.size() - 1;
  auto pos = static_cast<std::size_t>((h * 0x9E3779B97F4A7C15ull) >> index_shift_);
  while (index_[pos].node != nullptr && index_[pos].id != id) pos = (pos + 1) & mask;
  return pos;
}

void PastryOverlay::index_insert(Node* n) {
  if (2 * (nodes_.size() + 1) > index_.size()) {
    std::vector<IndexSlot> old(2 * index_.size());
    old.swap(index_);
    --index_shift_;
    for (const IndexSlot& slot : old) {
      if (slot.node != nullptr) index_[slot_of(slot.id)] = slot;
    }
  }
  index_[slot_of(n->id)] = IndexSlot{n->id, n, true};
}

PastryOverlay::Node& PastryOverlay::node(NodeId id) {
  Node* n = index_[slot_of(id)].node;
  if (n == nullptr) throw std::invalid_argument("unknown node id");
  return *n;
}

const PastryOverlay::Node& PastryOverlay::node(NodeId id) const {
  const Node* n = index_[slot_of(id)].node;
  if (n == nullptr) throw std::invalid_argument("unknown node id");
  return *n;
}

bool PastryOverlay::is_live(NodeId id) const { return index_[slot_of(id)].live; }

net::HostId PastryOverlay::host_of(NodeId id) const { return node(id).host; }

NodeId PastryOverlay::node_on_host(net::HostId host) const {
  if (!host_has_node(host)) throw std::invalid_argument("no live overlay node on host");
  return node_by_host_[host]->id;
}

bool PastryOverlay::host_has_node(net::HostId host) const {
  return host < node_by_host_.size() && node_by_host_[host] != nullptr;
}

const LeafSet& PastryOverlay::leaf_set(NodeId id) const { return node(id).leaves; }

const RoutingTable& PastryOverlay::routing_table(NodeId id) const { return node(id).table; }

void PastryOverlay::set_neighbor_callback(NodeId id, NeighborCallback callback) {
  node(id).on_leaf_change = std::move(callback);
}

void PastryOverlay::set_detector(NodeId id, FailureDetector* detector) {
  node(id).detector = detector;
}

FailureDetector* PastryOverlay::detector(NodeId id) const {
  const IndexSlot& slot = index_[slot_of(id)];
  return slot.live ? slot.node->detector : nullptr;
}

void PastryOverlay::notify_leaf_change(Node& n) {
  if (n.on_leaf_change && is_live(n.id)) n.on_leaf_change();
}

// One conceptual routing step of the Pastry algorithm (R&D'01 fig. 3):
// finish via the leaf set when it covers the key, otherwise fix the next
// digit via the routing table, otherwise (rare case) forward to any known
// strictly-closer node. Dead routing-table entries encountered are reported
// through `dead_rt` for the caller to prune.
std::optional<NodeId> PastryOverlay::compute_next_hop(const Node& cur, Key key,
                                                      std::vector<NodeId>* dead_rt) const {
  if (cur.leaves.covers(key)) {
    NodeId best = cur.id;
    for (const NodeId m : cur.leaves.members()) {
      if (closer(key, m, best) && is_live(m)) best = m;
    }
    if (best == cur.id) return std::nullopt;
    return best;
  }

  if (const auto nh = cur.table.next_hop(key); nh.has_value()) {
    if (is_live(*nh)) return *nh;
    if (dead_rt != nullptr) dead_rt->push_back(*nh);
  }

  // Rare case: no routing-table entry. Use any known node strictly closer
  // to the key than the current node.
  std::optional<NodeId> best;
  auto consider = [&](NodeId cand) {
    if (!closer(key, cand, cur.id) || !is_live(cand)) return;
    if (!best || closer(key, cand, *best)) best = cand;
  };
  for (const NodeId m : cur.leaves.members()) consider(m);
  for (const NodeId m : cur.table.entries()) consider(m);
  return best;  // nullopt => deliver locally
}

RouteResult PastryOverlay::route(net::HostId from_host, Key key) {
  Node* cur = &node(node_on_host(from_host));
  unsigned hops = 0;
  for (;;) {
    std::vector<NodeId> dead;
    const auto next = compute_next_hop(*cur, key, &dead);
    for (const NodeId d : dead) {
      cur->table.remove(d);
      network_->charge_timeout();
    }
    if (!next.has_value()) return {cur->id, hops};
    Node& nx = node(*next);
    network_->charge_overlay_hop(cur->host, nx.host);
    cur = &nx;
    if (++hops > 128) throw std::runtime_error("pastry routing did not converge");
  }
}

RouteResult PastryOverlay::trace_route(NodeId from, Key key) const {
  const Node* cur = &node(from);
  unsigned hops = 0;
  for (;;) {
    const auto next = compute_next_hop(*cur, key, nullptr);
    if (!next.has_value()) return {cur->id, hops};
    cur = &node(*next);
    if (++hops > 128) throw std::runtime_error("pastry routing did not converge");
  }
}

std::vector<NodeId> PastryOverlay::replica_targets(NodeId id, std::size_t k) const {
  std::vector<NodeId> out;
  if (k == 0) return out;
  for (const NodeId m : node(id).leaves.alternating_members(2 * k + 2)) {
    if (is_live(m)) out.push_back(m);
    if (out.size() == k) break;
  }
  return out;
}

void PastryOverlay::join(NodeId id, net::HostId host) {
  if (index_[slot_of(id)].node != nullptr) throw std::invalid_argument("duplicate node id");
  if (host_has_node(host)) throw std::invalid_argument("host already runs a live node");
  if (host >= network_->host_count()) throw std::invalid_argument("unknown host");

  auto owned = std::make_unique<Node>(id, host, config_);
  Node& x = *owned;
  index_insert(&x);
  nodes_.push_back(std::move(owned));
  if (host >= node_by_host_.size()) node_by_host_.resize(network_->host_count(), nullptr);
  node_by_host_[host] = &x;

  if (ring_.empty()) {
    ring_.insert(id, host);
    return;
  }

  // Route the join message from a bootstrap node to the node numerically
  // closest to the new id, remembering the path.
  Node* boot = &node(ring_.sorted().front().first);
  std::vector<Node*> path{boot};
  Node* cur = boot;
  network_->charge_message(x.host, boot->host);  // contact the bootstrap
  for (;;) {
    std::vector<NodeId> dead;
    const auto next = compute_next_hop(*cur, id, &dead);
    for (const NodeId d : dead) cur->table.remove(d);
    if (!next.has_value()) break;
    Node& nx = node(*next);
    network_->charge_overlay_hop(cur->host, nx.host);
    cur = &nx;
    path.push_back(cur);
  }

  // Build the new node's state from every node on the path (a superset of
  // the classic per-row copy; converges to the same tables).
  for (Node* p : path) {
    network_->charge_message(p->host, x.host, kStateBytes);
    auto offer = [&](NodeId cand) {
      if (!is_live(cand)) return;
      x.table.insert(cand);
      x.leaves.insert(cand);
    };
    offer(p->id);
    for (const NodeId cand : p->table.entries()) offer(cand);
    for (const NodeId cand : p->leaves.members()) offer(cand);
  }

  ring_.insert(id, host);

  // Announce the new node to everyone it learned about; they fold it into
  // their own state. Ascending id order, each peer once.
  const auto leaves = x.leaves.members();
  std::vector<NodeId> targets = x.table.entries();
  targets.insert(targets.end(), leaves.begin(), leaves.end());
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  for (const NodeId t : targets) {
    if (!is_live(t)) continue;
    Node& peer = node(t);
    network_->charge_message(x.host, peer.host, kStateBytes / 4);
    peer.table.insert(id);
    if (peer.leaves.insert(id)) notify_leaf_change(peer);
  }
  notify_leaf_change(x);
}

void PastryOverlay::repair_leaf_set(Node& n) {
  // Pull leaf-set candidates from every remaining live member; the true
  // replacement neighbor is within l/2 positions of one of them. A
  // candidate the node's own failure detector has declared dead is not
  // accepted even when ground truth says it is live — the verdict may be
  // wrong (brownout), but the node cannot know that until the peer's
  // probes prove it (reintroduce()), and flip-flopping the leaf set in
  // between would churn replicas for nothing.
  auto declared = [&](NodeId cand) {
    return n.detector != nullptr && n.detector->has_declared_dead(cand);
  };
  auto acceptable = [&](NodeId cand) { return is_live(cand) && !declared(cand); };
  const auto members = n.leaves.members();
  const std::vector<NodeId> snapshot{members.begin(), members.end()};
  for (const NodeId m : snapshot) {
    // Eviction is verdict-driven, never ground-truth-driven: a member this
    // node has not declared dead stays in the leaf set even when it is in
    // fact down, so the failure detector keeps probing it. Evicting by
    // ground truth here would silently drop a second not-yet-detected
    // casualty while repairing around the first, and a node absent from
    // every leaf set is never probed — its death would go undeclared
    // forever. Without a detector (oracle mode) ground truth is the only
    // signal there is.
    if (declared(m) || (n.detector == nullptr && !is_live(m))) {
      n.leaves.remove(m);
      continue;
    }
    if (!is_live(m)) continue;  // a silent peer answers no state pull
    const Node& peer = node(m);
    network_->charge_rtt(n.host, peer.host, kStateBytes / 4);
    n.leaves.insert(peer.id);
    for (const NodeId cand : peer.leaves.members()) {
      if (acceptable(cand)) n.leaves.insert(cand);
    }
  }
}

void PastryOverlay::mark_dead(NodeId id) {
  IndexSlot& slot = index_[slot_of(id)];
  if (slot.node == nullptr) throw std::invalid_argument("unknown node id");
  if (!slot.live) return;
  slot.live = false;
  Node& f = *slot.node;
  f.on_leaf_change = nullptr;
  f.detector = nullptr;  // pending probe events resolve to null and no-op
  ring_.remove(id);
  // A host runs at most one live node, so this host's entry is f.
  node_by_host_[f.host] = nullptr;
}

void PastryOverlay::fail(NodeId id) {
  if (!is_live(id)) return;
  mark_dead(id);

  for (const auto& up : nodes_) {
    Node& n = *up;
    if (!is_live(n.id)) continue;
    if (n.leaves.remove(id)) {
      network_->charge_timeout();  // the failure is detected by a peer
      repair_leaf_set(n);
      notify_leaf_change(n);
    }
    // Routing-table entries decay lazily during routing.
  }
}

void PastryOverlay::report_failure(NodeId observer, NodeId dead) {
  Node& n = node(observer);
  if (!is_live(observer)) return;
  const bool was_member = n.leaves.remove(dead);
  n.table.remove(dead);
  if (!was_member) return;
  repair_leaf_set(n);
  notify_leaf_change(n);
  if (failure_listener_) failure_listener_(observer, dead);
}

void PastryOverlay::reintroduce(NodeId observer, NodeId peer) {
  Node& n = node(observer);
  if (!is_live(observer) || !is_live(peer)) return;
  // Exchange state with the returning peer (it may have drifted while we
  // shunned it), then fold it back in.
  network_->charge_rtt(n.host, node(peer).host, kStateBytes / 4);
  n.table.insert(peer);
  if (n.leaves.insert(peer)) notify_leaf_change(n);
}

}  // namespace kosha::pastry
