#include "kosha/cluster.hpp"

#include <stdexcept>
#include <string>

#include "kosha/placement.hpp"
#include "nfs/wire.hpp"

namespace kosha {

KoshaCluster::KoshaCluster(ClusterConfig config)
    : config_(std::move(config)),
      loop_(&clock_, config_.seed),
      rng_(config_.seed),
      network_(config_.network, &clock_),
      overlay_(config_.kosha.pastry, &network_) {
  if (const std::string err = config_.kosha.validate(); !err.empty()) {
    throw std::invalid_argument("KoshaConfig: " + err);
  }
  overlay_.set_failure_listener([this](pastry::NodeId observer, pastry::NodeId dead) {
    on_failure_reported(observer, dead);
  });
  // Attaching the event loop puts NfsClient's synchronous API onto the
  // completion-based core (nfs_client.hpp).
  network_.set_event_loop(&loop_);
  if (config_.kosha.overload.enabled) {
    // Arm the network's per-host admission bounds; client-side controls
    // (budget, breakers) are armed per daemon in Koshad's constructor.
    network_.set_admission({config_.kosha.overload.max_inflight});
  }
  runtime_.clock = &clock_;
  runtime_.network = &network_;
  runtime_.overlay = &overlay_;
  runtime_.servers = &servers_;
  runtime_.config = config_.kosha;
  runtime_.config.rng_seed = config_.seed;

  // Observability wiring happens before any node exists, so every
  // component can resolve its instruments at construction. Disabled sinks
  // stay null: the hot paths then cost one branch per seam and nothing
  // else, keeping instrumented-but-off runs byte-identical.
  tracer_.set_clock(&clock_);
  tracer_.set_enabled(config_.observability.tracing);
  runtime_.metrics = config_.observability.metrics ? &metrics_ : nullptr;
  runtime_.tracer = config_.observability.tracing ? &tracer_ : nullptr;
  network_.set_observability(runtime_.metrics, runtime_.tracer);
  if (config_.observability.profiling) {
    loop_.set_profiler(&profiler_);
    network_.set_profiler(&profiler_);
  }

  for (std::size_t i = 0; i < config_.nodes; ++i) {
    const std::uint64_t capacity =
        i < config_.capacities.size() ? config_.capacities[i] : config_.node_capacity_bytes;
    (void)add_node(capacity);
  }
}

KoshaCluster::~KoshaCluster() = default;

KoshaCluster::Node& KoshaCluster::node_ref(net::HostId host) {
  if (host >= nodes_.size() || nodes_[host] == nullptr) {
    throw std::invalid_argument("unknown host");
  }
  return *nodes_[host];
}

const KoshaCluster::Node& KoshaCluster::node_ref(net::HostId host) const {
  if (host >= nodes_.size() || nodes_[host] == nullptr) {
    throw std::invalid_argument("unknown host");
  }
  return *nodes_[host];
}

void KoshaCluster::join_overlay(Node& node) {
  const bool first = overlay_.ring().empty();
  overlay_.join(node.id, node.host);
  // The join's own leaf-set notification fired before the callback could be
  // registered; run it by hand, then subscribe for future changes.
  node.replicas->on_neighbors_changed();
  ReplicaManager* rm = node.replicas.get();
  overlay_.set_neighbor_callback(node.id, [rm] { rm->on_neighbors_changed(); });
  if (first) {
    // Bootstrap the virtual root: the first node owns every key, including
    // the root directory's. Create its anchor container and register it;
    // later ownership changes migrate it like any other anchor.
    (void)node.server->store().mkdir_p(root_stored_path());
    rm->register_primary(root_stored_path(), "/");
  }
}

net::HostId KoshaCluster::add_node(std::uint64_t capacity_bytes) {
  if (capacity_bytes == 0) capacity_bytes = config_.node_capacity_bytes;
  const net::HostId host = network_.add_host();
  auto node = std::make_unique<Node>();
  node->host = host;
  node->id = rng_.next_id();
  fs::StorageConfig storage = config_.kosha.storage;
  storage.fs.capacity_bytes = capacity_bytes;
  node->server = std::make_unique<nfs::NfsServer>(host, storage, config_.costs, &clock_);
  node->server->set_observability(runtime_.metrics, runtime_.tracer);
  servers_.add(node->server.get());
  node->replicas = std::make_unique<ReplicaManager>(&runtime_, host, node->id);
  runtime_.replica_managers[host] = node->replicas.get();
  node->boot = next_boot_++;
  node->daemon = std::make_unique<Koshad>(&runtime_, host, node->boot);
  if (nodes_.size() <= host) nodes_.resize(host + 1);
  nodes_[host] = std::move(node);
  join_overlay(*nodes_[host]);
  if (config_.self_heal.enabled) start_self_heal(*nodes_[host]);
  return host;
}

void KoshaCluster::start_self_heal(Node& node) {
  node.detector = std::make_unique<pastry::FailureDetector>(
      config_.self_heal.detector, &overlay_, &network_, &loop_, node.id, node.host, node.boot);
  node.detector->start();
  node.repair = std::make_unique<RepairDaemon>(config_.self_heal.repair, &runtime_, node.host);
  node.repair->start();
}

void KoshaCluster::fail_node(net::HostId host) {
  Node& node = node_ref(host);
  if (!node.alive) return;
  node.alive = false;
  network_.set_up(host, false);
  // Drop the server from the directory too: a dead host must fail RPCs via
  // the clean unreachable path, never through a stale server pointer.
  servers_.erase(host);
  runtime_.replica_managers.erase(host);
  if (node.detector != nullptr) node.detector->stop();
  if (node.repair != nullptr) node.repair->stop();
  // Record when; the first survivor's verdict closes this record.
  death_times_[node.id] = DetectionEvent{.host = host, .failed_at = clock_.now()};
  if (config_.self_heal.enabled) {
    overlay_.mark_dead(node.id);  // survivors must notice via their detectors
  } else {
    overlay_.fail(node.id);  // instant verdicts: repair, promotion, re-replication
  }
}

void KoshaCluster::retire_node(net::HostId host) {
  Node& node = node_ref(host);
  if (!node.alive) return;
  // Hand over all primary content while the node is still reachable, then
  // depart like a failure (the overlay handles both identically; the data
  // is already gone from this node).
  node.replicas->evacuate();
  fail_node(host);
}

void KoshaCluster::revive_node(net::HostId host) {
  Node& node = node_ref(host);
  if (node.alive) return;
  // "All Kosha data on a revived node is purged" and it rejoins under a
  // fresh identifier (paper §4.3.2). The crash also lost the server's
  // volatile state: its duplicate-request cache must not survive into the
  // next life, or it could answer for requests the reborn store never saw.
  node.server->store().purge();
  node.server->clear_drc();
  node.id = rng_.next_id();
  node.alive = true;
  network_.set_up(host, true);
  servers_.add(node.server.get());
  node.replicas = std::make_unique<ReplicaManager>(&runtime_, host, node.id);
  runtime_.replica_managers[host] = node.replicas.get();
  // A fresh boot verifier: the reborn daemon's NfsClient restarts xids at
  // 0, and other servers' DRCs still hold (host, low-xid) entries from the
  // previous incarnation. The new verifier makes those entries inert.
  node.boot = next_boot_++;
  node.daemon = std::make_unique<Koshad>(&runtime_, host, node.boot);
  // Rejoin through the normal join protocol, exactly like a fresh node.
  join_overlay(node);
  // Self-healing mode: the new incarnation gets a fresh detector and
  // repair daemon (new id + new boot, so no peer's lingering "suspected"
  // or "dead" verdict about the previous life can capture it, and its own
  // detector starts with a clean slate).
  if (config_.self_heal.enabled) start_self_heal(node);
}

void KoshaCluster::on_failure_reported(pastry::NodeId observer, pastry::NodeId dead) {
  (void)observer;
  const auto it = death_times_.find(dead);
  if (it == death_times_.end()) return;  // false suspicion, not a real death
  DetectionEvent event = it->second;
  event.detected_at = clock_.now();
  death_times_.erase(it);
  detections_.push_back(event);
  metrics_.histogram("selfheal.detect_ms")
      ->record((event.detected_at - event.failed_at).to_millis());
}

std::vector<net::HostId> KoshaCluster::live_hosts() const {
  std::vector<net::HostId> out;
  for (const auto& node : nodes_) {
    if (node != nullptr && node->alive) out.push_back(node->host);
  }
  return out;
}

Koshad& KoshaCluster::daemon(net::HostId host) { return *node_ref(host).daemon; }

nfs::NfsServer& KoshaCluster::server(net::HostId host) { return *node_ref(host).server; }

ReplicaManager& KoshaCluster::replicas(net::HostId host) { return *node_ref(host).replicas; }

pastry::NodeId KoshaCluster::node_id(net::HostId host) const { return node_ref(host).id; }

pastry::FailureDetector* KoshaCluster::detector(net::HostId host) {
  Node& node = node_ref(host);
  return node.alive ? node.detector.get() : nullptr;
}

RepairDaemon* KoshaCluster::repair_daemon(net::HostId host) {
  Node& node = node_ref(host);
  return node.alive ? node.repair.get() : nullptr;
}

void KoshaCluster::refresh_derived_metrics() {
  // Statistics that already live in dedicated structs (NetStats,
  // KoshadStats, the servers' counters) are mirrored into gauges at export
  // time. This keeps the hot paths untouched — the numbers exist whether or
  // not per-event metrics were enabled — while giving kosha_stat one
  // uniform snapshot to read.
  const net::NetStats& net = network_.stats();
  metrics_.gauge("net.messages")->set(static_cast<double>(net.messages));
  metrics_.gauge("net.bytes")->set(static_cast<double>(net.bytes));
  metrics_.gauge("net.timeouts")->set(static_cast<double>(net.timeouts));
  metrics_.gauge("net.overlay_hops")->set(static_cast<double>(net.overlay_hops));
  metrics_.gauge("net.drops")->set(static_cast<double>(net.drops));
  metrics_.gauge("net.retries")->set(static_cast<double>(net.retries));
  metrics_.gauge("net.partitioned")->set(static_cast<double>(net.partitioned));
  metrics_.gauge("net.queue_delay_ns")->set(static_cast<double>(net.queue_delay_ns));
  metrics_.gauge("net.inflight_peak")->set(static_cast<double>(net.inflight_peak));

  for (const nfs::NfsProc proc : nfs::kAllProcs) {
    const net::ProcNetStats& slot = net.per_proc[nfs::proc_slot(proc)];
    if (slot.messages == 0 && slot.retries == 0 && slot.timeouts == 0) continue;
    const std::string prefix = std::string("net.proc.") + nfs::proc_name(proc);
    metrics_.gauge(prefix + ".messages")->set(static_cast<double>(slot.messages));
    metrics_.gauge(prefix + ".bytes")->set(static_cast<double>(slot.bytes));
    metrics_.gauge(prefix + ".retries")->set(static_cast<double>(slot.retries));
    metrics_.gauge(prefix + ".timeouts")->set(static_cast<double>(slot.timeouts));
  }

  for (const auto& node : nodes_) {
    if (node == nullptr || !node->alive) continue;
    const std::string prefix = "node." + std::to_string(node->host);
    const fs::StorageBackend& store = node->server->store();
    metrics_.gauge(prefix + ".store.used_bytes")->set(static_cast<double>(store.used_bytes()));
    metrics_.gauge(prefix + ".store.capacity_bytes")
        ->set(static_cast<double>(store.capacity_bytes()));
    if (store.kind() != fs::BackendKind::kFlat) {
      // Dedup/integrity gauges exist only on deduplicating backends, so the
      // flat backend's metrics export stays byte-identical to what it was
      // before the storage seam existed.
      const fs::StorageStats stats = store.stats();
      metrics_.gauge(prefix + ".store.dedup_bytes")
          ->set(static_cast<double>(stats.dedup_bytes));
      metrics_.gauge(prefix + ".store.blocks_live")
          ->set(static_cast<double>(stats.blocks_live));
      metrics_.gauge(prefix + ".store.verify_failures")
          ->set(static_cast<double>(stats.verify_failures));
    }
    metrics_.gauge(prefix + ".server.rpcs")->set(static_cast<double>(node->server->rpc_count()));
    metrics_.gauge(prefix + ".server.drc_hits")
        ->set(static_cast<double>(node->server->drc_stats().hits));
    metrics_.gauge(prefix + ".server.drc_stores")
        ->set(static_cast<double>(node->server->drc_stats().stores));
    const KoshadStats& ks = node->daemon->stats();
    metrics_.gauge(prefix + ".koshad.rpcs_forwarded")
        ->set(static_cast<double>(ks.rpcs_forwarded));
    metrics_.gauge(prefix + ".koshad.dht_lookups")->set(static_cast<double>(ks.dht_lookups));
    metrics_.gauge(prefix + ".koshad.dht_hops")->set(static_cast<double>(ks.dht_hops));
    metrics_.gauge(prefix + ".koshad.remote_rpcs")->set(static_cast<double>(ks.remote_rpcs));
    metrics_.gauge(prefix + ".koshad.failovers")->set(static_cast<double>(ks.failovers));
    metrics_.gauge(prefix + ".koshad.failed_failovers")
        ->set(static_cast<double>(ks.failed_failovers));
    metrics_.gauge(prefix + ".koshad.redirects")->set(static_cast<double>(ks.redirects));
    metrics_.gauge(prefix + ".koshad.replica_reads")->set(static_cast<double>(ks.replica_reads));
    metrics_.gauge(prefix + ".koshad.degraded_reads")
        ->set(static_cast<double>(ks.degraded_reads));
    metrics_.gauge(prefix + ".koshad.mirror_rpcs")->set(static_cast<double>(ks.mirror_rpcs));
  }

  if (config_.kosha.storage.backend != fs::BackendKind::kFlat) {
    // Cluster-wide dedup/integrity totals (sum over live stores). Gated to
    // non-flat backends for the same byte-identity reason as the per-node
    // variants above.
    fs::StorageStats total;
    for (const auto& node : nodes_) {
      if (node == nullptr || !node->alive) continue;
      const fs::StorageStats stats = node->server->store().stats();
      total.dedup_bytes += stats.dedup_bytes;
      total.blocks_live += stats.blocks_live;
      total.verify_failures += stats.verify_failures;
    }
    metrics_.gauge("store.dedup_bytes")->set(static_cast<double>(total.dedup_bytes));
    metrics_.gauge("store.blocks_live")->set(static_cast<double>(total.blocks_live));
    metrics_.gauge("store.verify_failures")->set(static_cast<double>(total.verify_failures));
  }

  if (config_.self_heal.enabled) {
    pastry::FailureDetectorStats fd;
    RepairDaemonStats rd;
    for (const auto& node : nodes_) {
      if (node == nullptr || !node->alive) continue;
      if (node->detector != nullptr) {
        const pastry::FailureDetectorStats& s = node->detector->stats();
        fd.probes_sent += s.probes_sent;
        fd.acks_received += s.acks_received;
        fd.probe_misses += s.probe_misses;
        fd.suspicions += s.suspicions;
        fd.indirect_rounds += s.indirect_rounds;
        fd.refutations += s.refutations;
        fd.declared_dead += s.declared_dead;
        fd.reinstated += s.reinstated;
        fd.quarantined_verdicts += s.quarantined_verdicts;
      }
      if (node->repair != nullptr) {
        const RepairDaemonStats& s = node->repair->stats();
        rd.ticks += s.ticks;
        rd.promoted += s.promoted;
        rd.handed_off += s.handed_off;
        rd.pushed += s.pushed;
        rd.dropped += s.dropped;
        rd.last_missing += s.last_missing;
      }
    }
    metrics_.gauge("selfheal.detector.probes")->set(static_cast<double>(fd.probes_sent));
    metrics_.gauge("selfheal.detector.acks")->set(static_cast<double>(fd.acks_received));
    metrics_.gauge("selfheal.detector.misses")->set(static_cast<double>(fd.probe_misses));
    metrics_.gauge("selfheal.detector.suspicions")->set(static_cast<double>(fd.suspicions));
    metrics_.gauge("selfheal.detector.refutations")->set(static_cast<double>(fd.refutations));
    metrics_.gauge("selfheal.detector.declared_dead")
        ->set(static_cast<double>(fd.declared_dead));
    metrics_.gauge("selfheal.detector.reinstated")->set(static_cast<double>(fd.reinstated));
    metrics_.gauge("selfheal.detector.quarantined")
        ->set(static_cast<double>(fd.quarantined_verdicts));
    metrics_.gauge("selfheal.repair.ticks")->set(static_cast<double>(rd.ticks));
    metrics_.gauge("selfheal.repair.promoted")->set(static_cast<double>(rd.promoted));
    metrics_.gauge("selfheal.repair.handed_off")->set(static_cast<double>(rd.handed_off));
    metrics_.gauge("selfheal.repair.pushed")->set(static_cast<double>(rd.pushed));
    metrics_.gauge("selfheal.repair.dropped")->set(static_cast<double>(rd.dropped));
    metrics_.gauge("selfheal.detections")->set(static_cast<double>(detections_.size()));
    metrics_.gauge("selfheal.undetected")->set(static_cast<double>(death_times_.size()));
  }

  if (config_.kosha.overload.enabled) {
    // Overload-control snapshot (gated for the usual byte-identity
    // reason): network-level shed decisions, then the client-side budget
    // and breaker totals summed over all live daemons.
    metrics_.gauge("overload.admission_rejected")
        ->set(static_cast<double>(net.admission_rejected));
    metrics_.gauge("overload.deadline_rejected")
        ->set(static_cast<double>(net.deadline_rejected));
    metrics_.gauge("overload.expired")->set(static_cast<double>(net.expired));
    nfs::OverloadClientStats oc;
    std::uint64_t server_deadline_rejects = 0;
    std::uint64_t ladder_aborts = 0;
    std::uint64_t repair_yields = 0;
    double budget_tokens = 0.0;
    for (const auto& node : nodes_) {
      if (node == nullptr || !node->alive) continue;
      const nfs::OverloadClientStats s = node->daemon->nfs_client().overload_stats();
      oc.budget_exhausted += s.budget_exhausted;
      oc.breaker_opens += s.breaker_opens;
      oc.breaker_fast_fails += s.breaker_fast_fails;
      oc.overloaded_replies += s.overloaded_replies;
      oc.breakers_open += s.breakers_open;
      budget_tokens += s.budget_tokens;
      server_deadline_rejects += node->server->deadline_rejects();
      ladder_aborts += node->daemon->stats().ladder_deadline_aborts;
      if (node->repair != nullptr) repair_yields += node->repair->stats().yields;
    }
    metrics_.gauge("overload.budget_exhausted")
        ->set(static_cast<double>(oc.budget_exhausted));
    metrics_.gauge("overload.budget_tokens")->set(budget_tokens);
    metrics_.gauge("overload.breaker_opens")->set(static_cast<double>(oc.breaker_opens));
    metrics_.gauge("overload.breaker_fast_fails")
        ->set(static_cast<double>(oc.breaker_fast_fails));
    metrics_.gauge("overload.breakers_open")->set(static_cast<double>(oc.breakers_open));
    metrics_.gauge("overload.overloaded_replies")
        ->set(static_cast<double>(oc.overloaded_replies));
    metrics_.gauge("overload.server_deadline_rejects")
        ->set(static_cast<double>(server_deadline_rejects));
    metrics_.gauge("overload.ladder_deadline_aborts")
        ->set(static_cast<double>(ladder_aborts));
    metrics_.gauge("overload.repair_yields")->set(static_cast<double>(repair_yields));
  }

  if (config_.observability.profiling) {
    profiler_.export_to(metrics_, clock_.now());
  }
}

std::string KoshaCluster::export_metrics_json() {
  refresh_derived_metrics();
  return metrics_.to_json();
}

}  // namespace kosha
