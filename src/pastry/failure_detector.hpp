#pragma once

// Heartbeat failure detector (paper §2.2, §4.3: "node join/failure
// triggers transparent recovery").
//
// Each overlay node runs one detector that probes its leaf-set neighbors
// on a seeded period over the simulated network, so probes are subject to
// the same drops, brownouts and partitions as any other traffic. The
// detector is the oracle-free path to failure handling: when the cluster
// runs with self-healing enabled, `fail_node` only stops the host and the
// survivors must notice.
//
// Per-peer state machine:
//
//   kAlive --(misses >= suspicion_threshold)--> kSuspected
//   kSuspected --(direct ack | indirect probe succeeds)--> kAlive
//   kSuspected --(confirm_rounds indirect rounds all fail)--> kDead
//   kDead --(probe request from the peer, boot verified)--> kAlive
//
// Each probe round (tick) sends one direct probe per monitored peer and
// schedules one miss timer for the whole round, probe_timeout later: every
// probe of the round still unacked when it fires counts as a miss. Config
// requires probe_timeout < probe_period, so rounds never overlap.
//
// Two false-positive suppressions beyond the miss threshold:
//   * confirm-before-declare: a suspected peer is only declared dead after
//     `confirm_rounds` rounds of indirect probing through distinct helper
//     neighbors all fail — a short brownout that eats our probes is
//     usually survived by some helper's path, or ends before the rounds
//     run out;
//   * isolation self-quarantine: a node that has not heard an ack from
//     *anyone* within `isolation_window` assumes it is the partitioned
//     one and withholds death verdicts instead of declaring the world
//     dead.
//
// A declared death is reported to the overlay (report_failure), which
// repairs the observer's leaf set and fires the replication callback. If
// the verdict was wrong (the peer was only browned out), the peer's own
// probes reach us eventually; the probe carries its boot verifier, and a
// matching boot proves it is the same incarnation — we reinstate it
// (overlay reintroduce) rather than treating it as a new node. A genuine
// crash + revival takes a fresh node id and a fresh boot, so stale
// verdicts for the old incarnation can never capture the new one.
//
// Determinism: probe timers draw jitter from the event loop's seeded Rng
// only; message fates come from the fault plan's seeded stream via
// SimNetwork::plan_message; per-peer state lives in a vector sorted by
// id so every iteration is ordered. Scheduled callbacks never capture the
// detector itself — they re-resolve it through the overlay's registry at
// fire time, so a stopped (crashed) node's pending events become inert
// no-ops.

#include <cstdint>
#include <utility>
#include <vector>

#include "common/event_loop.hpp"
#include "common/sim_clock.hpp"
#include "net/sim_network.hpp"
#include "pastry/types.hpp"

namespace kosha::pastry {

class PastryOverlay;

struct FailureDetectorConfig {
  /// Base interval between probe sweeps; each sweep adds loop jitter in
  /// [0, probe_jitter] so the cluster's detectors do not phase-lock.
  SimDuration probe_period = SimDuration::millis(100);
  SimDuration probe_jitter = SimDuration::millis(15);
  /// A probe unanswered for this long counts as a miss. Must exceed the
  /// round-trip (2 hops + any latency spike) by a wide margin, and must be
  /// below probe_period (the constructor throws otherwise): a round's miss
  /// timer fires before the next round starts.
  SimDuration probe_timeout = SimDuration::millis(50);
  /// Consecutive direct misses before a peer becomes suspected.
  unsigned suspicion_threshold = 3;
  /// Helper neighbors asked to probe the suspect per indirect round.
  unsigned indirect_probes = 2;
  /// Indirect rounds that must all fail before declaring death.
  unsigned confirm_rounds = 2;
  /// Self-quarantine: withhold death verdicts unless some peer acked a
  /// direct probe within this window ending now.
  SimDuration isolation_window = SimDuration::millis(600);
};

struct FailureDetectorStats {
  std::uint64_t probes_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t probe_misses = 0;
  std::uint64_t suspicions = 0;
  std::uint64_t indirect_rounds = 0;
  std::uint64_t refutations = 0;
  std::uint64_t declared_dead = 0;
  std::uint64_t reinstated = 0;
  std::uint64_t quarantined_verdicts = 0;

  friend bool operator==(const FailureDetectorStats&, const FailureDetectorStats&) = default;
};

class FailureDetector {
 public:
  FailureDetector(FailureDetectorConfig config, PastryOverlay* overlay,
                  net::SimNetwork* network, EventLoop* loop, NodeId self, net::HostId host,
                  std::uint64_t boot);

  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// Register with the overlay and schedule the first probe sweep.
  void start();
  /// Stop probing and deregister. Pending scheduled events become no-ops
  /// (they resolve the detector through the overlay registry).
  void stop();

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] net::HostId host() const { return host_; }
  [[nodiscard]] std::uint64_t boot() const { return boot_; }
  [[nodiscard]] const FailureDetectorStats& stats() const { return stats_; }
  [[nodiscard]] const FailureDetectorConfig& config() const { return config_; }

  [[nodiscard]] bool is_suspected(NodeId id) const;
  /// True when this node has declared `id` dead and not reinstated it.
  /// The overlay's leaf-set repair consults this to keep a declared-dead
  /// (but possibly still live) peer from being re-inserted.
  [[nodiscard]] bool has_declared_dead(NodeId id) const;

  // --- peer-side handlers (invoked via scheduled events) -----------------

  /// A probe from `from` (incarnation `from_boot`) arrived here. Heals a
  /// stale death verdict about `from` when the boot matches. Returns
  /// whether this node acks (it is running).
  bool on_probe_request(NodeId from, std::uint64_t from_boot);
  /// The ack for probe `seq` of `target` arrived (with its boot).
  void on_probe_ack(NodeId target, std::uint64_t seq, std::uint64_t target_boot);
  /// Probe `seq` of `target` has been outstanding for probe_timeout.
  void on_probe_timeout(NodeId target, std::uint64_t seq);
  /// The current round's probes have been outstanding for probe_timeout:
  /// on_probe_timeout for each, in probe order.
  void on_round_timeout();
  /// An indirect confirmation round for `target` resolved.
  void on_confirmation(NodeId target, std::uint64_t generation, bool reached);
  /// Retry confirmation after a quarantined verdict.
  void on_quarantine_retry(NodeId target, std::uint64_t generation);
  /// Run one probe sweep over the current leaf set and reschedule.
  void tick();

 private:
  enum class Status { kAlive, kSuspected, kDead };

  struct PeerState {
    Status status = Status::kAlive;
    unsigned misses = 0;
    unsigned failed_rounds = 0;
    /// Sequence of the newest probe sent / newest ack received; a timeout
    /// event for seq <= last_ack_seq was answered in time.
    std::uint64_t last_seq = 0;
    std::uint64_t last_ack_seq = 0;
    /// Last boot verifier heard from the peer (0 = never heard one).
    std::uint64_t last_boot = 0;
    /// Bumped on every status change; stale in-flight confirmation events
    /// carry an older generation and are dropped.
    std::uint64_t generation = 0;
  };

  /// One direct probe of the current round, and the seq it was sent with.
  struct RoundProbe {
    NodeId target;
    std::uint64_t seq = 0;
  };

  /// The state kept for `id`, or nullptr when there is none.
  [[nodiscard]] PeerState* find_peer(NodeId id);
  [[nodiscard]] const PeerState* find_peer(NodeId id) const;

  void schedule_tick();
  /// Send one direct probe; returns its seq. The miss check is the
  /// round's (see tick()).
  std::uint64_t probe(NodeId target);
  void start_confirmation_round(NodeId target, std::uint64_t generation);
  void declare_dead(NodeId target, PeerState& state);
  /// Record a detector lifecycle moment (suspect/refute/declare/reinstate/
  /// quarantine) as an instant root span tagged with the peer. Inert when
  /// tracing is off.
  void trace_event(const char* name, NodeId peer);
  /// Heal a death verdict about `peer` if it is live and the boot matches.
  void maybe_reinstate(NodeId peer, std::uint64_t peer_boot);
  /// Drop state for peers that left the monitored set: genuinely dead ids
  /// never return (revival takes a fresh id), and ids that merely fell out
  /// of the leaf set are forgotten unless a death verdict must be kept.
  void prune_state();

  FailureDetectorConfig config_;
  PastryOverlay* overlay_;
  net::SimNetwork* network_;
  EventLoop* loop_;
  NodeId self_;
  net::HostId host_;
  std::uint64_t boot_;
  bool running_ = false;
  /// Last virtual time any peer acked a direct probe (isolation guard).
  SimDuration last_ack_time_{};
  /// Per-peer state sorted by id. Only probe() inserts and only
  /// prune_state() erases, so a PeerState& is never held across either.
  std::vector<std::pair<NodeId, PeerState>> peers_;
  /// The current round's probes, checked by its single miss timer. Reused
  /// across rounds, so steady-state ticks do not allocate for it.
  std::vector<RoundProbe> round_;
  FailureDetectorStats stats_;
};

}  // namespace kosha::pastry
