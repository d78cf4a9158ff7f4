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
// On the wire a round travels in legs, not one event per message: the
// round's probes that reach their targets at one instant form one leg and
// one event, which runs each target's side in send order and groups the
// replies the same way into ack legs. Without a latency spike a round is
// at most four events (tick, miss timer, probe leg, ack leg) however many
// peers it probes. This is exact: same-instant events dispatch FIFO by id, and the
// per-message events a leg replaces would have had consecutive ids. The
// legs in flight live in the overlay's HeartbeatLegPool, not in the
// sending detector, because KoshaCluster::revive_node destroys a detector
// while its round may still be on the wire. The round itself is reused from tick to
// tick while the leaf set is unchanged and no verdict is held.
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
// SimNetwork::plan_message; per-peer state lives in vectors sorted by
// id so every iteration is ordered. Scheduled callbacks never capture the
// detector itself — they re-resolve it through the overlay's registry at
// fire time, so a stopped (crashed) node's pending events become inert
// no-ops.

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "common/event_loop.hpp"
#include "common/sim_clock.hpp"
#include "net/sim_network.hpp"
#include "pastry/leaf_set.hpp"
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

/// One leg of a heartbeat round: the probes one detector sent that reach
/// their targets at one instant, or the acks that come back to it at one
/// instant, in send order. One event delivers the whole leg.
struct HeartbeatLeg {
  struct Message {
    NodeId target;  ///< the probed peer
    net::HostId target_host = 0;
    /// The target's index in the sender's peer table when the probe left;
    /// the ack checks it still holds the target before trusting it.
    std::size_t peer = 0;
    std::uint64_t seq = 0;
    /// Acks only: the boot verifier the target answered with.
    std::uint64_t target_boot = 0;
  };
  NodeId sender;
  net::HostId sender_host = 0;
  std::uint64_t sender_boot = 0;
  SimDuration arrival{};
  std::vector<Message> messages;
};

/// The heartbeat legs on the wire, owned by the overlay (a sending
/// detector may be destroyed while its legs are in flight). Events capture
/// a leg by index; the deque keeps references valid while legs are added,
/// and a released leg keeps its message buffer, so steady rounds allocate
/// nothing.
class HeartbeatLegPool {
 public:
  HeartbeatLeg& operator[](std::uint32_t index) { return legs_[index]; }
  /// Start a batch: the legs one send loop fills, one per arrival instant.
  void begin_batch() { batch_.clear(); }
  /// The batch's leg from `sender` arriving at `arrival`, taken from the
  /// pool when the batch has none yet.
  HeartbeatLeg& leg_at(SimDuration arrival, NodeId sender, net::HostId sender_host,
                       std::uint64_t sender_boot);
  /// The batch's legs, in order of their first message.
  [[nodiscard]] std::span<const std::uint32_t> batch() const { return batch_; }
  /// Return a delivered leg to the pool.
  void release(std::uint32_t index);

 private:
  std::deque<HeartbeatLeg> legs_;
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> batch_;
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
  /// Peers this node currently holds a death verdict about.
  [[nodiscard]] std::size_t death_verdicts() const { return death_verdicts_; }

  // --- peer-side handlers (invoked via scheduled events) -----------------

  /// A probe from `from` (incarnation `from_boot`) arrived here. Heals a
  /// stale death verdict about `from` when the boot matches. Returns
  /// whether this node acks (it is running).
  bool on_probe_request(NodeId from, std::uint64_t from_boot);
  /// The ack for probe `seq` of `target` arrived (with its boot). `peer`
  /// is the target's table index when the probe left, used while it still
  /// holds the target.
  void on_probe_ack(NodeId target, std::size_t peer, std::uint64_t seq,
                    std::uint64_t target_boot);
  /// The current round's probes have been outstanding for probe_timeout:
  /// each one still unacked is a miss, in probe order.
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
    /// The peer's host, fixed with its id when the state is added.
    net::HostId host = 0;
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

  /// One direct probe of the current round: the probed peer's index in
  /// the peer table, fixed when the round starts, and the probe's seq.
  struct RoundProbe {
    std::size_t peer = 0;
    std::uint64_t seq = 0;
  };
  static constexpr std::size_t kNoPeer = static_cast<std::size_t>(-1);

  /// The peer-table index of `id`, or kNoPeer when no state is kept.
  [[nodiscard]] std::size_t find_peer(NodeId id) const;
  /// The peer-table index of `id`, inserting fresh state when missing.
  std::size_t find_or_add_peer(NodeId id);

  void schedule_tick();
  /// Rebuild round_ from the leaf set: prune the peer table, add state for
  /// new members, and fix each probe's table index.
  void rebuild_round(const LeafSet& leaves);
  /// Send the round's probes in probe order, one event per arrival
  /// instant (see deliver_probes). The miss check is the round's timer.
  void send_round();
  /// A probe leg arrived: run each target's side in send order and send
  /// the replies, one ack leg per arrival instant.
  static void deliver_probes(PastryOverlay* overlay, net::SimNetwork* network, EventLoop* loop,
                             std::uint32_t leg);
  /// An ack leg arrived back at its sender.
  static void deliver_acks(PastryOverlay* overlay, EventLoop* loop, std::uint32_t leg);
  /// Probe `seq` of the peer at `peer` has been outstanding for
  /// probe_timeout: a miss unless it was acked.
  void on_probe_timeout(std::size_t peer, std::uint64_t seq);
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
  void prune_state(const LeafSet& leaves);

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
  /// The peer table: ids sorted ascending, and each id's state at the same
  /// index. Searches walk the flat id array alone. Only rebuild_round()
  /// changes the table (prune_state() erases, then find_or_add_peer()
  /// inserts) and nothing holds a PeerState& or an index across a tick,
  /// except round_, whose indices rebuild_round() fixes once the table is
  /// final, and the probes in flight, whose acks check that their index
  /// still holds their target.
  std::vector<NodeId> peer_ids_;
  std::vector<PeerState> peer_states_;
  /// Entries of peer_states_ with status kDead. While it is zero, an
  /// incoming probe cannot heal a verdict and skips the table search.
  std::size_t death_verdicts_ = 0;
  /// The current round's probes, checked by its single miss timer. Reused
  /// across rounds, so steady-state ticks do not allocate for it.
  std::vector<RoundProbe> round_;
  /// The leaf-set version round_ was built from. While it still holds, no
  /// verdict is held and none was given or healed since (round_stale_),
  /// pruning would keep every entry and every member is in the table, so
  /// tick() sends round_ again without rebuilding it.
  std::uint64_t round_version_ = 0;
  bool round_stale_ = true;
  FailureDetectorStats stats_;
};

}  // namespace kosha::pastry
