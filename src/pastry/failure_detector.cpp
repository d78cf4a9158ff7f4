#include "pastry/failure_detector.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "common/tracing.hpp"
#include "pastry/overlay.hpp"

namespace kosha::pastry {

namespace {

/// Wire sizes for byte accounting: a probe/ack is a tiny datagram, an
/// indirect-probe request carries the suspect's id on top.
constexpr std::size_t kProbeBytes = 32;
constexpr std::size_t kIndirectBytes = 48;

}  // namespace

HeartbeatLeg& HeartbeatLegPool::leg_at(SimDuration arrival, NodeId sender,
                                       net::HostId sender_host, std::uint64_t sender_boot) {
  for (const std::uint32_t index : batch_) {
    if (legs_[index].arrival == arrival) return legs_[index];
  }
  std::uint32_t index = 0;
  if (free_.empty()) {
    index = static_cast<std::uint32_t>(legs_.size());
    legs_.emplace_back();
  } else {
    index = free_.back();
    free_.pop_back();
  }
  batch_.push_back(index);
  HeartbeatLeg& leg = legs_[index];
  leg.sender = sender;
  leg.sender_host = sender_host;
  leg.sender_boot = sender_boot;
  leg.arrival = arrival;
  return leg;
}

void HeartbeatLegPool::release(std::uint32_t index) {
  legs_[index].messages.clear();
  free_.push_back(index);
}

FailureDetector::FailureDetector(FailureDetectorConfig config, PastryOverlay* overlay,
                                 net::SimNetwork* network, EventLoop* loop, NodeId self,
                                 net::HostId host, std::uint64_t boot)
    : config_(config),
      overlay_(overlay),
      network_(network),
      loop_(loop),
      self_(self),
      host_(host),
      boot_(boot) {
  assert(overlay_ != nullptr && network_ != nullptr && loop_ != nullptr);
  if (config_.probe_timeout >= config_.probe_period) {
    throw std::invalid_argument(
        "FailureDetectorConfig: probe_timeout must be < probe_period, so each "
        "round's miss timer fires before the next round starts");
  }
}

void FailureDetector::start() {
  if (running_) return;
  running_ = true;
  // Grace period: a fresh node has not heard from anyone yet; seed the
  // isolation guard with "now" so it cannot quarantine itself at birth.
  last_ack_time_ = loop_->now();
  overlay_->set_detector(self_, this);
  schedule_tick();
}

void FailureDetector::stop() {
  if (!running_) return;
  running_ = false;
  if (overlay_->detector(self_) == this) overlay_->set_detector(self_, nullptr);
}

std::size_t FailureDetector::find_peer(NodeId id) const {
  const auto it = std::lower_bound(peer_ids_.begin(), peer_ids_.end(), id);
  return it != peer_ids_.end() && *it == id ? static_cast<std::size_t>(it - peer_ids_.begin())
                                            : kNoPeer;
}

std::size_t FailureDetector::find_or_add_peer(NodeId id) {
  const auto it = std::lower_bound(peer_ids_.begin(), peer_ids_.end(), id);
  const auto index = static_cast<std::size_t>(it - peer_ids_.begin());
  if (it == peer_ids_.end() || *it != id) {
    peer_ids_.insert(it, id);
    peer_states_.insert(peer_states_.begin() + static_cast<std::ptrdiff_t>(index),
                        PeerState{.host = overlay_->host_of(id)});
  }
  return index;
}

bool FailureDetector::is_suspected(NodeId id) const {
  const std::size_t peer = find_peer(id);
  return peer != kNoPeer && peer_states_[peer].status == Status::kSuspected;
}

bool FailureDetector::has_declared_dead(NodeId id) const {
  const std::size_t peer = find_peer(id);
  return peer != kNoPeer && peer_states_[peer].status == Status::kDead;
}

void FailureDetector::schedule_tick() {
  const SimDuration delay = config_.probe_period + loop_->jitter(config_.probe_jitter);
  PastryOverlay* overlay = overlay_;
  const NodeId self = self_;
  const net::HostId host = host_;
  loop_->schedule_after(delay, "fd.tick", [overlay, host, self] {
    if (FailureDetector* d = overlay->detector_on(host, self)) d->tick();
  });
}

void FailureDetector::trace_event(const char* name, NodeId peer) {
  Tracer* tracer = network_->tracer();
  if (tracer == nullptr || !tracer->enabled()) return;
  SpanScope span(tracer, name, host_);
  span.tag("peer", peer.to_hex().substr(0, 8));
}

void FailureDetector::prune_state(const LeafSet& leaves) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < peer_ids_.size(); ++i) {
    const NodeId id = peer_ids_[i];
    const bool dead = peer_states_[i].status == Status::kDead;
    // A death verdict about a still-live peer outlives leaf membership
    // (report_failure removed it from our leaf set; the verdict is what
    // keeps repair from re-inserting it until the peer proves itself).
    // Everything else is forgotten once the peer leaves the monitored set.
    if (!leaves.contains(id) && !(dead && overlay_->is_live(id))) {
      if (dead) --death_verdicts_;
      continue;
    }
    if (kept != i) {
      peer_ids_[kept] = id;
      peer_states_[kept] = peer_states_[i];
    }
    ++kept;
  }
  peer_ids_.resize(kept);
  peer_states_.resize(kept);
}

void FailureDetector::tick() {
  if (!running_) return;
  const LeafSet& leaves = overlay_->leaf_set(self_);
  if (round_stale_ || death_verdicts_ != 0 || leaves.version() != round_version_) {
    rebuild_round(leaves);
  }
  if (!round_.empty()) {
    // The round's miss timers would all fire at the same instant, so one
    // event checks them all, in probe order. It always runs; an ack
    // recorded before it fires wins. Scheduled ahead of the probes, it
    // dispatches where the round's first per-probe timer would have.
    PastryOverlay* overlay = overlay_;
    const net::HostId host = host_;
    const NodeId self = self_;
    loop_->schedule_after(config_.probe_timeout, "fd.timeout", [overlay, host, self] {
      if (FailureDetector* d = overlay->detector_on(host, self)) d->on_round_timeout();
    });
    send_round();
  }
  schedule_tick();
}

void FailureDetector::rebuild_round(const LeafSet& leaves) {
  prune_state(leaves);
  round_.clear();
  for (const NodeId m : leaves.members()) {
    if (m == self_) continue;
    const std::size_t size_before = peer_ids_.size();
    const std::size_t peer = find_or_add_peer(m);
    if (peer_ids_.size() != size_before) {
      // The insert shifted every later entry, including ones this round
      // already holds.
      for (RoundProbe& p : round_) p.peer += p.peer >= peer;
    }
    if (peer_states_[peer].status == Status::kDead) continue;
    round_.push_back(RoundProbe{peer, 0});
  }
  round_version_ = leaves.version();
  round_stale_ = false;
}

void FailureDetector::on_round_timeout() {
  // probe_timeout < probe_period: the next tick cannot have refilled
  // round_ or changed the peer table yet, so the round's indices hold,
  // and on_probe_timeout never dispatches events.
  for (const RoundProbe& p : round_) on_probe_timeout(p.peer, p.seq);
}

void FailureDetector::send_round() {
  HeartbeatLegPool& legs = overlay_->heartbeat_legs();
  legs.begin_batch();
  const SimDuration now = loop_->now();
  for (RoundProbe& p : round_) {
    PeerState& state = peer_states_[p.peer];
    p.seq = ++state.last_seq;
    ++stats_.probes_sent;
    if (!network_->is_up(state.host)) continue;  // dead host: the wire eats it
    const auto request = network_->plan_message(host_, state.host, kProbeBytes, now);
    if (!request.delivered) continue;
    legs.leg_at(request.arrival, self_, host_, boot_)
        .messages.push_back(
            {.target = peer_ids_[p.peer], .target_host = state.host, .peer = p.peer, .seq = p.seq});
  }
  PastryOverlay* overlay = overlay_;
  net::SimNetwork* network = network_;
  EventLoop* loop = loop_;
  for (const std::uint32_t leg : legs.batch()) {
    loop_->schedule_at(legs[leg].arrival, "fd.probe", [overlay, network, loop, leg] {
      deliver_probes(overlay, network, loop, leg);
    });
  }
}

void FailureDetector::deliver_probes(PastryOverlay* overlay, net::SimNetwork* network,
                                     EventLoop* loop, std::uint32_t leg) {
  HeartbeatLegPool& legs = overlay->heartbeat_legs();
  const HeartbeatLeg& probes = legs[leg];
  [[maybe_unused]] const std::uint64_t scheduled = loop->stats().scheduled;
  legs.begin_batch();
  for (const HeartbeatLeg::Message& m : probes.messages) {
    FailureDetector* peer = overlay->detector_on(m.target_host, m.target);
    // The target may have crashed while the probe was in flight; a
    // stopped node never acks.
    if (peer == nullptr || !peer->on_probe_request(probes.sender, probes.sender_boot)) continue;
    const auto reply =
        network->plan_message(m.target_host, probes.sender_host, kProbeBytes, loop->now());
    if (!reply.delivered) continue;
    legs.leg_at(reply.arrival, probes.sender, probes.sender_host, probes.sender_boot)
        .messages.push_back({.target = m.target,
                             .target_host = m.target_host,
                             .peer = m.peer,
                             .seq = m.seq,
                             .target_boot = peer->boot()});
  }
  // Batching is exact only while a leg's own acks are all it schedules:
  // anything else scheduled here would take an id the per-probe events'
  // interleaving would have ordered differently.
  assert(loop->stats().scheduled == scheduled);
  legs.release(leg);
  for (const std::uint32_t ack : legs.batch()) {
    loop->schedule_at(legs[ack].arrival, "fd.ack",
                      [overlay, loop, ack] { deliver_acks(overlay, loop, ack); });
  }
}

void FailureDetector::deliver_acks(PastryOverlay* overlay, EventLoop* loop, std::uint32_t leg) {
  HeartbeatLegPool& legs = overlay->heartbeat_legs();
  const HeartbeatLeg& acks = legs[leg];
  [[maybe_unused]] const std::uint64_t scheduled = loop->stats().scheduled;
  for (const HeartbeatLeg::Message& m : acks.messages) {
    if (FailureDetector* d = overlay->detector_on(acks.sender_host, acks.sender)) {
      d->on_probe_ack(m.target, m.peer, m.seq, m.target_boot);
    }
  }
  assert(loop->stats().scheduled == scheduled);
  legs.release(leg);
}

bool FailureDetector::on_probe_request(NodeId from, std::uint64_t from_boot) {
  if (!running_) return false;
  maybe_reinstate(from, from_boot);
  return true;
}

void FailureDetector::maybe_reinstate(NodeId peer, std::uint64_t peer_boot) {
  if (death_verdicts_ == 0) return;  // nothing to heal: skip the search
  const std::size_t index = find_peer(peer);
  if (index == kNoPeer) return;
  PeerState* state = &peer_states_[index];
  if (state->status != Status::kDead) return;
  if (!overlay_->is_live(peer)) return;
  // Boot verification (rejoin vs split-brain): only the incarnation we
  // declared dead may be reinstated. A revived node carries a fresh boot
  // (and a fresh id), so it joins as a new peer instead.
  if (state->last_boot != 0 && state->last_boot != peer_boot) return;
  state->status = Status::kAlive;
  state->misses = 0;
  state->failed_rounds = 0;
  ++state->generation;
  --death_verdicts_;
  round_stale_ = true;
  ++stats_.reinstated;
  trace_event("fd.reinstate", peer);
  overlay_->reintroduce(self_, peer);
}

void FailureDetector::on_probe_ack(NodeId target, std::size_t peer, std::uint64_t seq,
                                   std::uint64_t target_boot) {
  if (!running_) return;
  // A rebuild since the probe left may have moved the target.
  if (peer >= peer_ids_.size() || peer_ids_[peer] != target) peer = find_peer(target);
  if (peer == kNoPeer) return;
  PeerState& state = peer_states_[peer];
  state.last_ack_seq = std::max(state.last_ack_seq, seq);
  state.last_boot = target_boot;
  last_ack_time_ = loop_->now();
  ++stats_.acks_received;
  state.misses = 0;
  if (state.status == Status::kSuspected) {
    // Direct refutation: the peer answered while confirmation was running.
    state.status = Status::kAlive;
    state.failed_rounds = 0;
    ++state.generation;
    ++stats_.refutations;
    trace_event("fd.refute", target);
  } else if (state.status == Status::kDead) {
    maybe_reinstate(target, target_boot);
  }
}

void FailureDetector::on_probe_timeout(std::size_t peer, std::uint64_t seq) {
  if (!running_) return;
  PeerState& state = peer_states_[peer];
  if (state.last_ack_seq >= seq) return;  // answered in time
  const NodeId target = peer_ids_[peer];
  ++state.misses;
  ++stats_.probe_misses;
  network_->note_timeout();
  if (state.status == Status::kAlive && state.misses >= config_.suspicion_threshold) {
    state.status = Status::kSuspected;
    state.failed_rounds = 0;
    ++state.generation;
    ++stats_.suspicions;
    trace_event("fd.suspect", target);
    start_confirmation_round(target, state.generation);
  }
}

void FailureDetector::start_confirmation_round(NodeId target, std::uint64_t generation) {
  if (!running_) return;
  const std::size_t peer = find_peer(target);
  if (peer == kNoPeer || peer_states_[peer].status != Status::kSuspected ||
      peer_states_[peer].generation != generation) {
    return;
  }
  ++stats_.indirect_rounds;
  const SimDuration now = loop_->now();
  const net::HostId target_host = overlay_->host_of(target);
  // The relayed probe answers for the suspect's id, not its host: a node
  // crashed and revived on that host runs a fresh id, and the old one must
  // stay unreachable (the rule deliver_probes applies to direct probes).
  const bool target_up = network_->is_up(target_host) &&
                         overlay_->detector_on(target_host, target) != nullptr;

  // Ask up to indirect_probes helper neighbors (leaf members this node
  // still believes alive) to probe the suspect on our behalf. Each chain
  // is four one-way legs: ask, relayed probe, ack, report. Any chain that
  // survives the wire refutes the suspicion.
  PastryOverlay* overlay = overlay_;
  const NodeId self = self_;
  bool any_success = false;
  SimDuration first_report{};
  unsigned used = 0;
  for (const NodeId helper : overlay_->leaf_set(self_).members()) {
    if (used >= config_.indirect_probes) break;
    if (helper == target || helper == self_) continue;
    const std::size_t hs = find_peer(helper);
    if (hs != kNoPeer && peer_states_[hs].status != Status::kAlive) continue;
    ++used;
    const net::HostId helper_host = overlay_->host_of(helper);
    if (!network_->is_up(helper_host)) continue;
    const auto ask = network_->plan_message(host_, helper_host, kIndirectBytes, now);
    if (!ask.delivered) continue;
    if (!target_up) continue;  // the relayed probe can never be answered
    const auto relayed = network_->plan_message(helper_host, target_host, kProbeBytes,
                                               ask.arrival);
    if (!relayed.delivered) continue;
    const auto ack = network_->plan_message(target_host, helper_host, kProbeBytes,
                                            relayed.arrival);
    if (!ack.delivered) continue;
    const auto report = network_->plan_message(helper_host, host_, kIndirectBytes, ack.arrival);
    if (!report.delivered) continue;
    if (!any_success || report.arrival < first_report) first_report = report.arrival;
    any_success = true;
  }

  if (any_success) {
    loop_->schedule_at(first_report, "fd.confirm", [overlay, self, target, generation] {
      if (FailureDetector* d = overlay->detector(self)) {
        d->on_confirmation(target, generation, true);
      }
    });
  } else {
    loop_->schedule_after(config_.probe_timeout, "fd.confirm",
                          [overlay, self, target, generation] {
                            if (FailureDetector* d = overlay->detector(self)) {
                              d->on_confirmation(target, generation, false);
                            }
                          });
  }
}

void FailureDetector::on_confirmation(NodeId target, std::uint64_t generation, bool reached) {
  if (!running_) return;
  const std::size_t peer = find_peer(target);
  if (peer == kNoPeer || peer_states_[peer].status != Status::kSuspected ||
      peer_states_[peer].generation != generation) {
    return;  // refuted or resolved while the round was in flight
  }
  PeerState& state = peer_states_[peer];
  if (reached) {
    state.status = Status::kAlive;
    state.misses = 0;
    state.failed_rounds = 0;
    ++state.generation;
    ++stats_.refutations;
    trace_event("fd.refute", target);
    return;
  }
  ++state.failed_rounds;
  if (state.failed_rounds < config_.confirm_rounds) {
    start_confirmation_round(target, generation);
    return;
  }
  // All rounds failed. Two isolation signals withhold the verdict instead
  // of declaring the world dead:
  //   * stale-ack: nobody at all acked us within isolation_window;
  //   * majority-down: most of the peers we monitor look down at once AND
  //     no ack arrived for a full probe cycle. A single crash takes out
  //     one leaf-set slot; "everyone died together, silence on the wire"
  //     almost always means *we* are the partitioned one. The ack-recency
  //     gate keeps a genuine mass failure declarable: there the surviving
  //     minority keeps acking every probe period.
  std::size_t distrusted = 0;
  for (const PeerState& peer_state : peer_states_) {
    distrusted += peer_state.status != Status::kAlive;
  }
  const SimDuration since_ack = loop_->now() - last_ack_time_;
  const bool majority_down = peer_states_.size() >= 4 && 2 * distrusted > peer_states_.size() &&
                             since_ack > config_.probe_period + config_.probe_timeout * 2;
  if (majority_down || since_ack > config_.isolation_window) {
    ++stats_.quarantined_verdicts;
    state.failed_rounds = 0;
    trace_event("fd.quarantine", target);
    PastryOverlay* overlay = overlay_;
    const NodeId self = self_;
    loop_->schedule_after(config_.probe_period, "fd.quarantine",
                          [overlay, self, target, generation] {
                            if (FailureDetector* d = overlay->detector(self)) {
                              d->on_quarantine_retry(target, generation);
                            }
                          });
    return;
  }
  declare_dead(target, state);
}

void FailureDetector::on_quarantine_retry(NodeId target, std::uint64_t generation) {
  start_confirmation_round(target, generation);
}

void FailureDetector::declare_dead(NodeId target, PeerState& state) {
  state.status = Status::kDead;
  ++state.generation;
  ++death_verdicts_;
  round_stale_ = true;
  ++stats_.declared_dead;
  trace_event("fd.declare", target);
  overlay_->report_failure(self_, target);
}

}  // namespace kosha::pastry
