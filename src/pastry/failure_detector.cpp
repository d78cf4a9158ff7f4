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

/// Orders peer-table entries by id (lower_bound against a bare id).
constexpr auto id_less = [](const auto& entry, NodeId id) { return entry.first < id; };

}  // namespace

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

FailureDetector::PeerState* FailureDetector::find_peer(NodeId id) {
  const auto it = std::lower_bound(peers_.begin(), peers_.end(), id, id_less);
  return it != peers_.end() && it->first == id ? &it->second : nullptr;
}

const FailureDetector::PeerState* FailureDetector::find_peer(NodeId id) const {
  const auto it = std::lower_bound(peers_.begin(), peers_.end(), id, id_less);
  return it != peers_.end() && it->first == id ? &it->second : nullptr;
}

bool FailureDetector::is_suspected(NodeId id) const {
  const PeerState* state = find_peer(id);
  return state != nullptr && state->status == Status::kSuspected;
}

bool FailureDetector::has_declared_dead(NodeId id) const {
  const PeerState* state = find_peer(id);
  return state != nullptr && state->status == Status::kDead;
}

void FailureDetector::schedule_tick() {
  const SimDuration delay = config_.probe_period + loop_->jitter(config_.probe_jitter);
  PastryOverlay* overlay = overlay_;
  const NodeId self = self_;
  loop_->schedule_after(delay, "fd.tick", [overlay, self] {
    if (FailureDetector* d = overlay->detector(self)) d->tick();
  });
}

void FailureDetector::trace_event(const char* name, NodeId peer) {
  Tracer* tracer = network_->tracer();
  if (tracer == nullptr || !tracer->enabled()) return;
  SpanScope span(tracer, name, host_);
  span.tag("peer", peer.to_hex().substr(0, 8));
}

void FailureDetector::prune_state() {
  const LeafSet& leaves = overlay_->leaf_set(self_);
  std::erase_if(peers_, [&](const auto& entry) {
    const auto& [id, state] = entry;
    // A death verdict about a still-live peer outlives leaf membership
    // (report_failure removed it from our leaf set; the verdict is what
    // keeps repair from re-inserting it until the peer proves itself).
    // Everything else is forgotten once the peer leaves the monitored set.
    const bool keep_verdict = state.status == Status::kDead && overlay_->is_live(id);
    return !leaves.contains(id) && !keep_verdict;
  });
}

void FailureDetector::tick() {
  if (!running_) return;
  prune_state();
  round_.clear();
  for (const NodeId m : overlay_->leaf_set(self_).members()) {
    if (m == self_) continue;
    if (has_declared_dead(m)) continue;
    round_.push_back(RoundProbe{m, 0});
  }
  if (!round_.empty()) {
    // The round's miss timers would all fire at the same instant, so one
    // event checks them all, in probe order. It always runs; an ack
    // recorded before it fires wins. Scheduled ahead of the probes, it
    // dispatches where the round's first per-probe timer would have.
    PastryOverlay* overlay = overlay_;
    const NodeId self = self_;
    loop_->schedule_after(config_.probe_timeout, "fd.timeout", [overlay, self] {
      if (FailureDetector* d = overlay->detector(self)) d->on_round_timeout();
    });
    for (RoundProbe& p : round_) p.seq = probe(p.target);
  }
  schedule_tick();
}

void FailureDetector::on_round_timeout() {
  // probe_timeout < probe_period: the next tick cannot have refilled
  // round_ yet, and on_probe_timeout never dispatches events.
  for (const RoundProbe& p : round_) on_probe_timeout(p.target, p.seq);
}

std::uint64_t FailureDetector::probe(NodeId target) {
  auto it = std::lower_bound(peers_.begin(), peers_.end(), target, id_less);
  if (it == peers_.end() || it->first != target) it = peers_.insert(it, {target, PeerState{}});
  const std::uint64_t seq = ++it->second.last_seq;
  ++stats_.probes_sent;
  PastryOverlay* overlay = overlay_;
  net::SimNetwork* network = network_;
  EventLoop* loop = loop_;
  const NodeId self = self_;
  const std::uint64_t self_boot = boot_;

  const net::HostId target_host = overlay_->host_of(target);
  if (!network_->is_up(target_host)) return seq;  // dead host: the wire eats it
  const auto request = network_->plan_message(host_, target_host, kProbeBytes, loop_->now());
  if (!request.delivered) return seq;

  const net::HostId self_host = host_;
  loop_->schedule_at(request.arrival, "fd.probe",
                     [overlay, network, loop, self, self_boot, self_host, target, seq] {
                       FailureDetector* peer = overlay->detector(target);
                       // The target may have crashed while the probe was in
                       // flight; a stopped node never acks.
                       if (peer == nullptr || !peer->on_probe_request(self, self_boot)) return;
                       const auto reply = network->plan_message(peer->host(), self_host,
                                                               kProbeBytes, loop->now());
                       if (!reply.delivered) return;
                       const std::uint64_t peer_boot = peer->boot();
                       loop->schedule_at(reply.arrival, "fd.ack",
                                         [overlay, self, target, seq, peer_boot] {
                                           if (FailureDetector* d = overlay->detector(self)) {
                                             d->on_probe_ack(target, seq, peer_boot);
                                           }
                                         });
                     });
  return seq;
}

bool FailureDetector::on_probe_request(NodeId from, std::uint64_t from_boot) {
  if (!running_) return false;
  maybe_reinstate(from, from_boot);
  return true;
}

void FailureDetector::maybe_reinstate(NodeId peer, std::uint64_t peer_boot) {
  PeerState* state = find_peer(peer);
  if (state == nullptr || state->status != Status::kDead) return;
  if (!overlay_->is_live(peer)) return;
  // Boot verification (rejoin vs split-brain): only the incarnation we
  // declared dead may be reinstated. A revived node carries a fresh boot
  // (and a fresh id), so it joins as a new peer instead.
  if (state->last_boot != 0 && state->last_boot != peer_boot) return;
  state->status = Status::kAlive;
  state->misses = 0;
  state->failed_rounds = 0;
  ++state->generation;
  ++stats_.reinstated;
  trace_event("fd.reinstate", peer);
  // Reintroduction repairs the leaf set off the critical path: the traffic
  // is counted but does not stall whatever foreground op is in flight.
  ClockPauser pause(loop_->clock());
  overlay_->reintroduce(self_, peer);
}

void FailureDetector::on_probe_ack(NodeId target, std::uint64_t seq, std::uint64_t target_boot) {
  if (!running_) return;
  PeerState* found = find_peer(target);
  if (found == nullptr) return;
  PeerState& state = *found;
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

void FailureDetector::on_probe_timeout(NodeId target, std::uint64_t seq) {
  if (!running_) return;
  PeerState* found = find_peer(target);
  if (found == nullptr) return;
  PeerState& state = *found;
  if (state.last_ack_seq >= seq) return;  // answered in time
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
  const PeerState* state = find_peer(target);
  if (state == nullptr || state->status != Status::kSuspected ||
      state->generation != generation) {
    return;
  }
  ++stats_.indirect_rounds;
  const SimDuration now = loop_->now();
  const net::HostId target_host = overlay_->host_of(target);
  const bool target_up = network_->is_up(target_host);

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
    const PeerState* hs = find_peer(helper);
    if (hs != nullptr && hs->status != Status::kAlive) continue;
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
  PeerState* found = find_peer(target);
  if (found == nullptr || found->status != Status::kSuspected ||
      found->generation != generation) {
    return;  // refuted or resolved while the round was in flight
  }
  PeerState& state = *found;
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
  for (const auto& [peer, peer_state] : peers_) {
    (void)peer;
    distrusted += peer_state.status != Status::kAlive;
  }
  const SimDuration since_ack = loop_->now() - last_ack_time_;
  const bool majority_down = peers_.size() >= 4 && 2 * distrusted > peers_.size() &&
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
  ++stats_.declared_dead;
  trace_event("fd.declare", target);
  // Repair traffic is anti-entropy background work: counted, not charged
  // against whatever foreground operation happens to be in flight.
  ClockPauser pause(loop_->clock());
  overlay_->report_failure(self_, target);
}

}  // namespace kosha::pastry
