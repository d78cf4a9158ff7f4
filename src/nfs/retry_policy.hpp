#pragma once

// Client-side RPC retry policy and overload-control primitives.
//
// Transient message loss (fault-plan drops, brownouts, partitions) is
// retried with exponential backoff charged on the virtual clock; a host
// that is *permanently* down (SimNetwork liveness flag) or absent from the
// server directory fails in one timeout without retries, so the binary
// up/down experiments keep their seed cost model. Retransmissions reuse
// the original xid — the server's duplicate-request cache relies on that
// to make retried non-idempotent ops safe (NFSv3 practice).
//
// Retransmission without restraint is how flash crowds turn into
// metastable congestive collapse: every abandoned-but-queued request still
// burns server service time ("dead work"), so once queueing delay exceeds
// the client's patience, retries multiply offered load past capacity and
// the system stays collapsed after the trigger is gone. The primitives
// below (token-bucket RetryBudget, per-server CircuitBreaker, and the
// OverloadControlConfig knobs that bound server admission) exist to make
// that amplification impossible; see DESIGN's overload-control section and
// bench/overload_bench for the A/B demonstration.

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"

namespace kosha::nfs {

struct RetryPolicy {
  /// Total attempts per RPC (first try included). 1 = never retry.
  unsigned max_attempts = 4;
  /// Backoff before the first retransmission; doubles per attempt.
  SimDuration initial_backoff = SimDuration::millis(10);
  double multiplier = 2.0;
  /// Backoff ceiling.
  SimDuration max_backoff = SimDuration::millis(320);
  /// Uniform jitter added per backoff, as a fraction of the backoff
  /// (decorrelates clients that lost the same message).
  double jitter = 0.25;
  /// How long the event-driven client waits for a *delivered* request's
  /// reply before abandoning the attempt and retransmitting. 0 (default)
  /// keeps the legacy model: a delivered request is awaited forever, only
  /// outright message loss costs the network rpc_timeout. Setting this is
  /// what makes retry storms possible at all — an overloaded server whose
  /// queueing delay exceeds the timeout sees every request twice — so it
  /// is the knob the overload-control experiments turn.
  SimDuration response_timeout{};

  /// Backoff before retry `attempt` (0-based): the clamped exponential
  /// min(initial_backoff * multiplier^attempt, max_backoff), computed
  /// directly instead of re-deriving the whole doubling chain per call.
  /// The multiplier-2 fast path is exact integer doubling (bit shifts with
  /// an overflow guard), matching the historical per-step loop bit for
  /// bit; other multipliers evaluate one pow() with the same clamp.
  [[nodiscard]] SimDuration backoff_for(unsigned attempt) const {
    const std::int64_t cap = max_backoff.ns;
    std::int64_t d = initial_backoff.ns;
    if (d >= cap) return max_backoff;
    if (multiplier == 2.0) {
      // d << attempt, saturating at the ceiling: d exceeds it iff
      // d > floor(cap / 2^shift), which also rules out the overflow.
      const unsigned shift = std::min(attempt, 62u);
      if (d > (cap >> shift)) return max_backoff;
      return SimDuration::nanos(d << shift);
    }
    const double scaled =
        static_cast<double>(d) * std::pow(multiplier, static_cast<double>(attempt));
    if (!(scaled < static_cast<double>(cap))) return max_backoff;
    return SimDuration::nanos(static_cast<std::int64_t>(scaled));
  }

  /// backoff_for plus one uniform jitter draw from `rng` (the caller's
  /// seeded stream, so same seed => same backoff sequence). Consumes
  /// exactly one draw when jitter > 0, none otherwise.
  [[nodiscard]] SimDuration jittered_backoff(unsigned attempt, Rng& rng) const {
    SimDuration wait = backoff_for(attempt);
    if (jitter > 0.0) {
      wait += SimDuration::nanos(static_cast<std::int64_t>(
          static_cast<double>(wait.ns) * jitter * rng.next_double()));
    }
    return wait;
  }
};

/// Overload-control knobs, shared by client, network admission, servers,
/// koshad, and the repair daemon (KoshaConfig::overload). Everything is
/// inert while `enabled` is false: no counter moves, no Rng draw happens,
/// no deadline is stamped — runs with the struct present but disabled are
/// numerically identical to runs predating it.
struct OverloadControlConfig {
  bool enabled = false;

  /// Per-host bound on simultaneously admitted (arrived, not yet departed)
  /// RPCs. Arrivals beyond it are bounced with kOverloaded instead of
  /// queuing — a rejection costs one cheap reply message, not service time.
  unsigned max_inflight = 32;

  /// Token-bucket retry budget per client: a retransmission spends one
  /// token, every *issued* operation earns `retry_budget_refill`. With a
  /// refill rate r, retries can never exceed fraction r of offered load —
  /// the amplification bound that prevents metastable collapse.
  double retry_budget_cap = 16.0;
  double retry_budget_refill = 0.2;

  /// Per-server circuit breaker: this many consecutive failed attempts
  /// (abandonments or kOverloaded rejections) open the breaker, which then
  /// fails calls to that server fast — no messages, no queueing — for
  /// `breaker_cooldown` of virtual time before letting one probe through.
  unsigned breaker_threshold = 8;
  SimDuration breaker_cooldown = SimDuration::millis(50);

  /// Operation budget stamped by koshad at handler entry: the absolute
  /// deadline propagated through RpcContext so servers drop (and the
  /// failover ladder abandons) work the client has already given up on.
  /// 0 = no deadline propagation.
  SimDuration op_budget{};

  /// The repair daemon performs no pushes in a tick whose host has at
  /// least this many RPCs in flight (0 = never yield): repair tightens
  /// its own rate limit exactly when the foreground needs the capacity.
  unsigned repair_yield_inflight = 4;
};

/// Token bucket bounding retransmissions (client-side). Deterministic and
/// allocation-free; fractional tokens let refill rates below one retry per
/// op express "at most r% retry amplification".
class RetryBudget {
 public:
  RetryBudget(double cap, double refill)
      : cap_(cap), refill_(refill), tokens_(cap) {}

  /// Credit for one issued operation.
  void earn() { tokens_ = std::min(cap_, tokens_ + refill_); }

  /// Try to pay for one retransmission. False = budget exhausted: the
  /// caller must fail fast instead of adding load.
  bool spend() {
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
      return true;
    }
    ++exhausted_;
    return false;
  }

  [[nodiscard]] double tokens() const { return tokens_; }
  /// Retransmissions suppressed because the bucket was empty.
  [[nodiscard]] std::uint64_t exhausted() const { return exhausted_; }

 private:
  double cap_;
  double refill_;
  double tokens_;
  std::uint64_t exhausted_ = 0;
};

/// Per-server circuit breaker (client-side). Closed passes calls through;
/// `threshold` consecutive failures open it; an open breaker fails calls
/// fast until `cooldown` has elapsed, then admits a single half-open probe
/// whose outcome closes or re-opens it. All times are virtual.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  CircuitBreaker(unsigned threshold, SimDuration cooldown)
      : threshold_(threshold), cooldown_(cooldown) {}

  /// May a call be attempted at `now`? An open breaker past its cooldown
  /// transitions to half-open and admits this one call as the probe.
  [[nodiscard]] bool allow(SimDuration now) {
    switch (state_) {
      case State::kClosed:
        return true;
      case State::kHalfOpen:
        return false;  // one probe at a time
      case State::kOpen:
        if (now >= opened_at_ + cooldown_) {
          state_ = State::kHalfOpen;
          return true;
        }
        ++fast_fails_;
        return false;
    }
    return true;
  }

  void on_success() {
    state_ = State::kClosed;
    consecutive_failures_ = 0;
  }

  void on_failure(SimDuration now) {
    if (state_ == State::kHalfOpen) {
      // Failed probe: straight back to open for another cooldown.
      state_ = State::kOpen;
      opened_at_ = now;
      ++opens_;
      return;
    }
    ++consecutive_failures_;
    if (state_ == State::kClosed && threshold_ > 0 && consecutive_failures_ >= threshold_) {
      state_ = State::kOpen;
      opened_at_ = now;
      ++opens_;
    }
  }

  [[nodiscard]] State state() const { return state_; }
  /// closed->open and probe-failure re-open transitions.
  [[nodiscard]] std::uint64_t opens() const { return opens_; }
  /// Calls refused while open (within the cooldown window).
  [[nodiscard]] std::uint64_t fast_fails() const { return fast_fails_; }

 private:
  unsigned threshold_;
  SimDuration cooldown_;
  State state_ = State::kClosed;
  unsigned consecutive_failures_ = 0;
  SimDuration opened_at_{};
  std::uint64_t opens_ = 0;
  std::uint64_t fast_fails_ = 0;
};

/// One client's overload-control counters (NfsClient aggregates its budget
/// and breakers into this snapshot for the cluster's overload.* gauges).
struct OverloadClientStats {
  std::uint64_t budget_exhausted = 0;   // retransmissions suppressed: no tokens
  std::uint64_t breaker_opens = 0;      // breaker transitions to open
  std::uint64_t breaker_fast_fails = 0; // calls refused by an open breaker
  std::uint64_t overloaded_replies = 0; // kOverloaded outcomes observed
  std::uint64_t breakers_open = 0;      // breakers currently not closed
  double budget_tokens = 0.0;           // current token level

  friend bool operator==(const OverloadClientStats&, const OverloadClientStats&) = default;
};

}  // namespace kosha::nfs
