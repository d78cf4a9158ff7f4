#pragma once

// Virtual time.
//
// The performance experiments (Tables 1-2) charge calibrated service times —
// disk, CPU, per-hop network latency — against a simulated clock so results
// are deterministic and host-independent. Durations are kept in integer
// nanoseconds to avoid floating-point drift across accumulation orders.

#include <compare>
#include <cstdint>

namespace kosha {

/// Duration in integer nanoseconds of virtual time.
struct SimDuration {
  std::int64_t ns = 0;

  [[nodiscard]] static constexpr SimDuration nanos(std::int64_t v) { return {v}; }
  [[nodiscard]] static constexpr SimDuration micros(double v) {
    return {static_cast<std::int64_t>(v * 1e3)};
  }
  [[nodiscard]] static constexpr SimDuration millis(double v) {
    return {static_cast<std::int64_t>(v * 1e6)};
  }
  [[nodiscard]] static constexpr SimDuration seconds(double v) {
    return {static_cast<std::int64_t>(v * 1e9)};
  }

  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(ns) * 1e-9; }
  [[nodiscard]] constexpr double to_millis() const { return static_cast<double>(ns) * 1e-6; }
  [[nodiscard]] constexpr double to_micros() const { return static_cast<double>(ns) * 1e-3; }

  friend constexpr SimDuration operator+(SimDuration a, SimDuration b) { return {a.ns + b.ns}; }
  friend constexpr SimDuration operator-(SimDuration a, SimDuration b) { return {a.ns - b.ns}; }
  friend constexpr SimDuration operator*(SimDuration a, std::int64_t k) { return {a.ns * k}; }
  constexpr SimDuration& operator+=(SimDuration other) {
    ns += other.ns;
    return *this;
  }
  friend constexpr auto operator<=>(const SimDuration&, const SimDuration&) = default;
};

/// Monotonic virtual clock advanced explicitly by the simulation.
///
/// Only foreground work moves it: the event loop dispatching an event, a
/// service charging its cost, and koshad waiting out the cost of a Pastry
/// route (PastryOverlay::route returns the cost; only Koshad::route waits
/// on it). Background work (membership, leaf-set repair, replica copies,
/// the repair daemon) never calls advance: it only counts its traffic with
/// SimNetwork::count_message.
class SimClock {
 public:
  [[nodiscard]] SimDuration now() const { return now_; }

  void advance(SimDuration d) { now_ += d; }

  /// Jump forward to absolute time `t`; no-op when `t <= now`. Used by the
  /// event loop to dispatch an event scheduled at `t`, and by the
  /// contention driver to end its run at its last client's finish.
  void advance_to(SimDuration t) {
    if (t > now_) now_ = t;
  }

  /// Set the clock to exactly `t`, possibly rewinding.
  /// Reserved for code that evaluates alternative timelines branching from
  /// one instant. Its users: sim::run_closed_loop hops between per-client
  /// timelines, and koshad's degraded read starts every replica probe from
  /// the same instant and keeps the earliest success. Components otherwise
  /// only ever move time forward.
  void set_now(SimDuration t) { now_ = t; }

  void reset() { now_ = {}; }

 private:
  SimDuration now_{};
};

/// Scoped stopwatch over a SimClock.
class SimStopwatch {
 public:
  explicit SimStopwatch(const SimClock& clock) : clock_(clock), start_(clock.now()) {}

  [[nodiscard]] SimDuration elapsed() const { return clock_.now() - start_; }

 private:
  const SimClock& clock_;
  SimDuration start_;
};

}  // namespace kosha
