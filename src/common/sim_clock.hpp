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
/// The clock can be paused: advances become no-ops. This models work that
/// happens off the client's critical path (asynchronous replica mirroring,
/// background migration) — the traffic is still counted by the network
/// statistics, but it does not delay the foreground operation.
class SimClock {
 public:
  [[nodiscard]] SimDuration now() const { return now_; }

  void advance(SimDuration d) {
    if (pause_depth_ == 0) now_ += d;
  }

  /// Jump forward to absolute time `t`; no-op when paused or `t <= now`.
  /// Used by the event loop when dispatching an event scheduled at `t`.
  void advance_to(SimDuration t) {
    if (pause_depth_ == 0 && t > now_) now_ = t;
  }

  /// Set the clock to exactly `t`, possibly rewinding (no-op when paused).
  /// Reserved for code that evaluates alternative timelines branching from
  /// one instant. Its users: the multi-client workload driver and
  /// overload_sim hop between per-client timelines, and koshad's degraded
  /// read starts every replica probe from the same instant and keeps the
  /// earliest success. Components otherwise only ever move time forward.
  void set_now(SimDuration t) {
    if (pause_depth_ == 0) now_ = t;
  }

  void reset() { now_ = {}; }

  [[nodiscard]] bool paused() const { return pause_depth_ > 0; }

 private:
  friend class ClockPauser;
  SimDuration now_{};
  int pause_depth_ = 0;
};

/// RAII pause of a SimClock (nestable).
class ClockPauser {
 public:
  explicit ClockPauser(SimClock& clock) : clock_(clock) { ++clock_.pause_depth_; }
  ~ClockPauser() { --clock_.pause_depth_; }
  ClockPauser(const ClockPauser&) = delete;
  ClockPauser& operator=(const ClockPauser&) = delete;

 private:
  SimClock& clock_;
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
