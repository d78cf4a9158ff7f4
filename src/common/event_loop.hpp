#pragma once

// Deterministic discrete-event scheduler over virtual time.
//
// The execution core of the event-driven simulation model (DESIGN §6):
// callbacks are scheduled at absolute virtual times and dispatched in
// (time, sequence) order, advancing the shared SimClock to each event's
// timestamp. Determinism rules:
//   * no wall-clock input anywhere — time exists only as SimDuration;
//   * ties at the same timestamp dispatch in scheduling order (a monotonic
//     sequence number assigned at schedule time), so the dispatch order is
//     a pure function of the schedule calls;
//   * randomness (e.g. jittered timers) comes exclusively from the loop's
//     seeded Rng stream, so same-seed runs replay byte-identically.
//
// Storage: the binary heap holds 24-byte keys {when, id, slot}; each
// event's callback lives in a slot of a pool (a vector plus a free list)
// and never moves while the heap sifts. Callbacks are EventFn, a move-only
// callable with a fixed inline buffer, so scheduling an event allocates
// nothing once the pool has grown to the peak number of pending events.
//
// Cancellation is lazy: cancel() flags the event's slot and the loop drops
// flagged keys when they reach the head of the heap, keeping schedule and
// dispatch O(log n) without heap surgery. cancel() itself scans the heap
// keys for the id; only RPC abandonment timers use it.

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"

namespace kosha {

class SimProfiler;

/// Move-only `void()` callable stored entirely inline: no heap fallback.
/// A closure whose captures exceed kCapacity bytes fails to compile, so
/// holding a scheduled callback never allocates.
class EventFn {
 public:
  static constexpr std::size_t kCapacity = 112;

  EventFn() = default;

  template <typename F>
    requires(!std::same_as<std::remove_cvref_t<F>, EventFn> &&
             std::invocable<std::remove_cvref_t<F>&>)
  EventFn(F&& f)  // NOLINT(google-explicit-constructor,bugprone-forwarding-reference-overload)
      : ops_(&kOps<std::remove_cvref_t<F>>) {
    using D = std::remove_cvref_t<F>;
    static_assert(sizeof(D) <= kCapacity, "event callback captures exceed EventFn::kCapacity");
    static_assert(alignof(D) <= alignof(std::max_align_t), "over-aligned event callback");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "event callbacks must be nothrow-movable");
    std::construct_at(reinterpret_cast<D*>(buf_), std::forward<F>(f));
  }

  EventFn(EventFn&& other) noexcept { take(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-construct into `to` and destroy the source; nullptr when a
    /// byte copy does both (trivially copyable callables).
    void (*relocate)(void* from, void* to) noexcept;
    /// nullptr when destruction is a no-op.
    void (*destroy)(void* self) noexcept;
  };
  template <typename D>
  static constexpr Ops kOps = {
      [](void* self) { (*static_cast<D*>(self))(); },
      std::is_trivially_copyable_v<D>
          ? nullptr
          : +[](void* from, void* to) noexcept {
              D* src = static_cast<D*>(from);
              std::construct_at(static_cast<D*>(to), std::move(*src));
              std::destroy_at(src);
            },
      std::is_trivially_destructible_v<D>
          ? nullptr
          : +[](void* self) noexcept { std::destroy_at(static_cast<D*>(self)); },
  };

  void take(EventFn& other) noexcept {
    ops_ = std::exchange(other.ops_, nullptr);
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(other.buf_, buf_);
    } else {
      std::memcpy(buf_, other.buf_, kCapacity);
    }
  }
  void reset() noexcept {
    const Ops* ops = std::exchange(ops_, nullptr);
    if (ops != nullptr && ops->destroy != nullptr) ops->destroy(buf_);
  }

  alignas(std::max_align_t) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

class EventLoop {
 public:
  using EventId = std::uint64_t;
  /// Never returned by schedule_*; safe "no event" sentinel for callers
  /// that keep a pending-timer handle.
  static constexpr EventId kInvalidEvent = 0;

  explicit EventLoop(SimClock* clock, std::uint64_t seed = 0);

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Schedule `fn` at absolute virtual time `when`. Times in the past are
  /// clamped to now: the event runs next, it cannot rewind the clock.
  /// `category` labels the event for the profiler's per-category cost
  /// accounting; it must point at storage outliving the event (string
  /// literals). Untagged call sites fall into "event".
  EventId schedule_at(SimDuration when, EventFn fn);
  EventId schedule_at(SimDuration when, const char* category, EventFn fn);
  /// Schedule `fn` at now + `delay` (timers, retry backoff).
  EventId schedule_after(SimDuration delay, EventFn fn);
  EventId schedule_after(SimDuration delay, const char* category, EventFn fn);

  /// Cancel a pending event. Returns false when the event already ran,
  /// was cancelled before, or never existed (a stale id whose slot now
  /// holds a newer event cancels nothing).
  bool cancel(EventId id);

  /// Dispatch the earliest pending event, advancing the clock to its
  /// timestamp. Returns false when the queue is empty.
  bool step();

  /// Dispatch until the queue drains. Returns the number of events run.
  std::size_t run_until_idle();

  /// Dispatch until `done()` holds (checked before every event) or the
  /// queue drains. Returns the number of events run. This is how the
  /// synchronous RPC wrappers block on their own completion.
  std::size_t run_until(const std::function<bool()>& done);

  /// Dispatch every event with timestamp <= `when`, then advance the
  /// clock to `when` even if the queue still holds later events. The
  /// churn simulator uses this to sample cluster state on a fixed grid
  /// while timers keep firing between samples. Returns events run.
  std::size_t run_until_time(SimDuration when);

  [[nodiscard]] SimDuration now() const { return clock_->now(); }
  [[nodiscard]] SimClock& clock() { return *clock_; }
  /// Pending (scheduled, not yet run or cancelled) events.
  [[nodiscard]] std::size_t pending() const { return heap_.size() - cancelled_pending_; }

  /// The loop's deterministic randomness stream; the only sanctioned
  /// source of scheduling jitter.
  [[nodiscard]] Rng& rng() { return rng_; }
  /// A uniform draw in [0, max] from the loop's stream, for jittered
  /// timers. Deterministic under the loop's seed.
  [[nodiscard]] SimDuration jitter(SimDuration max);

  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Attach the simulator profiler (nullptr = off, the default). When set,
  /// step() brackets each callback with wall-clock reads through the
  /// profiler's sanctioned seam and records per-category self time. The
  /// profiler is a pure observer: dispatch order, clock movement and the
  /// Rng stream are identical with it on or off.
  void set_profiler(SimProfiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] SimProfiler* profiler() const { return profiler_; }

 private:
  /// Heap key. Min-heap order: earliest time first, then lowest
  /// (earliest-assigned) id — the monotonic tie-break that keeps
  /// same-time dispatch FIFO.
  struct Key {
    SimDuration when;
    EventId id = kInvalidEvent;
    std::uint32_t slot = 0;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when.ns != b.when.ns) return a.when.ns > b.when.ns;
      return a.id > b.id;
    }
  };
  struct Slot {
    EventFn fn;
    const char* category = "event";
    bool cancelled = false;
  };

  /// Shared body of the schedule_* overloads: `fn` moves into a slot.
  EventId push(SimDuration when, const char* category, EventFn& fn);
  /// Pop the heap's head key and return its slot to the free list; the
  /// caller must have taken whatever it needs from the slot first.
  Key pop_head();
  /// Drop cancelled keys at the heap's head, so the head (if any) is the
  /// earliest live event.
  void drop_cancelled_heads();

  SimClock* clock_;
  Rng rng_;
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Cancelled keys still sitting in the heap.
  std::size_t cancelled_pending_ = 0;
  EventId next_id_ = 1;
  Stats stats_;
  SimProfiler* profiler_ = nullptr;
  /// Wall time consumed by nested dispatches inside the currently-running
  /// callback (profiling only); lets step() report self time, not
  /// inclusive time, when callbacks drive the loop re-entrantly.
  std::uint64_t nested_wall_ns_ = 0;
};

}  // namespace kosha
