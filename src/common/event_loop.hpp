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
// Storage: every pending event has a 24-byte key {when, id, slot}; its
// callback lives in a slot of a pool (a vector plus a free list) and never
// moves while keys do. Callbacks are EventFn, a move-only callable with a
// fixed inline buffer, so scheduling an event allocates nothing once the
// pool and the queues have grown to the peak number of pending events.
//
// Keys sit either in a binary heap or in one of kLanes FIFO lanes beside
// it. A lane is keyed by one exact delay (when - now at push time): a
// recurring fixed delay, such as a heartbeat's one-way wire time or a
// round timeout, claims an empty lane the second time it is seen, and a
// push with that delay is appended to the lane when its key is not earlier
// than the lane's tail; any other push goes to the heap. Because ids grow
// monotonically, this tail rule is all it takes to keep every lane sorted
// by (when, id), whatever the clock does: after a set_now rewind, now +
// delay may fall before the tail, and that push simply goes to the heap.
// Dispatch takes the earliest of the heap's head and the lanes' heads, so
// the order is exactly the (when, id) order of one heap,
// while fixed-delay traffic costs O(1) per event instead of O(log n). The
// earliest head is cached between dispatches (and needs no search when the
// queue was empty), so step() finds it once.
//
// Cancellation is lazy: cancel() flags the event's slot and the loop drops
// a flagged key when it becomes the earliest, keeping schedule and
// dispatch free of queue surgery. cancel() itself scans the keys for the
// id; only RPC abandonment timers use it.

#include <array>
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
  static constexpr std::size_t kChunk = 16;
  static_assert(kCapacity % kChunk == 0);

  struct Ops {
    void (*invoke)(void* self);
    /// Move-construct into `to` and destroy the source; nullptr when a
    /// byte copy does both (trivially copyable callables).
    void (*relocate)(void* from, void* to) noexcept;
    /// nullptr when destruction is a no-op.
    void (*destroy)(void* self) noexcept;
    /// The bytes a trivial relocation copies: sizeof the callable rounded
    /// up to whole kChunk blocks, so the copy is a few fixed-size moves.
    std::size_t size;
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
      (sizeof(D) + kChunk - 1) / kChunk * kChunk,
  };

  void take(EventFn& other) noexcept {
    ops_ = std::exchange(other.ops_, nullptr);
    if (ops_ == nullptr) return;
    if (ops_->relocate != nullptr) {
      ops_->relocate(other.buf_, buf_);
    } else {
      for (std::size_t i = 0; i < ops_->size; i += kChunk) {
        std::memcpy(buf_ + i, other.buf_ + i, kChunk);
      }
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
  [[nodiscard]] std::size_t pending() const { return queued_ - cancelled_pending_; }

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
    /// Scheduled events whose key went to a fixed-delay lane, not the heap.
    std::uint64_t laned = 0;
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
  /// Queue key. Dispatch order: earliest time first, then lowest
  /// (earliest-assigned) id — the monotonic tie-break that keeps
  /// same-time dispatch FIFO.
  struct Key {
    SimDuration when;
    EventId id = kInvalidEvent;
    std::uint32_t slot = 0;
  };
  static bool earlier(const Key& a, const Key& b) {
    if (a.when.ns != b.when.ns) return a.when.ns < b.when.ns;
    return a.id < b.id;
  }
  struct Later {
    bool operator()(const Key& a, const Key& b) const { return earlier(b, a); }
  };
  struct Slot {
    EventFn fn;
    const char* category = "event";
    bool cancelled = false;
  };

  /// A FIFO of keys pushed with one exact delay: a ring buffer (power-of-
  /// two capacity) that only grows, so appends allocate nothing once it
  /// has held its peak. The first 16 slots come with the loop.
  class Lane {
   public:
    Lane() : ring_(16) {}

    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] const Key& front() const { return ring_[head_]; }
    [[nodiscard]] const Key& back() const { return ring_[(head_ + size_ - 1) & mask()]; }
    [[nodiscard]] const Key& at(std::size_t i) const { return ring_[(head_ + i) & mask()]; }
    void push_back(const Key& key);
    void pop_front() {
      head_ = (head_ + 1) & mask();
      --size_;
    }

   private:
    [[nodiscard]] std::size_t mask() const { return ring_.size() - 1; }
    std::vector<Key> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };
  /// Lanes beside the heap. A handful covers the recurring delays of a
  /// heartbeat soak (wire time, round timeout); more would only lengthen
  /// the per-push lane scan and the per-dispatch head scan.
  static constexpr std::size_t kLanes = 4;
  /// Where the earliest live key sits: lanes_[head_], or one of these.
  static constexpr int kHeadHeap = -1;
  static constexpr int kHeadNone = -2;   ///< nothing pending
  static constexpr int kHeadStale = -3;  ///< unknown until find_head()

  /// Shared body of the schedule_* overloads: `fn` moves into a slot.
  EventId push(SimDuration when, const char* category, EventFn& fn);
  /// The lane that takes a key pushed with `delay`, or kHeadHeap for the
  /// heap. Claims an empty lane for a delay seen before.
  int lane_for(SimDuration delay);
  /// Point head_ at the earliest live key, dropping cancelled keys found
  /// there first. Returns false when none is left.
  bool find_head();
  /// The first key of a source (kHeadHeap or a lane index), not empty.
  [[nodiscard]] const Key& front_of(int source) const {
    return source == kHeadHeap ? heap_.front() : lanes_[static_cast<std::size_t>(source)].front();
  }
  /// Remove the head key (find_head() must have returned true) and return
  /// its slot to the free list; the caller must take what it needs from
  /// the slot before anything schedules again and reuses it.
  Key pop_head();

  SimClock* clock_;
  Rng rng_;
  std::vector<Key> heap_;
  std::array<Lane, kLanes> lanes_;
  /// The delay each lane serves, apart from the lanes so the per-push scan
  /// reads one cache line; negative while unclaimed.
  std::array<std::int64_t, kLanes> lane_delays_;
  /// Delays recently pushed to the heap, direct-mapped by a hash of the
  /// delay: a delay found here on its next push has recurred.
  std::array<std::int64_t, 64> recent_delays_;
  int head_ = kHeadNone;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Keys in the heap and the lanes, cancelled ones included.
  std::size_t queued_ = 0;
  /// Cancelled keys still queued.
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
