// EventLoop: dispatch ordering, monotonic tie-breaking, timer
// cancellation, the determinism rules of DESIGN §6 (same-seed runs
// replay byte-identically, no wall-clock anywhere), the slot pool behind
// it (callback lifetimes, slot reuse and growth during dispatch), and the
// fixed-delay lanes beside the heap, checked against a reference model
// that sorts by (when, id).

#include "common/event_loop.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace kosha {
namespace {

TEST(EventLoop, DispatchesInTimeOrderAndAdvancesClock) {
  SimClock clock;
  EventLoop loop(&clock);
  std::vector<int> order;
  loop.schedule_at(SimDuration::micros(30), [&] { order.push_back(3); });
  loop.schedule_at(SimDuration::micros(10), [&] {
    order.push_back(1);
    EXPECT_EQ(clock.now(), SimDuration::micros(10));
  });
  loop.schedule_at(SimDuration::micros(20), [&] { order.push_back(2); });
  EXPECT_EQ(loop.pending(), 3u);
  EXPECT_EQ(loop.run_until_idle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.now(), SimDuration::micros(30));
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, SameTimeTiesDispatchInScheduleOrder) {
  SimClock clock;
  EventLoop loop(&clock);
  std::string order;
  const SimDuration t = SimDuration::millis(1);
  for (char c : std::string("abcdef")) {
    loop.schedule_at(t, [&order, c] { order.push_back(c); });
  }
  loop.run_until_idle();
  EXPECT_EQ(order, "abcdef");
}

TEST(EventLoop, PastEventsRunAtNowWithoutRewinding) {
  SimClock clock;
  clock.advance(SimDuration::millis(5));
  EventLoop loop(&clock);
  bool ran = false;
  loop.schedule_at(SimDuration::millis(1), [&] {
    ran = true;
    EXPECT_EQ(clock.now(), SimDuration::millis(5));
  });
  loop.run_until_idle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(clock.now(), SimDuration::millis(5));
}

TEST(EventLoop, ScheduleAfterIsRelativeToNow) {
  SimClock clock;
  clock.advance(SimDuration::millis(2));
  EventLoop loop(&clock);
  loop.schedule_after(SimDuration::millis(3), [] {});
  loop.run_until_idle();
  EXPECT_EQ(clock.now(), SimDuration::millis(5));
}

TEST(EventLoop, CancelPreventsDispatchExactlyOnce) {
  SimClock clock;
  EventLoop loop(&clock);
  bool fired = false;
  const EventLoop::EventId timer =
      loop.schedule_after(SimDuration::millis(1), [&] { fired = true; });
  EXPECT_TRUE(loop.cancel(timer));
  EXPECT_FALSE(loop.cancel(timer));  // already cancelled
  EXPECT_EQ(loop.pending(), 0u);
  loop.run_until_idle();
  EXPECT_FALSE(fired);
  // The cancelled event's timestamp never touched the clock.
  EXPECT_EQ(clock.now(), SimDuration{});
  EXPECT_EQ(loop.stats().cancelled, 1u);
  EXPECT_EQ(loop.stats().executed, 0u);
}

TEST(EventLoop, CancelOfAnExecutedEventFails) {
  SimClock clock;
  EventLoop loop(&clock);
  const EventLoop::EventId id = loop.schedule_after(SimDuration::millis(1), [] {});
  loop.run_until_idle();
  EXPECT_FALSE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(EventLoop::kInvalidEvent));
}

TEST(EventLoop, EventsMayScheduleFurtherEvents) {
  SimClock clock;
  EventLoop loop(&clock);
  std::vector<int> order;
  loop.schedule_at(SimDuration::micros(10), [&] {
    order.push_back(1);
    loop.schedule_after(SimDuration::micros(5), [&] { order.push_back(2); });
  });
  loop.schedule_at(SimDuration::micros(20), [&] { order.push_back(3); });
  loop.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.now(), SimDuration::micros(20));
}

TEST(EventLoop, RunUntilStopsAtPredicateLeavingTheRestPending) {
  SimClock clock;
  EventLoop loop(&clock);
  bool done = false;
  int ran = 0;
  loop.schedule_at(SimDuration::micros(1), [&] { ++ran; });
  loop.schedule_at(SimDuration::micros(2), [&] {
    ++ran;
    done = true;
  });
  loop.schedule_at(SimDuration::micros(3), [&] { ++ran; });
  loop.run_until([&] { return done; });
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_until_idle();
  EXPECT_EQ(ran, 3);
}

/// The determinism guard: two same-seed loops given the same schedule
/// produce identical dispatch transcripts (including jittered timers);
/// a different seed shifts the jitter stream.
TEST(EventLoop, SameSeedRunsReplayIdentically) {
  const auto transcript = [](std::uint64_t seed) {
    SimClock clock;
    EventLoop loop(&clock, seed);
    std::string out;
    for (int i = 0; i < 16; ++i) {
      const SimDuration base = SimDuration::micros(10 * (i % 4));
      loop.schedule_at(base + loop.jitter(SimDuration::micros(7)), [&out, i] {
        out += std::to_string(i) + ",";
      });
    }
    loop.run_until_idle();
    out += '@';
    out += std::to_string(clock.now().ns);
    return out;
  };
  EXPECT_EQ(transcript(42), transcript(42));
  EXPECT_NE(transcript(42), transcript(43));
}

TEST(EventLoop, RunUntilTimeDispatchesDueEventsAndAdvancesTheClock) {
  SimClock clock;
  EventLoop loop(&clock);
  int ran = 0;
  loop.schedule_at(SimDuration::millis(1), [&] { ++ran; });
  loop.schedule_at(SimDuration::millis(2), [&] { ++ran; });
  loop.schedule_at(SimDuration::millis(9), [&] { ++ran; });

  // Everything <= the horizon runs; the clock lands exactly on the horizon
  // even though a later event is still pending (grid sampling contract).
  EXPECT_EQ(loop.run_until_time(SimDuration::millis(5)), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(clock.now(), SimDuration::millis(5));
  EXPECT_EQ(loop.pending(), 1u);

  // A horizon in the past dispatches nothing and never rewinds the clock.
  EXPECT_EQ(loop.run_until_time(SimDuration::millis(3)), 0u);
  EXPECT_EQ(clock.now(), SimDuration::millis(5));

  EXPECT_EQ(loop.run_until_time(SimDuration::millis(20)), 1u);
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(clock.now(), SimDuration::millis(20));
}

TEST(EventLoop, RunUntilTimeRunsEventsScheduledByEventsWithinTheHorizon) {
  SimClock clock;
  EventLoop loop(&clock);
  std::vector<std::int64_t> fired;
  // A self-rescheduling timer (the detector/repair-daemon shape): each
  // firing schedules the next; the horizon bounds the cascade.
  std::function<void()> tick = [&] {
    fired.push_back(clock.now().ns);
    loop.schedule_after(SimDuration::millis(2), tick);
  };
  loop.schedule_at(SimDuration::millis(1), tick);
  loop.run_until_time(SimDuration::millis(8));
  EXPECT_EQ(fired.size(), 4u);  // at 1, 3, 5, 7 ms
  EXPECT_EQ(clock.now(), SimDuration::millis(8));
  EXPECT_EQ(loop.pending(), 1u);  // the 9 ms tick waits for the next call
}

TEST(EventLoop, RunUntilTimeSkipsCancelledHeads) {
  SimClock clock;
  EventLoop loop(&clock);
  int ran = 0;
  const auto a = loop.schedule_at(SimDuration::millis(1), [&] { ++ran; });
  loop.schedule_at(SimDuration::millis(2), [&] { ++ran; });
  ASSERT_TRUE(loop.cancel(a));
  EXPECT_EQ(loop.run_until_time(SimDuration::millis(5)), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(clock.now(), SimDuration::millis(5));
}

TEST(EventLoop, AcceptsMoveOnlyCaptures) {
  SimClock clock;
  EventLoop loop(&clock);
  int seen = 0;
  auto owned = std::make_unique<int>(7);
  loop.schedule_after(SimDuration::millis(1), [&seen, p = std::move(owned)] { seen = *p; });
  loop.run_until_idle();
  EXPECT_EQ(seen, 7);
}

/// Counts destructions of instances that still own their token (moved-from
/// shells do not count), so each logical capture must report exactly one.
struct DestroyCounter {
  int* destroyed;
  bool owner = true;
  explicit DestroyCounter(int* d) : destroyed(d) {}
  DestroyCounter(DestroyCounter&& other) noexcept
      : destroyed(other.destroyed), owner(std::exchange(other.owner, false)) {}
  DestroyCounter(const DestroyCounter&) = delete;
  DestroyCounter& operator=(const DestroyCounter&) = delete;
  DestroyCounter& operator=(DestroyCounter&&) = delete;
  ~DestroyCounter() {
    if (owner) ++*destroyed;
  }
};

TEST(EventLoop, EveryCaptureIsDestroyedExactlyOnce) {
  int ran_destroyed = 0;
  int cancelled_destroyed = 0;
  int pending_destroyed = 0;
  int ran = 0;
  {
    SimClock clock;
    EventLoop loop(&clock);
    for (int i = 0; i < 3; ++i) {
      loop.schedule_at(SimDuration::millis(1), [&ran, c = DestroyCounter(&ran_destroyed)] {
        ++ran;
      });
    }
    const auto doomed = loop.schedule_at(
        SimDuration::millis(2), [&ran, c = DestroyCounter(&cancelled_destroyed)] { ++ran; });
    loop.schedule_at(SimDuration::millis(9),
                     [&ran, c = DestroyCounter(&pending_destroyed)] { ++ran; });
    ASSERT_TRUE(loop.cancel(doomed));
    loop.run_until_time(SimDuration::millis(5));
    EXPECT_EQ(ran, 3);
    EXPECT_EQ(ran_destroyed, 3);        // after running
    EXPECT_EQ(cancelled_destroyed, 1);  // when the cancelled key was dropped
    EXPECT_EQ(pending_destroyed, 0);    // still waiting
  }
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(ran_destroyed, 3);
  EXPECT_EQ(cancelled_destroyed, 1);
  EXPECT_EQ(pending_destroyed, 1);  // by the loop's destructor
}

TEST(EventLoop, StaleIdWhoseSlotWasReusedCancelsNothing) {
  SimClock clock;
  EventLoop loop(&clock);
  const auto first = loop.schedule_after(SimDuration::millis(1), [] {});
  loop.run_until_idle();  // frees first's slot
  bool fired = false;
  const auto second = loop.schedule_after(SimDuration::millis(1), [&] { fired = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(loop.cancel(first));
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_until_idle();
  EXPECT_TRUE(fired);
  EXPECT_EQ(loop.stats().cancelled, 0u);
}

TEST(EventLoop, SameTimeTiesStayFifoAcrossSlotReuse) {
  SimClock clock;
  EventLoop loop(&clock);
  std::string order;
  // Fill and drain a few slots so the free list hands them back in an
  // order unrelated to scheduling order.
  for (int i = 0; i < 4; ++i) loop.schedule_at(SimDuration::millis(1), [] {});
  loop.run_until_idle();
  const SimDuration t = SimDuration::millis(2);
  for (char c : std::string("abcdefgh")) {
    loop.schedule_at(t, [&order, c] { order.push_back(c); });
  }
  loop.run_until_idle();
  EXPECT_EQ(order, "abcdefgh");
}

TEST(EventLoop, CallbackMayGrowThePoolWhileItRuns) {
  SimClock clock;
  EventLoop loop(&clock);
  int children = 0;
  std::string seen;
  std::string label(64, 'x');  // a capture that must survive the growth
  loop.schedule_after(SimDuration::millis(1), [&, label] {
    for (int i = 0; i < 1000; ++i) {
      loop.schedule_after(SimDuration::millis(1), [&children] { ++children; });
    }
    seen = label;  // read after the pool moved every pending slot
  });
  loop.run_until_idle();
  EXPECT_EQ(seen, label);
  EXPECT_EQ(children, 1000);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, RecurringFixedDelayRidesALaneInFifoOrder) {
  SimClock clock;
  EventLoop loop(&clock);
  std::vector<int> order;
  const SimDuration wire = SimDuration::nanos(122'560);
  for (int i = 0; i < 100; ++i) {
    loop.schedule_after(wire, [&order, i] { order.push_back(i); });
  }
  // The first push only takes note of the delay; the second claims a lane.
  EXPECT_EQ(loop.stats().laned, 99u);
  EXPECT_EQ(loop.pending(), 100u);
  loop.run_until_idle();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(clock.now(), wire);
}

TEST(EventLoop, OneOffDelaysNeverClaimALane) {
  SimClock clock;
  EventLoop loop(&clock, 5);
  // Jittered timers: every delay distinct, none recurs.
  for (int i = 0; i < 200; ++i) {
    loop.schedule_after(SimDuration::millis(100) + SimDuration::nanos(i), [] {});
  }
  EXPECT_EQ(loop.stats().laned, 0u);
  // A steady delay that recurs among them still gets a lane.
  for (int i = 0; i < 3; ++i) loop.schedule_after(SimDuration::millis(50), [] {});
  EXPECT_EQ(loop.stats().laned, 2u);
  EXPECT_EQ(loop.run_until_idle(), 203u);
}

TEST(EventLoop, PushBeforeALanesTailAfterARewindDispatchesFirst) {
  SimClock clock;
  EventLoop loop(&clock);
  std::string order;
  const SimDuration d = SimDuration::millis(1);
  clock.set_now(SimDuration::millis(10));
  loop.schedule_after(d, [&] { order += 'a'; });  // 11 ms
  loop.schedule_after(d, [&] { order += 'b'; });  // 11 ms, in the lane
  clock.set_now(SimDuration::millis(5));
  // Same delay, but 6 ms is before the lane's tail: it must not be
  // appended behind 11 ms.
  loop.schedule_after(d, [&] { order += 'c'; });
  loop.run_until_idle();
  EXPECT_EQ(order, "cab");
  EXPECT_EQ(clock.now(), SimDuration::millis(11));
}

TEST(EventLoop, EarlierPushIntoAnotherQueueBecomesTheHead) {
  SimClock clock;
  EventLoop loop(&clock);
  const SimDuration d = SimDuration::millis(2);
  loop.schedule_after(d, [] {});
  loop.schedule_after(d, [] {});
  loop.run_until_idle();  // d now owns a lane, empty
  std::string order;
  loop.schedule_after(d, [&] { order += 'c'; });                     // lane, sole event
  loop.schedule_after(SimDuration::micros(5), [&] { order += 'a'; });  // heap, earlier
  // Located by the peek (nothing due at now), then undercut.
  EXPECT_EQ(loop.run_until_time(clock.now()), 0u);
  loop.schedule_after(SimDuration::micros(1), [&] { order += 'b'; });  // heap again
  loop.run_until_idle();
  EXPECT_EQ(order, "bac");
}

TEST(EventLoop, CancelFindsLaneResidentEvents) {
  SimClock clock;
  EventLoop loop(&clock);
  std::string order;
  std::vector<EventLoop::EventId> ids;
  for (char c : std::string("abcdef")) {
    ids.push_back(loop.schedule_after(SimDuration::millis(2), [&order, c] { order += c; }));
  }
  ASSERT_EQ(loop.stats().laned, 5u);
  EXPECT_TRUE(loop.cancel(ids[0]));  // heap-resident (first sighting)
  EXPECT_TRUE(loop.cancel(ids[1]));  // lane head
  EXPECT_TRUE(loop.cancel(ids[4]));  // mid-lane
  EXPECT_FALSE(loop.cancel(ids[4]));
  EXPECT_EQ(loop.pending(), 3u);
  loop.run_until_idle();
  EXPECT_EQ(order, "cdf");
  EXPECT_FALSE(loop.cancel(ids[2]));  // ran
}

/// Trivially copyable closures of several sizes, the largest filling the
/// inline buffer, survive the moves between schedule, slot and dispatch.
TEST(EventLoop, TriviallyCopyableCapturesSurviveMoves) {
  SimClock clock;
  EventLoop loop(&clock);
  std::uint64_t sum = 0;
  std::uint64_t* out = &sum;
  std::array<std::uint64_t, 1> small{7};
  std::array<std::uint64_t, (EventFn::kCapacity / 8) - 1> large{};
  for (std::size_t i = 0; i < large.size(); ++i) large[i] = i + 1;
  loop.schedule_after(SimDuration::millis(1), [out, small] { *out += small[0]; });
  loop.schedule_after(SimDuration::millis(1), [out, large] {
    for (const std::uint64_t v : large) *out += v;
  });
  EventFn moved = [out, large] {
    for (const std::uint64_t v : large) *out += 1000 * v;
  };
  EventFn again = std::move(moved);
  loop.schedule_after(SimDuration::millis(2), std::move(again));
  loop.run_until_idle();
  const std::uint64_t n = large.size();
  EXPECT_EQ(sum, 7 + 1001 * n * (n + 1) / 2);
}

/// Differential test of the queue: a seeded random schedule runs against a
/// reference model that sorts pending events by (when, id). The schedule
/// mixes fixed-delay bursts (lane traffic), jittered one-off delays, ties
/// at one timestamp, cancels of pending and stale ids, set_now rewinds
/// followed by pushes that land before a lane's tail, and nested
/// run_until / run_until_time calls from inside callbacks. The loop must
/// dispatch exactly the model's sequence, report the model's pending()
/// after every step, and destroy every capture exactly once.
class QueueDifferential {
 public:
  explicit QueueDifferential(std::uint64_t seed) : rng_(seed) {
    loop_.emplace(&clock_, seed);
  }

  void run() {
    for (int i = 0; i < 600 && budget_ > 0; ++i) {
      switch (rng_.next_below(6)) {
        case 0:
        case 1:
          act(0);
          break;
        case 2: {
          const bool any = !model_.empty();
          EXPECT_EQ(loop_->step(), any);
          break;
        }
        case 3: {
          // A horizon of now (due events only) or later. Either way the
          // loop ends with the next head located, so the pushes that
          // follow must keep that cached head exact.
          const SimDuration horizon =
              clock_.now() + (rng_.next_bool(0.5) ? SimDuration{} : random_delay());
          loop_->run_until_time(horizon);
          check_horizon(horizon);
          break;
        }
        case 4: {
          const std::uint64_t n = rng_.next_below(8);
          std::uint64_t ran = 0;
          loop_->run_until([&] { return ran++ >= n; });
          break;
        }
        default:
          // Drain now and then: pushes into an empty queue, then earlier
          // pushes into another source, must move the head.
          if (rng_.next_bool(0.2)) loop_->run_until_idle();
          break;
      }
      check_pending();
    }
    loop_->run_until_idle();
    EXPECT_TRUE(model_.empty());
    check_pending();
    laned = loop_->stats().laned;
    loop_.reset();
  }

  std::vector<EventLoop::EventId> dispatched;
  std::vector<EventLoop::EventId> expected;
  /// Destructions per scheduled capture; every entry must end at 1.
  std::vector<int> destroyed;
  std::size_t cancelled = 0;
  std::size_t pending_mismatches = 0;
  std::size_t horizon_violations = 0;
  std::size_t payload_errors = 0;
  std::uint64_t laned = 0;

 private:
  /// A capture that reports its own destruction (moved-from shells do not).
  struct Token {
    QueueDifferential* run;
    std::size_t index;
    bool owner = true;
    Token(QueueDifferential* r, std::size_t i) : run(r), index(i) {}
    Token(Token&& other) noexcept
        : run(other.run), index(other.index), owner(std::exchange(other.owner, false)) {}
    Token(const Token&) = delete;
    Token& operator=(const Token&) = delete;
    Token& operator=(Token&&) = delete;
    ~Token() {
      if (owner) ++run->destroyed[index];
    }
  };

  static constexpr std::array<std::int64_t, 4> kFixedDelays = {122'560, 50'000'000, 7'000, 0};

  SimDuration random_delay() {
    return SimDuration::nanos(static_cast<std::int64_t>(rng_.next_below(2'000'000)));
  }

  /// Schedule one event at `when` (absolute, or relative to now when
  /// `relative`), mirroring its key into the model.
  void schedule(SimDuration when, bool relative) {
    if (budget_ == 0) return;
    --budget_;
    const std::size_t index = destroyed.size();
    destroyed.push_back(0);
    const SimDuration now = clock_.now();
    const SimDuration key = relative ? now + when : std::max(when, now);
    EventLoop::EventId id = EventLoop::kInvalidEvent;
    if (rng_.next_bool(0.5)) {
      Token token(this, index);
      id = relative ? loop_->schedule_after(when, [this, t = std::move(token)] {
        on_dispatch(t.index);
      })
                    : loop_->schedule_at(when, [this, t = std::move(token)] {
                        on_dispatch(t.index);
                      });
    } else {
      // Trivially copyable: checked by its payload, counted here.
      ++destroyed[index];
      const std::array<std::uint64_t, 6> payload{index, index + 1, index + 2,
                                                 index + 3, index + 4, index + 5};
      auto fn = [this, payload] {
        for (std::size_t i = 0; i < payload.size(); ++i) {
          if (payload[i] != payload[0] + i) ++payload_errors;
        }
        on_dispatch(payload[0]);
      };
      id = relative ? loop_->schedule_after(when, fn) : loop_->schedule_at(when, fn);
    }
    ids_.push_back(id);
    keys_.push_back(key);
    model_.insert({key.ns, id});
  }

  void on_dispatch(std::size_t index) {
    const EventLoop::EventId id = ids_[index];
    expected.push_back(model_.empty() ? EventLoop::kInvalidEvent : model_.begin()->second);
    dispatched.push_back(id);
    model_.erase({keys_[index].ns, id});
    if (depth_ < 3 && rng_.next_bool(0.6)) act(depth_ + 1);
  }

  void check_pending() { pending_mismatches += loop_->pending() != model_.size(); }

  void check_horizon(SimDuration horizon) {
    horizon_violations += !model_.empty() && model_.begin()->first <= horizon.ns;
  }

  void burst() {
    const SimDuration d = SimDuration::nanos(kFixedDelays[rng_.next_below(kFixedDelays.size())]);
    const std::uint64_t n = 1 + rng_.next_below(24);
    for (std::uint64_t i = 0; i < n; ++i) schedule(d, true);
  }

  void act(int depth) {
    const int saved = depth_;
    depth_ = depth;
    switch (rng_.next_below(8)) {
      case 0:
      case 1:
        burst();
        break;
      case 2:  // jittered one-off delays
        for (std::uint64_t i = 0, n = 1 + rng_.next_below(3); i < n; ++i) {
          schedule(SimDuration::millis(100) + loop_->jitter(SimDuration::millis(15)), true);
        }
        break;
      case 3: {  // ties at one timestamp, sometimes in the past
        const SimDuration t = clock_.now() + random_delay() - SimDuration::micros(500);
        for (std::uint64_t i = 0, n = 2 + rng_.next_below(4); i < n; ++i) schedule(t, false);
        break;
      }
      case 4: {  // cancel a pending, ran, cancelled or never-issued id
        EventLoop::EventId id = EventLoop::kInvalidEvent;
        if (!ids_.empty() && rng_.next_bool(0.9)) {
          // Bias toward recent ids, which are mostly still pending.
          const std::size_t back = std::min<std::size_t>(ids_.size(), 64);
          id = ids_[ids_.size() - 1 - rng_.next_below(back)];
          if (rng_.next_bool(0.2)) id = ids_[rng_.next_below(ids_.size())];
        } else if (rng_.next_bool(0.5)) {
          id = ids_.size() + 1000;
        }
        const auto it = std::find_if(model_.begin(), model_.end(),
                                     [id](const auto& k) { return k.second == id; });
        const bool pending = it != model_.end();
        EXPECT_EQ(loop_->cancel(id), pending) << "id " << id;
        if (pending) {
          model_.erase(it);
          ++cancelled;
        }
        break;
      }
      case 5: {  // rewind, then push fixed delays that may land before a tail
        const std::int64_t back = static_cast<std::int64_t>(rng_.next_below(3'000'000));
        clock_.set_now(SimDuration::nanos(std::max<std::int64_t>(0, clock_.now().ns - back)));
        burst();
        break;
      }
      case 6:
        if (depth < 3) {
          const std::uint64_t n = rng_.next_below(6);
          std::uint64_t ran = 0;
          loop_->run_until([&] { return ran++ >= n; });
        }
        break;
      default:
        if (depth < 3) {
          const SimDuration horizon = clock_.now() + random_delay();
          loop_->run_until_time(horizon);
          check_horizon(horizon);
        }
        break;
    }
    check_pending();
    depth_ = saved;
  }

  SimClock clock_;
  std::optional<EventLoop> loop_;
  Rng rng_;
  std::set<std::pair<std::int64_t, EventLoop::EventId>> model_;
  std::vector<EventLoop::EventId> ids_;
  std::vector<SimDuration> keys_;
  std::size_t budget_ = 3000;
  int depth_ = 0;
};

TEST(EventLoop, MatchesAReferenceModelOnRandomSchedules) {
  std::uint64_t laned = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    QueueDifferential run(seed);
    run.run();
    // Everything scheduled either ran or was cancelled.
    ASSERT_EQ(run.dispatched.size() + run.cancelled, run.destroyed.size());
    std::size_t first_mismatch = run.dispatched.size();
    for (std::size_t i = 0; i < run.dispatched.size(); ++i) {
      if (run.dispatched[i] != run.expected[i]) {
        first_mismatch = i;
        break;
      }
    }
    EXPECT_EQ(first_mismatch, run.dispatched.size())
        << "dispatched id " << run.dispatched[first_mismatch] << ", model expected "
        << run.expected[first_mismatch];
    EXPECT_EQ(run.pending_mismatches, 0u);
    EXPECT_EQ(run.horizon_violations, 0u);
    EXPECT_EQ(run.payload_errors, 0u);
    for (std::size_t i = 0; i < run.destroyed.size(); ++i) {
      ASSERT_EQ(run.destroyed[i], 1) << "capture " << i;
    }
    laned += run.laned;
  }
  EXPECT_GT(laned, 0u);  // the lanes were exercised, not just the heap
}

TEST(SimClockExtensions, AdvanceToNeverRewindsButSetNowDoes) {
  SimClock clock;
  clock.advance_to(SimDuration::millis(3));
  EXPECT_EQ(clock.now(), SimDuration::millis(3));
  clock.advance_to(SimDuration::millis(1));  // never backwards
  EXPECT_EQ(clock.now(), SimDuration::millis(3));
  clock.set_now(SimDuration::millis(1));  // explicit rewind is allowed
  EXPECT_EQ(clock.now(), SimDuration::millis(1));
}

}  // namespace
}  // namespace kosha
