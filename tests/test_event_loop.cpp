// EventLoop: dispatch ordering, monotonic tie-breaking, timer
// cancellation, the determinism rules of DESIGN §6 (same-seed runs
// replay byte-identically, no wall-clock anywhere), and the slot pool
// behind it: callback lifetimes, slot reuse and growth during dispatch.

#include "common/event_loop.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

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
    out += "@" + std::to_string(clock.now().ns);
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

TEST(SimClockExtensions, AdvanceToAndSetNowRespectPause) {
  SimClock clock;
  clock.advance_to(SimDuration::millis(3));
  EXPECT_EQ(clock.now(), SimDuration::millis(3));
  clock.advance_to(SimDuration::millis(1));  // never backwards
  EXPECT_EQ(clock.now(), SimDuration::millis(3));
  clock.set_now(SimDuration::millis(1));  // explicit rewind is allowed
  EXPECT_EQ(clock.now(), SimDuration::millis(1));
  {
    ClockPauser pause(clock);
    clock.advance_to(SimDuration::millis(9));
    clock.set_now(SimDuration::millis(9));
    EXPECT_EQ(clock.now(), SimDuration::millis(1));
  }
}

}  // namespace
}  // namespace kosha
