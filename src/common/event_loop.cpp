#include "common/event_loop.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/profile.hpp"

namespace kosha {

EventLoop::EventLoop(SimClock* clock, std::uint64_t seed)
    : clock_(clock), rng_(seed ^ 0xC0FFEE123456789Bull) {
  assert(clock_ != nullptr);
}

EventLoop::EventId EventLoop::schedule_at(SimDuration when, EventFn fn) {
  return push(when, "event", fn);
}

EventLoop::EventId EventLoop::schedule_at(SimDuration when, const char* category, EventFn fn) {
  return push(when, category, fn);
}

EventLoop::EventId EventLoop::schedule_after(SimDuration delay, EventFn fn) {
  return push(clock_->now() + delay, "event", fn);
}

EventLoop::EventId EventLoop::schedule_after(SimDuration delay, const char* category,
                                             EventFn fn) {
  return push(clock_->now() + delay, category, fn);
}

EventLoop::EventId EventLoop::push(SimDuration when, const char* category, EventFn& fn) {
  const EventId id = next_id_++;
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  slots_[slot].category = category != nullptr ? category : "event";
  heap_.push_back(Key{std::max(when, clock_->now()), id, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++stats_.scheduled;
  return id;
}

bool EventLoop::cancel(EventId id) {
  if (id == kInvalidEvent || id >= next_id_) return false;
  // Only ids still somewhere in the heap are pending; anything else ran.
  const auto it = std::find_if(heap_.begin(), heap_.end(),
                               [id](const Key& k) { return k.id == id; });
  if (it == heap_.end() || slots_[it->slot].cancelled) return false;
  slots_[it->slot].cancelled = true;
  ++cancelled_pending_;
  ++stats_.cancelled;
  return true;
}

EventLoop::Key EventLoop::pop_head() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  free_slots_.push_back(key.slot);
  return key;
}

void EventLoop::drop_cancelled_heads() {
  while (!heap_.empty() && slots_[heap_.front().slot].cancelled) {
    Slot& slot = slots_[pop_head().slot];
    slot.cancelled = false;
    --cancelled_pending_;
    // The captures die here, exactly once, after the slot is consistent
    // (a capture's destructor may itself schedule).
    const EventFn dead = std::move(slot.fn);
  }
}

bool EventLoop::step() {
  drop_cancelled_heads();
  if (heap_.empty()) return false;
  // Move the callback out before running it: the callback may schedule
  // events that reuse its slot or grow (and so move) the pool.
  Slot& head = slots_[heap_.front().slot];
  EventFn fn = std::move(head.fn);
  const char* category = head.category;
  const Key key = pop_head();
  clock_->advance_to(key.when);
  ++stats_.executed;
  if (profiler_ != nullptr) {
    // Wall-clock self time of the callback body, read through the
    // profiler's sanctioned seam (the loop itself never names a clock).
    // Callbacks can drive nested dispatch (the synchronous RPC wrapper
    // runs the loop from inside server invokes); nested events' wall
    // time is subtracted so each event reports true self time.
    const std::uint64_t wall_begin = SimProfiler::wall_now_ns();
    const std::uint64_t saved_nested = nested_wall_ns_;
    nested_wall_ns_ = 0;
    fn();
    const std::uint64_t total = SimProfiler::wall_now_ns() - wall_begin;
    profiler_->record_event(category, total > nested_wall_ns_ ? total - nested_wall_ns_ : 0);
    nested_wall_ns_ = saved_nested + total;
  } else {
    fn();
  }
  return true;
}

std::size_t EventLoop::run_until_idle() {
  std::size_t ran = 0;
  while (step()) ++ran;
  return ran;
}

std::size_t EventLoop::run_until(const std::function<bool()>& done) {
  std::size_t ran = 0;
  while (!done() && step()) ++ran;
  return ran;
}

std::size_t EventLoop::run_until_time(SimDuration when) {
  std::size_t ran = 0;
  for (;;) {
    // The peek below must see the true earliest live event.
    drop_cancelled_heads();
    if (heap_.empty() || heap_.front().when.ns > when.ns) break;
    if (step()) ++ran;
  }
  clock_->advance_to(when);
  return ran;
}

SimDuration EventLoop::jitter(SimDuration max) {
  if (max.ns <= 0) return {};
  return SimDuration::nanos(
      static_cast<std::int64_t>(rng_.next_below(static_cast<std::uint64_t>(max.ns) + 1)));
}

}  // namespace kosha
