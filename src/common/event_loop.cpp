#include "common/event_loop.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/profile.hpp"

namespace kosha {

EventLoop::EventLoop(SimClock* clock, std::uint64_t seed)
    : clock_(clock), rng_(seed ^ 0xC0FFEE123456789Bull) {
  assert(clock_ != nullptr);
  recent_delays_.fill(-1);
  lane_delays_.fill(-1);
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

void EventLoop::Lane::push_back(const Key& key) {
  if (size_ == ring_.size()) {
    // Unroll the ring into a buffer twice the size.
    std::vector<Key> grown(2 * ring_.size());
    for (std::size_t i = 0; i < size_; ++i) grown[i] = at(i);
    ring_ = std::move(grown);
    head_ = 0;
  }
  ring_[(head_ + size_) & mask()] = key;
  ++size_;
}

int EventLoop::lane_for(SimDuration delay) {
  for (std::size_t i = 0; i < kLanes; ++i) {
    if (lane_delays_[i] == delay.ns) return static_cast<int>(i);
  }
  // A first sighting only takes note; a delay claims a lane once it
  // recurs, so one-off (jittered) delays never crowd out the steady ones.
  const auto bucket = static_cast<std::uint64_t>(delay.ns) * 0x9E3779B97F4A7C15ull >> 58;
  std::int64_t& seen = recent_delays_[bucket];
  if (seen != delay.ns) {
    seen = delay.ns;
    return kHeadHeap;
  }
  for (std::size_t i = 0; i < kLanes; ++i) {
    if (lanes_[i].empty()) {
      lane_delays_[i] = delay.ns;
      return static_cast<int>(i);
    }
  }
  return kHeadHeap;
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
  const SimDuration now = clock_->now();
  const Key key{std::max(when, now), id, slot};
  // The tail rule: the key joins its delay's lane only if that keeps the
  // lane sorted. Its id is the largest yet, so "not before the tail in
  // time" is enough; a key that a rewound or paused clock put earlier
  // goes to the heap.
  int source = lane_for(key.when - now);
  if (source != kHeadHeap) {
    Lane& lane = lanes_[static_cast<std::size_t>(source)];
    if (lane.empty() || lane.back().when <= key.when) {
      lane.push_back(key);
      ++stats_.laned;
    } else {
      source = kHeadHeap;
    }
  }
  if (source == kHeadHeap) {
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  ++queued_;
  // Keep the cached head exact: a new key is the earliest only if it is
  // strictly earlier in time (on a tie the head's id is lower).
  if (head_ == kHeadNone || (head_ != kHeadStale && key.when < front_of(head_).when)) head_ = source;
  ++stats_.scheduled;
  return id;
}

bool EventLoop::cancel(EventId id) {
  if (id == kInvalidEvent || id >= next_id_) return false;
  // Only ids still queued are pending; anything else ran.
  const Key* found = nullptr;
  const auto it = std::find_if(heap_.begin(), heap_.end(),
                               [id](const Key& k) { return k.id == id; });
  if (it != heap_.end()) found = &*it;
  for (const Lane& lane : lanes_) {
    for (std::size_t i = 0; found == nullptr && i < lane.size(); ++i) {
      if (lane.at(i).id == id) found = &lane.at(i);
    }
  }
  if (found == nullptr || slots_[found->slot].cancelled) return false;
  slots_[found->slot].cancelled = true;
  ++cancelled_pending_;
  ++stats_.cancelled;
  head_ = kHeadStale;
  return true;
}

EventLoop::Key EventLoop::pop_head() {
  Key key;
  if (head_ == kHeadHeap) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    key = heap_.back();
    heap_.pop_back();
  } else {
    Lane& lane = lanes_[static_cast<std::size_t>(head_)];
    key = lane.front();
    lane.pop_front();
  }
  --queued_;
  // An emptied queue needs no search: the next push is the head.
  head_ = queued_ == 0 ? kHeadNone : kHeadStale;
  free_slots_.push_back(key.slot);
  return key;
}

bool EventLoop::find_head() {
  if (head_ != kHeadStale) return head_ != kHeadNone;
  for (;;) {
    int best = heap_.empty() ? kHeadNone : kHeadHeap;
    for (std::size_t i = 0; i < kLanes; ++i) {
      const Lane& lane = lanes_[i];
      if (!lane.empty() && (best == kHeadNone || earlier(lane.front(), front_of(best)))) {
        best = static_cast<int>(i);
      }
    }
    head_ = best;
    if (best == kHeadNone) return false;
    if (cancelled_pending_ == 0 || !slots_[front_of(best).slot].cancelled) return true;
    // The earliest key was cancelled: drop it and look again.
    Slot& slot = slots_[pop_head().slot];
    slot.cancelled = false;
    --cancelled_pending_;
    // The captures die here, exactly once, after the queues are consistent
    // (a capture's destructor may itself schedule, or grow the pool).
    const EventFn dead = std::move(slot.fn);
  }
}

bool EventLoop::step() {
  if (!find_head()) return false;
  // Move the callback out before running it: the callback may schedule
  // events that reuse its slot or grow (and so move) the pool.
  const Key key = pop_head();
  Slot& head = slots_[key.slot];
  EventFn fn = std::move(head.fn);
  const char* category = head.category;
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
    // The peek sees the earliest live event; step() reuses the lookup.
    if (!find_head() || front_of(head_).when.ns > when.ns) break;
    step();
    ++ran;
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
