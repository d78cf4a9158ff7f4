#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// The load comes from one thread, but the library owns a thread pool, so
// the counter stays race-free; relaxed order is enough for a tally.
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace kosha::bench {

std::uint64_t allocation_count() { return g_allocations.load(std::memory_order_relaxed); }

}  // namespace kosha::bench

// The array and nothrow forms of the standard library forward to these.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
