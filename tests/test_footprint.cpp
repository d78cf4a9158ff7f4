// Memory footprint ceilings: the heap a Kosha node holds while idle, and
// the heap one home directory adds, on the homes/scale_10k op mix.
//
// This binary replaces the global operator new/delete with a counter of
// *requested* bytes (each block carries its size in a 16-byte header), so
// the figures depend on what the code asks for and not on the allocator's
// rounding, arenas or sanitizer redzones. The ceilings sit about 10% above
// the measured values; the test prints the values so a change that moves
// them can be read off the log.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_allocations{0};

// One header per block, sized to keep the block max-aligned.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_new(std::size_t size) {
  auto* base = static_cast<unsigned char*>(std::malloc(size + kHeader));
  if (base == nullptr) throw std::bad_alloc();
  *reinterpret_cast<std::size_t*>(base) = size;
  g_live_bytes.fetch_add(static_cast<std::int64_t>(size), std::memory_order_relaxed);
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return base + kHeader;
}

void counted_delete(void* p) noexcept {
  if (p == nullptr) return;
  unsigned char* base = static_cast<unsigned char*>(p) - kHeader;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(*reinterpret_cast<std::size_t*>(base)),
                         std::memory_order_relaxed);
  std::free(base);
}

}  // namespace

// The nothrow forms of the standard library forward to these.
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }

namespace kosha {
namespace {

struct HeapMark {
  std::int64_t bytes = g_live_bytes.load();
  std::uint64_t allocations = g_allocations.load();
};

/// The homes/scale_10k cluster: one replica, distribution level 1, the
/// benchmark's 64 GiB stores, observability off.
ClusterConfig homes_config(std::size_t nodes) {
  ClusterConfig config;
  config.nodes = nodes;
  config.seed = 1;
  config.kosha.replicas = 1;
  config.kosha.distribution_level = 1;
  config.node_capacity_bytes = 64ull << 30;
  return config;
}

TEST(Footprint, IdleNodeHeapStaysUnderItsCeiling) {
  constexpr std::size_t kNodes = 1000;
  constexpr double kCeilingBytes = 3350;
  const HeapMark before;
  KoshaCluster cluster(homes_config(kNodes));
  const HeapMark after;
  const double per_node = static_cast<double>(after.bytes - before.bytes) / kNodes;
  const double allocs_per_node =
      static_cast<double>(after.allocations - before.allocations) / kNodes;
  std::printf("idle node: %.0f B and %.1f allocations per node (%zu nodes)\n", per_node,
              allocs_per_node, kNodes);
  EXPECT_GT(per_node, 0.0);
  EXPECT_LE(per_node, kCeilingBytes);
}

TEST(Footprint, HomeDirectoryHeapStaysUnderItsCeiling) {
  constexpr std::size_t kNodes = 64;
  constexpr std::size_t kHomes = 2048;
  constexpr std::size_t kFileBytes = 256;
  constexpr double kCeilingBytes = 3650;
  KoshaCluster cluster(homes_config(kNodes));
  std::vector<KoshaMount> mounts;
  mounts.reserve(kNodes);
  for (std::size_t h = 0; h < kNodes; ++h) {
    mounts.emplace_back(&cluster.daemon(static_cast<net::HostId>(h)));
  }
  Rng rng(42);
  std::vector<std::string> homes;
  std::vector<std::string> contents;
  for (std::size_t i = 0; i < kHomes; ++i) {
    homes.push_back(std::string("/h").append(std::to_string(i)).append("-").append(rng.next_name(6)));
    contents.push_back(rng.next_name(kFileBytes));
  }
  const HeapMark before;
  for (std::size_t i = 0; i < kHomes; ++i) {
    KoshaMount& mount = mounts[i % kNodes];
    ASSERT_TRUE(mount.mkdir_p(homes[i]).ok());
    ASSERT_TRUE(mount.write_file(std::string(homes[i]).append("/profile"), contents[i]).ok());
  }
  const HeapMark after;
  const double per_home = static_cast<double>(after.bytes - before.bytes) / kHomes;
  std::printf("home directory: %.0f B per home for %zu B of content (%zu homes, %zu nodes)\n",
              per_home, kFileBytes, kHomes, kNodes);
  EXPECT_GT(per_home, static_cast<double>(kFileBytes));
  EXPECT_LE(per_home, kCeilingBytes);
}

}  // namespace
}  // namespace kosha
