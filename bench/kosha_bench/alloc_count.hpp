#pragma once

// Heap allocations made by this process so far, counted by the global
// operator new replacement in alloc_count.cpp. The hook lives in the
// benchmark binary only; the library is unaware of it.

#include <cstdint>

namespace kosha::bench {

[[nodiscard]] std::uint64_t allocation_count();

}  // namespace kosha::bench
