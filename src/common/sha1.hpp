#pragma once

// SHA-1 (FIPS 180-1), implemented from scratch.
//
// Kosha derives DHT keys by hashing directory names with SHA-1 (paper §3.1).
// Only the first 128 bits of the 160-bit digest are used as the Pastry key.

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/uint128.hpp"

namespace kosha {

/// Streaming SHA-1 hasher.
class Sha1 {
 public:
  Sha1() { reset(); }

  /// Reset to the initial state so the object can be reused.
  void reset();

  /// Absorb `data` into the hash state.
  void update(std::string_view data);

  /// Finalize and return the 20-byte digest. The object must be reset()
  /// before further use.
  [[nodiscard]] std::array<std::uint8_t, 20> digest();

  /// One-shot convenience: 20-byte digest of `data`.
  [[nodiscard]] static std::array<std::uint8_t, 20> hash(std::string_view data);

  /// One-shot convenience: first 128 bits of SHA-1(data), big-endian.
  [[nodiscard]] static Uint128 hash128(std::string_view data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 5> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_bytes_ = 0;
  std::size_t buffer_len_ = 0;
};

/// Lowercase hex of a 20-byte digest (40 characters): the form every
/// digest the simulators print takes.
[[nodiscard]] std::string to_hex(const std::array<std::uint8_t, 20>& digest);

}  // namespace kosha
