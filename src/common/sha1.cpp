#include "common/sha1.hpp"

#include <cstring>

namespace kosha {

namespace {

constexpr std::uint32_t rotl(std::uint32_t x, unsigned n) {
  return (x << n) | (x >> (32 - n));
}

}  // namespace

void Sha1::reset() {
  state_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  total_bytes_ = 0;
  buffer_len_ = 0;
}

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[80];
  for (int t = 0; t < 16; ++t) {
    w[t] = (static_cast<std::uint32_t>(block[t * 4]) << 24) |
           (static_cast<std::uint32_t>(block[t * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[t * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[t * 4 + 3]);
  }
  for (int t = 16; t < 80; ++t) {
    w[t] = rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
  }

  std::uint32_t a = state_[0];
  std::uint32_t b = state_[1];
  std::uint32_t c = state_[2];
  std::uint32_t d = state_[3];
  std::uint32_t e = state_[4];

  for (int t = 0; t < 80; ++t) {
    std::uint32_t f;
    std::uint32_t k;
    if (t < 20) {
      f = (b & c) | ((~b) & d);
      k = 0x5A827999u;
    } else if (t < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (t < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    const std::uint32_t temp = rotl(a, 5) + f + e + k + w[t];
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = temp;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

void Sha1::update(std::string_view data) {
  total_bytes_ += data.size();
  const auto* p = reinterpret_cast<const std::uint8_t*>(data.data());
  std::size_t remaining = data.size();

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(remaining, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    remaining -= take;
    if (buffer_len_ == buffer_.size()) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (remaining >= 64) {
    process_block(p);
    p += 64;
    remaining -= 64;
  }
  if (remaining > 0) {
    std::memcpy(buffer_.data(), p, remaining);
    buffer_len_ = remaining;
  }
}

std::array<std::uint8_t, 20> Sha1::digest() {
  const std::uint64_t bit_len = total_bytes_ * 8;

  // Append the 0x80 terminator, zero padding, and the 64-bit length.
  const std::uint8_t terminator = 0x80;
  update(std::string_view(reinterpret_cast<const char*>(&terminator), 1));
  total_bytes_ -= 1;  // padding does not count toward the message length
  static constexpr std::uint8_t zeros[64] = {};
  while (buffer_len_ != 56) {
    const std::size_t pad = (buffer_len_ < 56) ? 56 - buffer_len_ : 64 - buffer_len_;
    update(std::string_view(reinterpret_cast<const char*>(zeros), pad));
    total_bytes_ -= pad;
  }
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(std::string_view(reinterpret_cast<const char*>(len_bytes), 8));

  std::array<std::uint8_t, 20> out{};
  for (int i = 0; i < 5; ++i) {
    out[static_cast<std::size_t>(i * 4)] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[static_cast<std::size_t>(i * 4 + 1)] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[static_cast<std::size_t>(i * 4 + 2)] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[static_cast<std::size_t>(i * 4 + 3)] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

std::array<std::uint8_t, 20> Sha1::hash(std::string_view data) {
  Sha1 h;
  h.update(data);
  return h.digest();
}

Uint128 Sha1::hash128(std::string_view data) {
  const auto d = hash(data);
  std::array<std::uint8_t, 16> first{};
  std::memcpy(first.data(), d.data(), 16);
  return Uint128::from_bytes(first);
}

std::string to_hex(const std::array<std::uint8_t, 20>& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(digest.size() * 2);
  for (const std::uint8_t byte : digest) {
    out += kHex[byte >> 4];
    out += kHex[byte & 0xF];
  }
  return out;
}

}  // namespace kosha
