// SHA-1 correctness against the FIPS 180-1 test vectors, plus streaming
// and key-derivation properties.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.hpp"
#include "common/sha1.hpp"

namespace kosha {
namespace {

std::string hex_digest(const std::array<std::uint8_t, 20>& digest) {
  std::string out;
  for (const auto byte : digest) {
    char buf[3];
    std::snprintf(buf, sizeof(buf), "%02x", byte);
    out += buf;
  }
  return out;
}

TEST(Sha1, FipsVectorAbc) {
  EXPECT_EQ(hex_digest(Sha1::hash("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, ToHexIsLowercaseAndMatchesPrintf) {
  EXPECT_EQ(to_hex(Sha1::hash("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
  std::array<std::uint8_t, 20> edges{};
  for (std::size_t i = 0; i < edges.size(); ++i) {
    edges[i] = static_cast<std::uint8_t>(i * 37 % 256);
  }
  edges[0] = 0x00;
  edges[19] = 0xFF;
  EXPECT_EQ(to_hex(edges), hex_digest(edges));
  EXPECT_EQ(to_hex(edges).size(), 40u);
}

TEST(Sha1, FipsVectorTwoBlockMessage) {
  EXPECT_EQ(hex_digest(Sha1::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, EmptyString) {
  EXPECT_EQ(hex_digest(Sha1::hash("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, MillionAs) {
  Sha1 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(hex_digest(hasher.digest()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, ExactBlockBoundary) {
  // 64-byte input exercises the padding-into-second-block path.
  EXPECT_EQ(hex_digest(Sha1::hash(std::string(64, 'x'))),
            "bb2fa3ee7afb9f54c6dfb5d021f14b1ffe40c163");
}

TEST(Sha1, FiftyFiveAndFiftySixBytes) {
  // 55 bytes: length fits in the same block as the terminator.
  // 56 bytes: the length must spill into the next block.
  const auto d55 = Sha1::hash(std::string(55, 'q'));
  const auto d56 = Sha1::hash(std::string(56, 'q'));
  EXPECT_NE(hex_digest(d55), hex_digest(d56));
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 hasher;
  hasher.update("abc");
  const auto first = hasher.digest();
  hasher.reset();
  hasher.update("abc");
  EXPECT_EQ(hex_digest(hasher.digest()), hex_digest(first));
}

TEST(Sha1, Hash128IsDigestPrefix) {
  const auto digest = Sha1::hash("kosha");
  const Uint128 key = Sha1::hash128("kosha");
  std::array<std::uint8_t, 16> prefix{};
  std::copy(digest.begin(), digest.begin() + 16, prefix.begin());
  EXPECT_EQ(key, Uint128::from_bytes(prefix));
}

class Sha1Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Sha1Property, StreamingMatchesOneShot) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t length = rng.next_below(5000);
    std::string data;
    data.reserve(length);
    for (std::size_t i = 0; i < length; ++i) {
      data.push_back(static_cast<char>(rng.next_below(256)));
    }
    Sha1 streaming;
    std::size_t offset = 0;
    while (offset < data.size()) {
      const std::size_t chunk = std::min<std::size_t>(1 + rng.next_below(97),
                                                      data.size() - offset);
      streaming.update(std::string_view(data).substr(offset, chunk));
      offset += chunk;
    }
    EXPECT_EQ(hex_digest(streaming.digest()), hex_digest(Sha1::hash(data)));
  }
}

TEST_P(Sha1Property, DistinctShortNamesDistinctKeys) {
  Rng rng(GetParam());
  std::set<std::string> names;
  std::set<std::string> keys;
  for (int i = 0; i < 500; ++i) {
    const std::string name = rng.next_name(8);
    names.insert(name);
    keys.insert(Sha1::hash128(name).to_hex());
  }
  EXPECT_EQ(names.size(), keys.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, Sha1Property, ::testing::Values(5, 6, 7));

}  // namespace
}  // namespace kosha
