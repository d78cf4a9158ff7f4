// Routing-table tests: slot placement by shared prefix, next-hop
// selection, removal, and rows stored only as deep as they are filled.

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/rng.hpp"
#include "pastry/routing_table.hpp"

namespace kosha::pastry {
namespace {

const PastryConfig kConfig{};

TEST(RoutingTable, InsertPlacesByPrefixAndDigit) {
  const NodeId owner = Uint128::from_hex("a0000000000000000000000000000000");
  RoutingTable table(owner, kConfig);
  const NodeId peer = Uint128::from_hex("ab000000000000000000000000000000");
  EXPECT_TRUE(table.insert(peer));
  // Shares 1 digit ("a"); next digit of peer is "b".
  EXPECT_EQ(table.entry(1, 0xb), peer);
  EXPECT_EQ(table.size(), 1u);
}

TEST(RoutingTable, RejectsOwnerAndOccupiedSlot) {
  const NodeId owner = Uint128::from_hex("a0000000000000000000000000000000");
  RoutingTable table(owner, kConfig);
  EXPECT_FALSE(table.insert(owner));
  const NodeId first = Uint128::from_hex("b0000000000000000000000000000000");
  const NodeId second = Uint128::from_hex("b1000000000000000000000000000000");
  EXPECT_TRUE(table.insert(first));
  EXPECT_FALSE(table.insert(second));  // same row 0, column 0xb
  EXPECT_TRUE(table.contains(first));
  EXPECT_FALSE(table.contains(second));
}

TEST(RoutingTable, NextHopUsesKeyDigit) {
  const NodeId owner = Uint128::from_hex("a0000000000000000000000000000000");
  RoutingTable table(owner, kConfig);
  const NodeId peer = Uint128::from_hex("c0000000000000000000000000000000");
  (void)table.insert(peer);
  const Key key = Uint128::from_hex("c1234000000000000000000000000000");
  EXPECT_EQ(table.next_hop(key), peer);
  const Key other = Uint128::from_hex("d1234000000000000000000000000000");
  EXPECT_EQ(table.next_hop(other), std::nullopt);
}

TEST(RoutingTable, NextHopForOwnKeyIsEmpty) {
  const NodeId owner = Uint128::from_hex("a0000000000000000000000000000000");
  RoutingTable table(owner, kConfig);
  EXPECT_EQ(table.next_hop(owner), std::nullopt);
}

TEST(RoutingTable, RemoveFreesSlot) {
  const NodeId owner = Uint128::from_hex("a0000000000000000000000000000000");
  RoutingTable table(owner, kConfig);
  const NodeId peer = Uint128::from_hex("b0000000000000000000000000000000");
  (void)table.insert(peer);
  EXPECT_TRUE(table.remove(peer));
  EXPECT_FALSE(table.remove(peer));
  EXPECT_EQ(table.size(), 0u);
  const NodeId replacement = Uint128::from_hex("b1000000000000000000000000000000");
  EXPECT_TRUE(table.insert(replacement));
}

TEST(RoutingTable, EntriesListsAllPopulated) {
  Rng rng(41);
  const NodeId owner = rng.next_id();
  RoutingTable table(owner, kConfig);
  std::size_t inserted = 0;
  for (int i = 0; i < 100; ++i) {
    if (table.insert(rng.next_id())) ++inserted;
  }
  EXPECT_EQ(table.entries().size(), inserted);
  EXPECT_EQ(table.size(), inserted);
  for (const NodeId id : table.entries()) EXPECT_TRUE(table.contains(id));
}

TEST(RoutingTable, NextHopSharesLongerPrefix) {
  // Property: whatever next_hop returns shares strictly more digits with
  // the key than the owner does.
  Rng rng(42);
  const NodeId owner = rng.next_id();
  RoutingTable table(owner, kConfig);
  for (int i = 0; i < 500; ++i) (void)table.insert(rng.next_id());
  for (int trial = 0; trial < 200; ++trial) {
    const Key key = rng.next_id();
    const auto hop = table.next_hop(key);
    if (!hop.has_value()) continue;
    EXPECT_GT(hop->shared_prefix_length(key, 4), owner.shared_prefix_length(key, 4));
  }
}

TEST(RoutingTable, UnfilledRowsReadAsEmpty) {
  const NodeId owner = Uint128::from_hex("a0000000000000000000000000000000");
  RoutingTable table(owner, kConfig);
  EXPECT_EQ(table.depth(), 0u);
  for (unsigned row = 0; row < kConfig.digits(); ++row) {
    for (unsigned column = 0; column < kConfig.columns(); ++column) {
      EXPECT_EQ(table.entry(row, column), std::nullopt);
    }
  }
  // An id whose slot lies in an unstored row: not contained, not removable.
  const NodeId deep = Uint128::from_hex("a0000000000000000000000000000001");
  EXPECT_FALSE(table.contains(deep));
  EXPECT_FALSE(table.remove(deep));
  EXPECT_EQ(table.next_hop(deep), std::nullopt);
  EXPECT_TRUE(table.entries().empty());

  // Filling row 2 stores rows 0..2 only; the rows below it read as empty.
  const NodeId row2 = Uint128::from_hex("a0500000000000000000000000000000");
  ASSERT_TRUE(table.insert(row2));
  EXPECT_EQ(table.depth(), 3u);
  EXPECT_EQ(table.entry(2, 0x5), row2);
  EXPECT_EQ(table.entry(0, 0xb), std::nullopt);
  EXPECT_EQ(table.entry(3, 0x0), std::nullopt);
  EXPECT_EQ(table.entry(kConfig.digits() - 1, 0x1), std::nullopt);
  EXPECT_FALSE(table.contains(deep));
  EXPECT_FALSE(table.remove(deep));
  EXPECT_EQ(table.next_hop(deep), std::nullopt);
  EXPECT_EQ(table.next_hop(Uint128::from_hex("a05f0000000000000000000000000000")), row2);

  // Emptying the deepest row drops it again.
  const NodeId row0 = Uint128::from_hex("b0000000000000000000000000000000");
  ASSERT_TRUE(table.insert(row0));
  ASSERT_TRUE(table.remove(row2));
  EXPECT_EQ(table.depth(), 1u);
  EXPECT_EQ(table.entry(2, 0x5), std::nullopt);
  EXPECT_EQ(table.entries(), std::vector<NodeId>{row0});
  ASSERT_TRUE(table.remove(row0));
  EXPECT_EQ(table.depth(), 0u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(RoutingTable, OutOfRangeSlotThrows) {
  const NodeId owner = Uint128::from_hex("a0000000000000000000000000000000");
  RoutingTable table(owner, kConfig);
  (void)table.insert(Uint128::from_hex("b0000000000000000000000000000000"));
  EXPECT_THROW((void)table.entry(kConfig.digits(), 0), std::out_of_range);
  EXPECT_THROW((void)table.entry(0, kConfig.columns()), std::out_of_range);
  EXPECT_THROW((void)table.entry(5, kConfig.columns()), std::out_of_range);
  EXPECT_NO_THROW((void)table.entry(kConfig.digits() - 1, kConfig.columns() - 1));
}

TEST(RoutingTable, EntriesAreRowMajor) {
  Rng rng(43);
  const NodeId owner = rng.next_id();
  RoutingTable table(owner, kConfig);
  for (int i = 0; i < 2000; ++i) (void)table.insert(rng.next_id());
  std::vector<NodeId> expected;
  for (unsigned row = 0; row < kConfig.digits(); ++row) {
    for (unsigned column = 0; column < kConfig.columns(); ++column) {
      if (const auto e = table.entry(row, column)) expected.push_back(*e);
    }
  }
  EXPECT_EQ(table.entries(), expected);
  EXPECT_EQ(expected.size(), table.size());
}

}  // namespace
}  // namespace kosha::pastry
