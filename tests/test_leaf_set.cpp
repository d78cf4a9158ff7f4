// Pastry leaf-set unit + property tests: membership maintenance, coverage,
// numerically-closest selection, and replica-target ordering.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "pastry/leaf_set.hpp"

namespace kosha::pastry {
namespace {

NodeId id_at(std::uint64_t low) { return {0, low}; }

TEST(LeafSet, InsertSplitsSides) {
  LeafSet ls(id_at(100), 2);
  EXPECT_TRUE(ls.insert(id_at(90)));
  EXPECT_TRUE(ls.insert(id_at(110)));
  EXPECT_EQ(ls.side(false), std::vector<NodeId>{id_at(90)});
  EXPECT_EQ(ls.side(true), std::vector<NodeId>{id_at(110)});
}

TEST(LeafSet, RejectsOwnerAndDuplicates) {
  LeafSet ls(id_at(100), 2);
  EXPECT_FALSE(ls.insert(id_at(100)));
  EXPECT_TRUE(ls.insert(id_at(90)));
  EXPECT_FALSE(ls.insert(id_at(90)));
  EXPECT_EQ(ls.size(), 1u);
}

TEST(LeafSet, EvictsFarthestWhenFull) {
  LeafSet ls(id_at(100), 2);
  EXPECT_TRUE(ls.insert(id_at(80)));
  EXPECT_TRUE(ls.insert(id_at(70)));
  // 95 is closer than both: evicts 70 (farthest on the smaller side).
  EXPECT_TRUE(ls.insert(id_at(95)));
  EXPECT_TRUE(ls.contains(id_at(95)));
  EXPECT_TRUE(ls.contains(id_at(80)));
  EXPECT_FALSE(ls.contains(id_at(70)));
  // 60 is farther than everything: rejected.
  EXPECT_FALSE(ls.insert(id_at(60)));
}

TEST(LeafSet, RemoveMakesRoom) {
  LeafSet ls(id_at(100), 1);
  EXPECT_TRUE(ls.insert(id_at(90)));
  EXPECT_FALSE(ls.insert(id_at(80)));
  EXPECT_TRUE(ls.remove(id_at(90)));
  EXPECT_FALSE(ls.remove(id_at(90)));
  EXPECT_TRUE(ls.insert(id_at(80)));
}

TEST(LeafSet, UnderfullCoversEverything) {
  LeafSet ls(id_at(100), 4);
  (void)ls.insert(id_at(90));
  EXPECT_TRUE(ls.underfull());
  EXPECT_TRUE(ls.covers(id_at(999'999)));
}

TEST(LeafSet, FullSetCoversOnlyItsSpan) {
  LeafSet ls(id_at(100), 1);
  (void)ls.insert(id_at(90));
  (void)ls.insert(id_at(110));
  EXPECT_FALSE(ls.underfull());
  EXPECT_TRUE(ls.covers(id_at(95)));
  EXPECT_TRUE(ls.covers(id_at(110)));
  EXPECT_FALSE(ls.covers(id_at(120)));
  EXPECT_FALSE(ls.covers(id_at(11)));
}

TEST(LeafSet, ClosestToPicksMinimumDistance) {
  LeafSet ls(id_at(100), 2);
  (void)ls.insert(id_at(90));
  (void)ls.insert(id_at(110));
  (void)ls.insert(id_at(130));
  EXPECT_EQ(ls.closest_to(id_at(89)), id_at(90));
  EXPECT_EQ(ls.closest_to(id_at(101)), id_at(100));
  EXPECT_EQ(ls.closest_to(id_at(124)), id_at(130));
}

TEST(LeafSet, AlternatingMembersInterleavesSides) {
  LeafSet ls(id_at(100), 3);
  (void)ls.insert(id_at(95));
  (void)ls.insert(id_at(90));
  (void)ls.insert(id_at(103));
  (void)ls.insert(id_at(110));
  const auto targets = ls.alternating_members(4);
  ASSERT_EQ(targets.size(), 4u);
  EXPECT_EQ(targets[0], id_at(103));  // overall closest
  EXPECT_EQ(targets[1], id_at(95));   // closest on the other side
  EXPECT_EQ(targets[2], id_at(110));
  EXPECT_EQ(targets[3], id_at(90));
}

TEST(LeafSet, AlternatingMembersDrainsExhaustedSide) {
  LeafSet ls(id_at(100), 3);
  (void)ls.insert(id_at(103));
  (void)ls.insert(id_at(110));
  (void)ls.insert(id_at(120));
  const auto targets = ls.alternating_members(3);
  EXPECT_EQ(targets, (std::vector<NodeId>{id_at(103), id_at(110), id_at(120)}));
}

class LeafSetProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LeafSetProperty, KeepsTheClosestOnEachSide) {
  Rng rng(GetParam());
  const NodeId owner = rng.next_id();
  constexpr unsigned kHalf = 4;
  LeafSet ls(owner, kHalf);
  std::vector<NodeId> all;
  for (int i = 0; i < 200; ++i) {
    const NodeId id = rng.next_id();
    all.push_back(id);
    (void)ls.insert(id);
  }
  // Brute-force the expected sides.
  std::vector<NodeId> smaller = all;
  std::sort(smaller.begin(), smaller.end(),
            [&](NodeId a, NodeId b) { return (owner - a) < (owner - b); });
  std::vector<NodeId> larger = all;
  std::sort(larger.begin(), larger.end(),
            [&](NodeId a, NodeId b) { return (a - owner) < (b - owner); });
  // With 200 random ids, side assignment matches pure direction (no id is
  // near the antipode by chance with overwhelming probability).
  for (unsigned i = 0; i < kHalf; ++i) {
    EXPECT_TRUE(ls.contains(smaller[i])) << "missing close smaller neighbor";
    EXPECT_TRUE(ls.contains(larger[i])) << "missing close larger neighbor";
  }
  EXPECT_EQ(ls.size(), 2 * kHalf);
}

TEST_P(LeafSetProperty, ClosestToMatchesBruteForce) {
  Rng rng(GetParam());
  const NodeId owner = rng.next_id();
  LeafSet ls(owner, 8);
  std::vector<NodeId> members{owner};
  for (int i = 0; i < 16; ++i) {
    const NodeId id = rng.next_id();
    if (ls.insert(id)) members.push_back(id);
  }
  // Re-collect the actual membership (eviction may have dropped some).
  members.assign(ls.members().begin(), ls.members().end());
  members.push_back(owner);
  for (int trial = 0; trial < 100; ++trial) {
    const Key key = rng.next_id();
    const NodeId expected = *std::min_element(
        members.begin(), members.end(), [&](NodeId a, NodeId b) {
          const auto da = ring_distance(a, key);
          const auto db = ring_distance(b, key);
          return da != db ? da < db : a < b;
        });
    EXPECT_EQ(ls.closest_to(key), expected);
  }
}

// Reference leaf set: one vector per side, each closest-first, with the
// queries written out directly. LeafSet keeps both sides in one array; it
// must answer every query exactly as this does.
class ReferenceLeafSet {
 public:
  ReferenceLeafSet(NodeId owner, unsigned half) : owner_(owner), half_(half) {}

  bool insert(NodeId id) {
    if (id == owner_ || contains(id)) return false;
    const Uint128 down = owner_ - id;
    const Uint128 up = id - owner_;
    const bool larger_side = up <= down;
    auto& side = larger_side ? larger_ : smaller_;
    auto offset_of = [&](NodeId n) { return larger_side ? n - owner_ : owner_ - n; };
    const Uint128 offset = larger_side ? up : down;
    const auto pos = std::find_if(side.begin(), side.end(),
                                  [&](NodeId n) { return offset < offset_of(n); });
    if (pos == side.end() && side.size() >= half_) return false;
    side.insert(pos, id);
    if (side.size() > half_) side.pop_back();
    return true;
  }

  bool remove(NodeId id) {
    for (auto* side : {&smaller_, &larger_}) {
      const auto it = std::find(side->begin(), side->end(), id);
      if (it != side->end()) {
        side->erase(it);
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] bool contains(NodeId id) const {
    return std::find(smaller_.begin(), smaller_.end(), id) != smaller_.end() ||
           std::find(larger_.begin(), larger_.end(), id) != larger_.end();
  }

  [[nodiscard]] std::vector<NodeId> members() const {
    std::vector<NodeId> out = smaller_;
    out.insert(out.end(), larger_.begin(), larger_.end());
    return out;
  }

  [[nodiscard]] std::vector<NodeId> side(bool larger) const { return larger ? larger_ : smaller_; }

  [[nodiscard]] bool covers(Key key) const {
    if (smaller_.size() < half_ || larger_.size() < half_) return true;
    return in_clockwise_range(key, smaller_.back(), larger_.back());
  }

  [[nodiscard]] NodeId closest_to(Key key) const {
    NodeId best = owner_;
    for (const NodeId id : members()) {
      if (closer(key, id, best)) best = id;
    }
    return best;
  }

  [[nodiscard]] std::vector<NodeId> closest_members(std::size_t k) const {
    std::vector<NodeId> out = members();
    std::sort(out.begin(), out.end(), [&](NodeId a, NodeId b) { return closer(owner_, a, b); });
    if (out.size() > k) out.resize(k);
    return out;
  }

  [[nodiscard]] std::vector<NodeId> alternating_members(std::size_t k) const {
    std::vector<NodeId> out;
    std::size_t si = 0;
    std::size_t li = 0;
    bool take_larger = !larger_.empty() &&
                       (smaller_.empty() || closer(owner_, larger_.front(), smaller_.front()));
    while (out.size() < k && (si < smaller_.size() || li < larger_.size())) {
      if (take_larger && li < larger_.size()) {
        out.push_back(larger_[li++]);
      } else if (!take_larger && si < smaller_.size()) {
        out.push_back(smaller_[si++]);
      }
      take_larger = !take_larger;
      if (si >= smaller_.size()) take_larger = true;
      if (li >= larger_.size()) take_larger = false;
    }
    return out;
  }

 private:
  static bool closer(Key target, NodeId a, NodeId b) {
    const Uint128 da = ring_distance(a, target);
    const Uint128 db = ring_distance(b, target);
    return da != db ? da < db : a < b;
  }

  NodeId owner_;
  unsigned half_;
  std::vector<NodeId> smaller_;
  std::vector<NodeId> larger_;
};

TEST_P(LeafSetProperty, MatchesTwoVectorReferenceUnderInsertAndRemove) {
  Rng rng(GetParam());
  const NodeId owner = rng.next_id();
  for (const unsigned half : {1u, 2u, 4u, 8u}) {
    LeafSet ls(owner, half);
    ReferenceLeafSet ref(owner, half);
    // A pool small enough that removes often hit members, plus ids right
    // around the antipode (where side assignment ties) and next to the owner.
    std::vector<NodeId> pool;
    pool.reserve(53);
    for (int i = 0; i < 40; ++i) pool.push_back(rng.next_id());
    const NodeId antipode = owner + Uint128{std::uint64_t{1} << 63, 0};
    for (std::uint64_t d = 0; d < 3; ++d) {
      pool.push_back(antipode + Uint128{0, d});
      pool.push_back(antipode - Uint128{0, d + 1});
      pool.push_back(owner + Uint128{0, d + 1});
      pool.push_back(owner - Uint128{0, d + 1});
    }
    pool.push_back(owner);
    for (int step = 0; step < 600; ++step) {
      const NodeId id = pool[rng.next_below(pool.size())];
      if (rng.next_below(3) == 0) {
        ASSERT_EQ(ls.remove(id), ref.remove(id)) << "step " << step;
      } else {
        ASSERT_EQ(ls.insert(id), ref.insert(id)) << "step " << step;
      }
      const std::vector<NodeId> members(ls.members().begin(), ls.members().end());
      ASSERT_EQ(members, ref.members()) << "step " << step;
      ASSERT_EQ(ls.size(), members.size());
      ASSERT_EQ(ls.side(false), ref.side(false));
      ASSERT_EQ(ls.side(true), ref.side(true));
      for (const NodeId m : pool) ASSERT_EQ(ls.contains(m), ref.contains(m));
      for (std::size_t k = 0; k <= 2 * half + 1; ++k) {
        ASSERT_EQ(ls.closest_members(k), ref.closest_members(k)) << "k " << k;
        ASSERT_EQ(ls.alternating_members(k), ref.alternating_members(k)) << "k " << k;
      }
      for (int trial = 0; trial < 4; ++trial) {
        const Key key = trial == 0 ? pool[rng.next_below(pool.size())] : rng.next_id();
        ASSERT_EQ(ls.covers(key), ref.covers(key)) << "step " << step;
        ASSERT_EQ(ls.closest_to(key), ref.closest_to(key)) << "step " << step;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeafSetProperty, ::testing::Values(31, 32, 33, 34, 35));

}  // namespace
}  // namespace kosha::pastry
