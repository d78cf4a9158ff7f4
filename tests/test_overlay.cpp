// Pastry overlay integration tests: joins, routing consistency against the
// ground-truth ring, hop-count scaling, failure repair, and callbacks.

#include <gtest/gtest.h>

#include <set>

#include "common/event_loop.hpp"
#include "common/rng.hpp"
#include "net/sim_network.hpp"
#include "pastry/failure_detector.hpp"
#include "pastry/overlay.hpp"

namespace kosha::pastry {
namespace {

struct Fixture {
  SimClock clock;
  net::SimNetwork network{{}, &clock};
  PastryOverlay overlay{{}, &network};
  Rng rng;

  explicit Fixture(std::uint64_t seed) : rng(seed) {}

  NodeId join_one() {
    const NodeId id = rng.next_id();
    overlay.join(id, network.add_host());
    return id;
  }
  std::vector<NodeId> join(std::size_t n) {
    std::vector<NodeId> ids;
    for (std::size_t i = 0; i < n; ++i) ids.push_back(join_one());
    return ids;
  }
};

TEST(Overlay, SingleNodeOwnsAllKeys) {
  Fixture fx(1);
  const NodeId only = fx.join_one();
  for (int i = 0; i < 10; ++i) {
    const auto result = fx.overlay.route(0, fx.rng.next_id());
    EXPECT_EQ(result.owner, only);
    EXPECT_EQ(result.hops, 0u);
  }
}

TEST(Overlay, DuplicateJoinRejected) {
  Fixture fx(2);
  const NodeId id = fx.join_one();
  EXPECT_THROW(fx.overlay.join(id, fx.network.add_host()), std::invalid_argument);
}

TEST(Overlay, OneNodePerHost) {
  Fixture fx(3);
  (void)fx.join_one();
  EXPECT_THROW(fx.overlay.join(fx.rng.next_id(), 0), std::invalid_argument);
}

TEST(Overlay, HostNodeMapping) {
  Fixture fx(4);
  const auto ids = fx.join(4);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(fx.overlay.host_of(ids[i]), static_cast<net::HostId>(i));
    EXPECT_EQ(fx.overlay.node_on_host(static_cast<net::HostId>(i)), ids[i]);
    EXPECT_TRUE(fx.overlay.host_has_node(static_cast<net::HostId>(i)));
  }
}

class OverlayRouting : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OverlayRouting, RouteAgreesWithGroundTruth) {
  Fixture fx(GetParam() * 7 + 1);
  fx.join(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const Key key = fx.rng.next_id();
    const net::HostId from = static_cast<net::HostId>(fx.rng.next_below(GetParam()));
    const auto result = fx.overlay.route(from, key);
    EXPECT_EQ(result.owner, fx.overlay.ring().owner(key)) << "key " << key.to_hex();
  }
}

TEST_P(OverlayRouting, TraceRouteMatchesRoute) {
  Fixture fx(GetParam() * 11 + 3);
  fx.join(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const Key key = fx.rng.next_id();
    const NodeId from = fx.overlay.node_on_host(0);
    const auto traced = fx.overlay.trace_route(from, key);
    const auto routed = fx.overlay.route(0, key);
    EXPECT_EQ(traced.owner, routed.owner);
    EXPECT_EQ(traced.hops, routed.hops);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, OverlayRouting, ::testing::Values(2, 3, 8, 16, 64, 200));

TEST(Overlay, HopCountScalesLogarithmically) {
  Fixture fx(99);
  fx.join(256);
  double total_hops = 0;
  const int trials = 300;
  for (int i = 0; i < trials; ++i) {
    total_hops += fx.overlay.route(0, fx.rng.next_id()).hops;
  }
  // log16(256) = 2; leaf sets shortcut further. Generous upper bound.
  EXPECT_LE(total_hops / trials, 4.0);
  EXPECT_GE(total_hops / trials, 0.5);
}

TEST(Overlay, RoutingSurvivesFailures) {
  Fixture fx(123);
  auto ids = fx.join(32);
  // Fail a third of the nodes (but keep host 0's node for routing).
  std::set<std::size_t> dead;
  while (dead.size() < 10) {
    const std::size_t victim = 1 + fx.rng.next_below(31);
    if (dead.insert(victim).second) fx.overlay.fail(ids[victim]);
  }
  EXPECT_EQ(fx.overlay.live_count(), 22u);
  for (int trial = 0; trial < 200; ++trial) {
    const Key key = fx.rng.next_id();
    const auto result = fx.overlay.route(0, key);
    EXPECT_EQ(result.owner, fx.overlay.ring().owner(key));
  }
}

TEST(Overlay, LeafSetsMatchGroundTruthAfterChurn) {
  Fixture fx(321);
  auto ids = fx.join(40);
  // Interleave failures and joins.
  for (int round = 0; round < 10; ++round) {
    // Fail a random live node (not host 0's).
    for (int attempts = 0; attempts < 100; ++attempts) {
      const NodeId victim = ids[1 + fx.rng.next_below(ids.size() - 1)];
      if (fx.overlay.is_live(victim)) {
        fx.overlay.fail(victim);
        break;
      }
    }
    ids.push_back(fx.join_one());
  }
  // Every live node's leaf set must hold exactly its ring neighbors.
  const auto& ring = fx.overlay.ring();
  const unsigned half = fx.overlay.config().leaf_half();
  for (const auto& [id, host] : ring.sorted()) {
    (void)host;
    const auto& leaves = fx.overlay.leaf_set(id);
    const auto expected = ring.neighbors(id, 2 * half);
    // All of the closest `half` neighbors on each side must be present;
    // compare via the 2*half closest overall (a superset of both sides).
    std::size_t present = 0;
    for (const NodeId n : expected) {
      if (leaves.contains(n)) ++present;
    }
    // The leaf set must contain at least the `half` closest overall.
    for (std::size_t i = 0; i < std::min<std::size_t>(half, expected.size()); ++i) {
      EXPECT_TRUE(leaves.contains(expected[i]))
          << "node " << id.to_hex() << " missing close neighbor " << expected[i].to_hex();
    }
    EXPECT_GE(present, std::min<std::size_t>(expected.size(), half));
  }
}

TEST(Overlay, NeighborCallbackFiresOnJoinAndFail) {
  Fixture fx(55);
  const NodeId a = fx.join_one();
  int fired = 0;
  fx.overlay.set_neighbor_callback(a, [&] { ++fired; });
  const NodeId b = fx.join_one();
  EXPECT_GE(fired, 1);
  const int after_join = fired;
  fx.overlay.fail(b);
  EXPECT_GT(fired, after_join);
}

TEST(Overlay, ReplicaTargetsAreLiveAndDistinct) {
  Fixture fx(77);
  auto ids = fx.join(20);
  fx.overlay.fail(ids[5]);
  fx.overlay.fail(ids[6]);
  for (const NodeId id : ids) {
    if (!fx.overlay.is_live(id)) continue;
    const auto targets = fx.overlay.replica_targets(id, 4);
    EXPECT_EQ(targets.size(), 4u);
    std::set<std::string> unique;
    for (const NodeId t : targets) {
      EXPECT_TRUE(fx.overlay.is_live(t));
      EXPECT_NE(t, id);
      unique.insert(t.to_hex());
    }
    EXPECT_EQ(unique.size(), targets.size());
  }
}

TEST(Overlay, ReplicaTargetsStraddleTheRing) {
  // With K >= 2, the two immediate ring neighbors must both be targets so
  // a failed primary's key range is always covered by a replica.
  Fixture fx(88);
  auto ids = fx.join(24);
  const auto& ring = fx.overlay.ring();
  for (const NodeId id : ids) {
    const auto targets = fx.overlay.replica_targets(id, 2);
    ASSERT_EQ(targets.size(), 2u);
    // Immediate neighbors: one on each side.
    const auto sorted = ring.sorted();
    std::size_t index = 0;
    while (sorted[index].first != id) ++index;
    const NodeId prev = sorted[(index + sorted.size() - 1) % sorted.size()].first;
    const NodeId next = sorted[(index + 1) % sorted.size()].first;
    const bool has_prev = targets[0] == prev || targets[1] == prev;
    const bool has_next = targets[0] == next || targets[1] == next;
    EXPECT_TRUE(has_prev && has_next) << "targets do not straddle node " << id.to_hex();
  }
}

TEST(Overlay, FailedHostLosesItsNode) {
  Fixture fx(66);
  const auto ids = fx.join(3);
  fx.overlay.fail(ids[1]);
  EXPECT_FALSE(fx.overlay.host_has_node(1));
  EXPECT_THROW((void)fx.overlay.node_on_host(1), std::invalid_argument);
  EXPECT_FALSE(fx.overlay.is_live(ids[1]));
  // Failing twice is harmless.
  fx.overlay.fail(ids[1]);
}

// The node index behind is_live/node/detector: every id stays findable,
// and unknown ids stay unknown, as the table grows from 1 to 10k ids.
TEST(Overlay, NodeIndexHoldsAcrossGrowth) {
  Fixture fx(45);
  EventLoop loop(&fx.clock, 46);
  fx.network.set_event_loop(&loop);
  // Hand-written ids that differ only in the high half or only in the
  // low half, then uniform ones.
  std::vector<NodeId> ids;
  ids.reserve(10'000);
  for (std::uint64_t i = 1; i <= 64; ++i) ids.push_back({i << 56, 0});
  for (std::uint64_t i = 1; i <= 64; ++i) ids.push_back({0, i});
  while (ids.size() < 10'000) ids.push_back(fx.rng.next_id());
  Rng other(47);
  std::vector<NodeId> unknown;
  unknown.reserve(66);
  for (int i = 0; i < 64; ++i) unknown.push_back(other.next_id());
  unknown.push_back({65ull << 56, 0});
  unknown.push_back({0, 65});

  // A detector registered on the first node must resolve through every
  // growth of the table.
  FailureDetector detector({}, &fx.overlay, &fx.network, &loop, ids[0], 0, 1);
  std::size_t next_check = 1;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    fx.overlay.join(ids[i], fx.network.add_host());
    if (i == 0) fx.overlay.set_detector(ids[0], &detector);
    if (i + 1 != next_check && i + 1 != ids.size()) continue;
    next_check = 2 * next_check + 1;
    for (std::size_t j = 0; j <= i; ++j) {
      ASSERT_TRUE(fx.overlay.is_live(ids[j])) << "after " << i + 1 << " joins";
      ASSERT_EQ(fx.overlay.host_of(ids[j]), static_cast<net::HostId>(j));
      ASSERT_EQ(fx.overlay.node_on_host(static_cast<net::HostId>(j)), ids[j]);
      ASSERT_EQ(fx.overlay.detector(ids[j]), j == 0 ? &detector : nullptr);
    }
    for (const NodeId id : unknown) {
      ASSERT_FALSE(fx.overlay.is_live(id));
      ASSERT_EQ(fx.overlay.detector(id), nullptr);
      ASSERT_THROW((void)fx.overlay.host_of(id), std::invalid_argument);
      ASSERT_THROW((void)fx.overlay.leaf_set(id), std::invalid_argument);
    }
  }
  EXPECT_EQ(fx.overlay.live_count(), ids.size());
  // Duplicates are still rejected, whichever end of the table they hit.
  EXPECT_THROW(fx.overlay.join(ids[0], fx.network.add_host()), std::invalid_argument);
  EXPECT_THROW(fx.overlay.join(ids[70], fx.network.add_host()), std::invalid_argument);
  EXPECT_THROW(fx.overlay.join(ids.back(), fx.network.add_host()), std::invalid_argument);
  fx.overlay.set_detector(ids[0], nullptr);
}

TEST(Overlay, MarkDeadClearsLivenessDetectorAndHost) {
  Fixture fx(48);
  EventLoop loop(&fx.clock, 49);
  fx.network.set_event_loop(&loop);
  const auto ids = fx.join(5);
  FailureDetector detector({}, &fx.overlay, &fx.network, &loop, ids[2], 2, 1);
  fx.overlay.set_detector(ids[2], &detector);
  ASSERT_EQ(fx.overlay.detector(ids[2]), &detector);

  fx.overlay.mark_dead(ids[2]);
  EXPECT_FALSE(fx.overlay.is_live(ids[2]));
  EXPECT_EQ(fx.overlay.detector(ids[2]), nullptr);
  // A dead node resolves to no detector even if one is registered late.
  fx.overlay.set_detector(ids[2], &detector);
  EXPECT_EQ(fx.overlay.detector(ids[2]), nullptr);
  EXPECT_FALSE(fx.overlay.host_has_node(2));
  EXPECT_THROW((void)fx.overlay.node_on_host(2), std::invalid_argument);
  // The node stays known: its host is still on record, and its id can
  // never join again.
  EXPECT_EQ(fx.overlay.host_of(ids[2]), 2u);
  EXPECT_THROW(fx.overlay.join(ids[2], fx.network.add_host()), std::invalid_argument);
  // Its host may run a fresh node.
  const NodeId fresh = fx.rng.next_id();
  fx.overlay.join(fresh, 2);
  EXPECT_EQ(fx.overlay.node_on_host(2), fresh);
  EXPECT_FALSE(fx.overlay.is_live(ids[2]));
  for (const std::size_t i : {0u, 1u, 3u, 4u}) EXPECT_TRUE(fx.overlay.is_live(ids[i]));
  // Unknown ids still throw.
  EXPECT_THROW(fx.overlay.mark_dead(fx.rng.next_id()), std::invalid_argument);
}

TEST(Overlay, RouteChargesNetworkTime) {
  Fixture fx(44);
  fx.join(16);
  const auto before = fx.clock.now();
  std::uint64_t hops = 0;
  for (int i = 0; i < 50; ++i) hops += fx.overlay.route(0, fx.rng.next_id()).hops;
  if (hops > 0) {
    EXPECT_GT(fx.clock.now().ns, before.ns);
  }
  EXPECT_GE(fx.network.stats().overlay_hops, hops);
}

}  // namespace
}  // namespace kosha::pastry
