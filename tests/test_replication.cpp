// Replication manager tests (paper §4.2-§4.4): replica establishment,
// mutation mirroring, delete propagation, promotion on failure, key-space
// migration on join, revival purge, the MIGRATION_NOT_COMPLETE repair
// protocol (exercised with fault injection), the anchor lookup that
// decides which mutations get mirrored, and the background timing of the
// mirror fan-out.

#include <gtest/gtest.h>

#include "common/cli.hpp"
#include "common/path.hpp"
#include "common/rng.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "kosha/placement.hpp"
#include "sim/concurrency_driver.hpp"

namespace kosha {
namespace {

/// CI re-runs this suite with KOSHA_TEST_BACKEND=cas to prove the whole
/// stack is backend-agnostic; default (unset/flat) runs are untouched.
void apply_test_backend(ClusterConfig* config) {
  fs::BackendKind backend = fs::BackendKind::kFlat;
  if (fs::parse_backend(env_or("KOSHA_TEST_BACKEND", "flat"), &backend)) {
    config->kosha.storage.backend = backend;
  }
}

ClusterConfig config_for(std::size_t nodes, unsigned replicas, std::uint64_t seed = 7) {
  ClusterConfig config;
  config.nodes = nodes;
  config.kosha.distribution_level = 1;
  config.kosha.replicas = replicas;
  config.node_capacity_bytes = 1ull << 30;
  config.seed = seed;
  apply_test_backend(&config);
  return config;
}

/// Host storing the primary copy of `path`, as seen by `client`.
net::HostId primary_host(KoshaCluster& cluster, net::HostId client, std::string_view path) {
  KoshaMount mount(&cluster.daemon(client));
  const auto vh = mount.resolve(path);
  EXPECT_TRUE(vh.ok());
  return cluster.daemon(client).handle_table().find(*vh)->real.server;
}

/// Count live replica copies of `stored_path` owned by `primary_id`.
int replica_copies(KoshaCluster& cluster, pastry::NodeId primary_id,
                   const std::string& stored_path) {
  int copies = 0;
  for (const net::HostId host : cluster.live_hosts()) {
    const auto& store = cluster.server(host).store();
    if (store.resolve(ReplicaManager::hidden_root(primary_id) + stored_path).ok()) ++copies;
  }
  return copies;
}

TEST(Replication, PrimaryKeepsKReplicas) {
  KoshaCluster cluster(config_for(8, 3));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/data").ok());
  ASSERT_TRUE(mount.write_file("/data/f", "replicated").ok());

  const net::HostId primary = primary_host(cluster, 0, "/data");
  const pastry::NodeId primary_id = cluster.node_id(primary);
  EXPECT_EQ(cluster.replicas(primary).targets().size(), 3u);
  const std::string stored = stored_path({"data", "f"}, 1, "data");
  EXPECT_EQ(replica_copies(cluster, primary_id, stored), 3);
}

TEST(Replication, MirroredWritesMatchPrimaryContent) {
  KoshaCluster cluster(config_for(6, 2));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/m").ok());
  ASSERT_TRUE(mount.write_file("/m/f", "version-1").ok());
  ASSERT_TRUE(mount.write_file("/m/f", "version-2-longer").ok());

  const net::HostId primary = primary_host(cluster, 0, "/m");
  const pastry::NodeId primary_id = cluster.node_id(primary);
  const std::string stored = stored_path({"m", "f"}, 1, "m");
  int verified = 0;
  for (const pastry::NodeId target : cluster.replicas(primary).targets()) {
    auto& store = cluster.server(cluster.overlay().host_of(target)).store();
    const auto inode = store.resolve(ReplicaManager::hidden_root(primary_id) + stored);
    ASSERT_TRUE(inode.ok());
    EXPECT_EQ(store.read(*inode, 0, 100).value(), "version-2-longer");
    ++verified;
  }
  EXPECT_EQ(verified, 2);
}

TEST(Replication, DeletePropagatesToReplicas) {
  KoshaCluster cluster(config_for(6, 2));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/del").ok());
  ASSERT_TRUE(mount.write_file("/del/f", "doomed").ok());
  const net::HostId primary = primary_host(cluster, 0, "/del");
  const pastry::NodeId primary_id = cluster.node_id(primary);
  const std::string stored = stored_path({"del", "f"}, 1, "del");
  ASSERT_EQ(replica_copies(cluster, primary_id, stored), 2);

  ASSERT_TRUE(mount.remove("/del/f").ok());
  EXPECT_EQ(replica_copies(cluster, primary_id, stored), 0);
}

TEST(Replication, RenameMirroredOnReplicas) {
  KoshaCluster cluster(config_for(6, 1));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/rn").ok());
  ASSERT_TRUE(mount.write_file("/rn/old", "x").ok());
  ASSERT_TRUE(mount.rename("/rn/old", "/rn/new").ok());
  const net::HostId primary = primary_host(cluster, 0, "/rn");
  const pastry::NodeId primary_id = cluster.node_id(primary);
  EXPECT_EQ(replica_copies(cluster, primary_id, stored_path({"rn", "old"}, 1, "rn")), 0);
  EXPECT_EQ(replica_copies(cluster, primary_id, stored_path({"rn", "new"}, 1, "rn")), 1);
}

TEST(Replication, PromotionAfterPrimaryFailure) {
  KoshaCluster cluster(config_for(8, 2));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/ha").ok());
  ASSERT_TRUE(mount.write_file("/ha/f", "survives").ok());
  net::HostId primary = primary_host(cluster, 0, "/ha");
  if (primary == 0) {
    // Use a different client so we can kill the primary.
    primary = primary_host(cluster, 1, "/ha");
  }
  ASSERT_NE(primary, 0u);
  cluster.fail_node(primary);

  // Some live node must now be primary for the anchor, with live content.
  const net::HostId new_primary = primary_host(cluster, 0, "/ha");
  EXPECT_NE(new_primary, primary);
  EXPECT_TRUE(cluster.is_up(new_primary));
  EXPECT_EQ(mount.read_file("/ha/f").value(), "survives");
  // And the new primary re-established K replicas.
  EXPECT_EQ(cluster.replicas(new_primary).targets().size(), 2u);
}

TEST(Replication, SequentialFailuresUpToK) {
  KoshaCluster cluster(config_for(10, 2, 21));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/multi").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(mount.write_file("/multi/f" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  // Kill primaries twice in a row; K=2 with re-replication tolerates this.
  for (int round = 0; round < 2; ++round) {
    const net::HostId primary = primary_host(cluster, 0, "/multi");
    if (primary == 0) break;  // cannot kill the client host in this test
    cluster.fail_node(primary);
    for (int i = 0; i < 10; ++i) {
      const auto content = mount.read_file("/multi/f" + std::to_string(i));
      ASSERT_TRUE(content.ok()) << "round " << round << " file " << i;
      EXPECT_EQ(content.value(), "v" + std::to_string(i));
    }
  }
}

TEST(Replication, NoReplicasMeansDataLossOnFailure) {
  KoshaCluster cluster(config_for(6, 0));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/fragile").ok());
  ASSERT_TRUE(mount.write_file("/fragile/f", "gone").ok());
  const net::HostId primary = primary_host(cluster, 0, "/fragile");
  if (primary != 0) {
    cluster.fail_node(primary);
    EXPECT_FALSE(mount.read_file("/fragile/f").ok());
  }
}

TEST(Replication, JoinMigratesOwnershipAndDemotesOldCopy) {
  KoshaCluster cluster(config_for(3, 1, 5));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/mig").ok());
  ASSERT_TRUE(mount.write_file("/mig/f", "follows the key space").ok());

  // Add nodes until ownership of the anchor moves.
  const net::HostId before = primary_host(cluster, 0, "/mig");
  net::HostId after = before;
  for (int i = 0; i < 12 && after == before; ++i) {
    (void)cluster.add_node();
    after = cluster.overlay().host_of(
        cluster.overlay().ring().owner(key_for_name("mig")));
  }
  if (after != before) {
    // The daemon's next access transparently reaches the new primary.
    EXPECT_EQ(mount.read_file("/mig/f").value(), "follows the key space");
    EXPECT_EQ(primary_host(cluster, 0, "/mig"), after);
    EXPECT_EQ(cluster.replicas(after).primaries().count(stored_path({"mig"}, 1, "mig")), 1u);
    EXPECT_EQ(cluster.replicas(before).primaries().count(stored_path({"mig"}, 1, "mig")), 0u);
  }
}

TEST(Replication, RevivedNodeIsPurged) {
  KoshaCluster cluster(config_for(6, 1, 9));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/purge").ok());
  ASSERT_TRUE(mount.write_file("/purge/f", "x").ok());
  const net::HostId primary = primary_host(cluster, 0, "/purge");
  if (primary == 0) return;  // can't exercise without killing the client
  cluster.fail_node(primary);
  const std::uint64_t bytes_while_dead = cluster.server(primary).store().used_bytes();
  EXPECT_GT(bytes_while_dead, 0u);  // the dead disk still holds stale data
  cluster.revive_node(primary);
  // The revival purged everything; the node only holds what the overlay
  // has since migrated or replicated to it under its *new* identity.
  auto& store = cluster.server(primary).store();
  const auto root_entries = store.readdir(store.root());
  for (const auto& entry : root_entries.value()) {
    EXPECT_TRUE(entry.name == kAnchorArea || entry.name == kReplicaArea)
        << "unexpected leftover " << entry.name;
  }
  // The file remains readable (served by whichever node now owns the key).
  EXPECT_EQ(mount.read_file("/purge/f").value(), "x");
}

TEST(Replication, InterruptedMigrationLeavesFlagAndRecovers) {
  KoshaCluster cluster(config_for(8, 2, 31));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/flag").ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(mount.write_file("/flag/f" + std::to_string(i), "data").ok());
  }
  const net::HostId primary = primary_host(cluster, 0, "/flag");
  if (primary == 0) return;
  const pastry::NodeId primary_id = cluster.node_id(primary);

  // Interrupt the next replica push midway: the flag must stay behind.
  int countdown = 3;
  cluster.runtime().migration_interrupt = [&]() { return --countdown < 0; };
  // Force a full re-push by flipping a replica target: fail a target node.
  const auto targets = cluster.replicas(primary).targets();
  ASSERT_FALSE(targets.empty());
  const net::HostId target_host = cluster.overlay().host_of(targets.front());
  if (target_host == 0 || target_host == primary) return;
  cluster.fail_node(target_host);
  cluster.runtime().migration_interrupt = nullptr;

  // At least one replica may now carry the MIGRATION_NOT_COMPLETE flag.
  int flagged = 0;
  for (const net::HostId host : cluster.live_hosts()) {
    const auto& store = cluster.server(host).store();
    if (store.resolve(path_child(ReplicaManager::hidden_root(primary_id), kMigrationFlag))
            .ok()) {
      ++flagged;
    }
  }
  // Now kill the primary: promotion must repair from a complete copy and
  // the data must remain readable despite the interrupted migration.
  cluster.fail_node(primary);
  for (int i = 0; i < 6; ++i) {
    const auto content = mount.read_file("/flag/f" + std::to_string(i));
    ASSERT_TRUE(content.ok()) << "file " << i << " (flagged replicas: " << flagged << ")";
    EXPECT_EQ(content.value(), "data");
  }
}

TEST(Replication, HiddenAreaInvisibleToClients) {
  KoshaCluster cluster(config_for(4, 2));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/vis").ok());
  ASSERT_TRUE(mount.write_file("/vis/f", "x").ok());
  const auto listing = mount.list("/");
  ASSERT_TRUE(listing.ok());
  for (const auto& entry : listing.value()) {
    EXPECT_NE(entry.name, kReplicaArea);
    EXPECT_NE(entry.name, kAnchorArea);
    EXPECT_NE(entry.name, kMigrationFlag);
  }
  EXPECT_FALSE(mount.exists("/.r"));
}

TEST(Replication, ReplicasCountAgainstCapacity) {
  ClusterConfig config = config_for(4, 3);
  config.node_capacity_bytes = 1 << 20;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/cap").ok());
  ASSERT_TRUE(mount.write_file("/cap/f", std::string(100 * 1024, 'x')).ok());
  std::uint64_t total = 0;
  for (const net::HostId host : cluster.live_hosts()) {
    total += cluster.server(host).store().used_bytes();
  }
  // Primary + 3 replicas of a 100 KiB file.
  EXPECT_GE(total, 4u * 100 * 1024);
}

/// Brute-force reference for deepest_anchor: scan every anchor and keep
/// the longest one containing the path.
const std::string* scan_deepest_anchor(const AnchorMap& anchors, std::string_view path) {
  const std::string* best = nullptr;
  for (const auto& [anchor, name] : anchors) {
    (void)name;
    if (path_is_within(path, anchor) && (best == nullptr || anchor.size() > best->size())) {
      best = &anchor;
    }
  }
  return best;
}

TEST(ReplicaAnchorLookup, NamedCases) {
  AnchorMap anchors;
  // Nested anchors in one container: /foo and /foo/foo.
  const std::string foo = stored_path({"foo"}, 1, "foo");
  const std::string foo_foo = stored_path({"foo", "foo"}, 2, "foo");
  ASSERT_EQ(foo, "/.a/foo/foo");
  ASSERT_EQ(foo_foo, "/.a/foo/foo/foo");
  anchors[foo] = "foo";
  anchors[foo_foo] = "foo";
  const auto deepest = [&](std::string_view path) {
    const std::string* found = deepest_anchor(anchors, path);
    EXPECT_EQ(found, scan_deepest_anchor(anchors, path)) << path;
    return found == nullptr ? std::string("(none)") : *found;
  };

  EXPECT_EQ(deepest(foo_foo + "/x"), foo_foo);
  EXPECT_EQ(deepest(foo + "/bar/x"), foo);
  // A path equal to an anchor.
  EXPECT_EQ(deepest(foo), foo);
  EXPECT_EQ(deepest(foo_foo), foo_foo);
  // Outside every anchor: a byte-prefix sibling, the container, the hidden
  // replica area, the root.
  EXPECT_EQ(deepest("/.a/foo/food"), "(none)");
  EXPECT_EQ(deepest("/.a/foo"), "(none)");
  EXPECT_EQ(deepest("/.r/00ff/.a/foo/foo"), "(none)");
  EXPECT_EQ(deepest("/"), "(none)");

  // The root anchor covers its own container and nothing else.
  anchors[root_stored_path()] = "/";
  EXPECT_EQ(deepest(root_stored_path()), root_stored_path());
  EXPECT_EQ(deepest(root_stored_path() + "/top"), root_stored_path());
  EXPECT_EQ(deepest("/.a/bar/bar"), "(none)");
  // An anchor at "/" would contain everything, below the deeper anchors.
  anchors["/"] = "/";
  EXPECT_EQ(deepest("/.a/bar/bar"), "/");
  EXPECT_EQ(deepest("/"), "/");
  EXPECT_EQ(deepest(foo_foo + "/x"), foo_foo);
}

TEST(ReplicaAnchorLookup, MatchesLongestContainingScan) {
  // A tiny alphabet, with byte prefixes and a salted name, so anchors nest
  // and collide often.
  static const std::vector<std::string> kNames = {"foo", "fo", "bar", "foo#1"};
  Rng rng(20);
  const auto random_components = [&](std::size_t depth) {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < depth; ++i) out.push_back(kNames[rng.next_below(kNames.size())]);
    return out;
  };
  std::size_t covered = 0;
  std::size_t probed = 0;
  for (int round = 0; round < 50; ++round) {
    // Anchors as placement stores them: a virtual path of depth 1-3,
    // anchored at one of its levels, plus sometimes the root anchor.
    AnchorMap anchors;
    const std::size_t count = rng.next_below(16);
    for (std::size_t i = 0; i < count; ++i) {
      const auto components = random_components(1 + rng.next_below(3));
      const auto level = static_cast<unsigned>(1 + rng.next_below(components.size()));
      const std::string& name = components[level - 1];
      anchors[stored_path(components, level, name)] = name;
    }
    if (rng.next_below(3) == 0) anchors[root_stored_path()] = "/";
    for (const auto& [anchor, name] : anchors) {
      (void)name;
      ASSERT_EQ(normalize_path(anchor), anchor);
    }

    // Probes: every anchor and a path below it, then stored-looking paths
    // in random containers (some under the root container, some in the
    // replica area, which no anchor covers).
    std::vector<std::string> probes = {"/", "/.a", "/.r"};
    for (const auto& [anchor, name] : anchors) {
      probes.push_back(anchor);
      probes.push_back(path_child(anchor, name));
    }
    for (int i = 0; i < 200; ++i) {
      std::vector<std::string> components = {rng.next_below(8) == 0 ? ".r" : ".a"};
      components.push_back(rng.next_below(5) == 0 ? anchor_container("/")
                                                  : kNames[rng.next_below(kNames.size())]);
      for (auto& c : random_components(rng.next_below(5))) components.push_back(std::move(c));
      probes.push_back(join_path(components));
    }
    for (const std::string& probe : probes) {
      const std::string* fast = deepest_anchor(anchors, probe);
      EXPECT_EQ(fast, scan_deepest_anchor(anchors, probe))
          << probe << " -> " << (fast == nullptr ? "(none)" : *fast);
      if (fast != nullptr) ++covered;
      ++probed;
    }
  }
  // Both answers come up often enough to mean something.
  EXPECT_GT(covered, probed / 10);
  EXPECT_LT(covered, probed - probed / 10);
}

TEST(Replication, MirrorOutsideEveryAnchorSendsNothing) {
  KoshaCluster cluster(config_for(6, 2));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/in").ok());
  ASSERT_TRUE(mount.write_file("/in/f", "x").ok());
  ReplicaManager& rm = cluster.replicas(primary_host(cluster, 0, "/in"));
  ASSERT_EQ(rm.targets().size(), 2u);
  const std::string inside = stored_path({"in", "f"}, 1, "in");
  // A path inside the anchor fans out to both targets.
  EXPECT_EQ(rm.mirror_set_mode(inside, 0644), 2u);

  for (const std::string& outside : {std::string("/"), std::string("/.a/in"),
                                     std::string("/.a/in/inx/f"),
                                     stored_path({"out", "f"}, 1, "out")}) {
    EXPECT_EQ(rm.mirror_mkdir_p(outside), 0u) << outside;
    EXPECT_EQ(rm.mirror_create(outside, 0644, 0, 0), 0u) << outside;
    EXPECT_EQ(rm.mirror_write(outside, 0, "x"), 0u) << outside;
    EXPECT_EQ(rm.mirror_truncate(outside, 0), 0u) << outside;
    EXPECT_EQ(rm.mirror_set_mode(outside, 0644), 0u) << outside;
    EXPECT_EQ(rm.mirror_symlink(outside, "/t"), 0u) << outside;
    EXPECT_EQ(rm.mirror_remove(outside), 0u) << outside;
    EXPECT_EQ(rm.mirror_rmdir(outside), 0u) << outside;
    EXPECT_EQ(rm.mirror_remove_recursive(outside), 0u) << outside;
    EXPECT_EQ(rm.mirror_rename(outside, inside + "2"), 0u) << outside;
  }
}

TEST(Replication, BackgroundMirroringNeverDelaysForeground) {
  // Mirroring is asynchronous (paper S4.2): more replicas send more mirror
  // messages, but the client's ops finish at exactly the same instants.
  const auto run = [](unsigned replicas) {
    KoshaCluster cluster(config_for(8, replicas, 42));
    sim::WorkloadConfig workload;
    workload.clients = 1;
    const auto result = sim::run_multi_client_workload(cluster, workload);
    EXPECT_EQ(result.failures, 0u) << "K=" << replicas;
    std::uint64_t mirror_rpcs = 0;
    for (const net::HostId host : cluster.live_hosts()) {
      mirror_rpcs += cluster.replicas(host).mirror_stats().rpcs;
    }
    return std::pair(result.makespan.ns, mirror_rpcs);
  };
  const auto k0 = run(0);
  const auto k1 = run(1);
  const auto k3 = run(3);
  EXPECT_GT(k0.first, 0);
  EXPECT_EQ(k1.first, k0.first);
  EXPECT_EQ(k3.first, k0.first);
  EXPECT_LT(k0.second, k1.second);
  EXPECT_LT(k1.second, k3.second);
}

}  // namespace
}  // namespace kosha
