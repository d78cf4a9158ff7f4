// Anti-entropy repair daemon: the placement audit re-pushes lost replica
// copies (scrubbing survives even out-of-band store damage), the per-tick
// push budget rate-limits repair traffic, stale copies left by membership
// changes are reclaimed, and the continuous-churn soak converges with
// byte-identical same-seed runs.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "fs/storage_backend.hpp"
#include "kosha/audit.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "kosha/placement.hpp"
#include "nfs/nfs_server.hpp"
#include "sim/availability_sim.hpp"

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

ClusterConfig self_heal_config(std::size_t nodes, std::uint64_t seed) {
  ClusterConfig config;
  config.nodes = nodes;
  config.kosha.replicas = 2;
  config.kosha.distribution_level = 2;
  config.seed = seed;
  config.self_heal.enabled = true;
  apply_test_backend(&config);
  return config;
}

void run_for(KoshaCluster& cluster, SimDuration d) {
  cluster.loop().run_until_time(cluster.clock().now() + d);
}

/// Full store path of the file holding `content`, or empty.
std::string find_path(const fs::StorageBackend& store, fs::InodeId dir, const std::string& prefix,
                      const std::string& content) {
  const auto entries = store.readdir(dir);
  if (!entries.ok()) return {};
  for (const auto& entry : entries.value()) {
    const std::string path = prefix + "/" + entry.name;
    if (entry.type == fs::FileType::kDirectory) {
      if (auto found = find_path(store, entry.inode, path, content); !found.empty()) {
        return found;
      }
    } else if (entry.type == fs::FileType::kFile) {
      const auto data = store.read(entry.inode, 0, 1 << 20);
      if (data.ok() && data.value() == content) return path;
    }
  }
  return {};
}

/// Live hosts holding `content` anywhere in their store.
std::vector<net::HostId> holders(KoshaCluster& cluster, const std::string& content) {
  std::vector<net::HostId> held;
  for (const net::HostId host : cluster.live_hosts()) {
    const fs::StorageBackend& store = cluster.server(host).store();
    if (!find_path(store, store.root(), "", content).empty()) held.push_back(host);
  }
  return held;
}

/// Delete the whole anchor copy containing `content` from `host`'s store
/// (out-of-band damage: no RPC, no replica bookkeeping).
void vandalize_copy(KoshaCluster& cluster, net::HostId host, const std::string& content) {
  fs::StorageBackend& store = cluster.server(host).store();
  const std::string path = find_path(store, store.root(), "", content);
  ASSERT_FALSE(path.empty());
  // path = <hidden root>/<anchor dirs>/<file>; drop the file's directory —
  // the anchor copy — so the placement audit sees the hole.
  const auto file_slash = path.rfind('/');
  const std::string anchor_dir = path.substr(0, file_slash);
  const auto dir_slash = anchor_dir.rfind('/');
  const auto parent = store.resolve(anchor_dir.substr(0, dir_slash));
  ASSERT_TRUE(parent.ok());
  ASSERT_TRUE(store.remove_recursive(parent.value(), anchor_dir.substr(dir_slash + 1)).ok());
}

TEST(RepairDaemon, ScrubRepairsOutOfBandReplicaLoss) {
  KoshaCluster cluster(self_heal_config(8, 81));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/rd/a").ok());
  const std::string content = "scrub-me-81";
  ASSERT_TRUE(mount.write_file("/rd/a/f", content).ok());

  auto held = holders(cluster, content);
  ASSERT_EQ(held.size(), 3u);  // primary + K replicas
  // Damage a *replica* copy (not the primary serving reads).
  const auto vh = mount.resolve("/rd/a/f");
  ASSERT_TRUE(vh.ok());
  const net::HostId primary = cluster.daemon(0).handle_table().find(*vh)->real.server;
  net::HostId victim = net::kInvalidHost;
  for (const net::HostId host : held) {
    if (host != primary) victim = host;
  }
  ASSERT_NE(victim, net::kInvalidHost);
  vandalize_copy(cluster, victim, content);
  ASSERT_EQ(holders(cluster, content).size(), 2u);

  // No membership change happens — only the anti-entropy audit can notice.
  run_for(cluster, SimDuration::seconds(3));
  EXPECT_EQ(holders(cluster, content).size(), 3u);
  std::uint64_t pushed = 0;
  for (const net::HostId host : cluster.live_hosts()) {
    if (const RepairDaemon* d = cluster.repair_daemon(host)) pushed += d->stats().pushed;
  }
  EXPECT_GT(pushed, 0u);
  const auto audit = audit_cluster(cluster);
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(RepairDaemon, PassesAndVerdictsLeaveTheClockAlone) {
  // Background work never moves the clock, with no pause around it: a
  // repair pass re-pushes a lost copy, passes after a crash route the
  // dead primary's anchors to their new owners, and verdicts about it
  // repair leaf sets. All of it is counted.
  KoshaCluster cluster(self_heal_config(8, 81));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/rd/a").ok());
  const std::string content = "scrub-me-81";
  ASSERT_TRUE(mount.write_file("/rd/a/f", content).ok());
  const auto vh = mount.resolve("/rd/a/f");
  ASSERT_TRUE(vh.ok());
  const net::HostId primary = cluster.daemon(0).handle_table().find(*vh)->real.server;
  net::HostId victim = net::kInvalidHost;
  for (const net::HostId host : holders(cluster, content)) {
    if (host != primary) victim = host;
  }
  ASSERT_NE(victim, net::kInvalidHost);
  vandalize_copy(cluster, victim, content);

  RepairDaemon* daemon = cluster.repair_daemon(primary);
  ASSERT_NE(daemon, nullptr);
  const SimDuration before = cluster.clock().now();
  net::NetStats stats = cluster.network().stats();
  daemon->tick();
  EXPECT_EQ(cluster.clock().now().ns, before.ns);
  EXPECT_GT(daemon->stats().pushed, 0u);
  EXPECT_EQ(holders(cluster, content).size(), 3u);
  EXPECT_GT(cluster.network().stats().messages, stats.messages);
  EXPECT_GT(cluster.network().stats().bytes, stats.bytes);

  const pastry::NodeId dead = cluster.node_id(primary);
  const AnchorMap anchors = cluster.replicas(primary).primaries();
  cluster.fail_node(primary);  // self-healing: no verdict yet
  // Passes on the survivors route the dead primary's anchors to their new
  // owners. Non-owners pass first, so a holder that owns nothing routes
  // over the wire and hands its copy off.
  std::set<net::HostId> owners;
  for (const auto& [anchor, name] : anchors) {
    owners.insert(cluster.overlay().host_of(cluster.overlay().ring().owner(key_for_name(name))));
  }
  std::vector<net::HostId> order;
  for (const net::HostId host : cluster.live_hosts()) {
    if (owners.count(host) == 0) order.push_back(host);
  }
  order.insert(order.end(), owners.begin(), owners.end());
  stats = cluster.network().stats();
  std::uint64_t handed_off = 0;
  for (const net::HostId host : order) {
    RepairDaemon* survivor = cluster.repair_daemon(host);
    ASSERT_NE(survivor, nullptr);
    survivor->tick();
    handed_off += survivor->stats().handed_off;
  }
  EXPECT_GT(handed_off, 0u);
  EXPECT_EQ(cluster.clock().now().ns, before.ns);
  EXPECT_GT(cluster.network().stats().overlay_hops, stats.overlay_hops);

  stats = cluster.network().stats();
  std::size_t verdicts = 0;
  for (const net::HostId host : cluster.live_hosts()) {
    const pastry::NodeId observer = cluster.node_id(host);
    if (!cluster.overlay().leaf_set(observer).contains(dead)) continue;
    cluster.overlay().report_failure(observer, dead);
    ++verdicts;
  }
  EXPECT_GT(verdicts, 0u);
  EXPECT_EQ(cluster.clock().now().ns, before.ns);
  EXPECT_GT(cluster.network().stats().messages, stats.messages);
  // A survivor promoted its copy: the file reads back through the ladder.
  EXPECT_EQ(mount.read_file("/rd/a/f").value(), content);
}

TEST(RepairDaemon, ZeroPushBudgetReportsButNeverRepairs) {
  ClusterConfig config = self_heal_config(8, 81);  // same seed: same layout
  config.self_heal.repair.max_pushes_per_tick = 0;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/rd/a").ok());
  const std::string content = "scrub-me-81";
  ASSERT_TRUE(mount.write_file("/rd/a/f", content).ok());

  const auto vh = mount.resolve("/rd/a/f");
  ASSERT_TRUE(vh.ok());
  const net::HostId primary = cluster.daemon(0).handle_table().find(*vh)->real.server;
  net::HostId victim = net::kInvalidHost;
  for (const net::HostId host : holders(cluster, content)) {
    if (host != primary) victim = host;
  }
  ASSERT_NE(victim, net::kInvalidHost);
  vandalize_copy(cluster, victim, content);

  run_for(cluster, SimDuration::seconds(3));
  // The audit keeps *seeing* the hole (missing is reported every pass) but
  // the zero budget forbids the repair push.
  EXPECT_EQ(holders(cluster, content).size(), 2u);
  const RepairDaemon* daemon = cluster.repair_daemon(primary);
  ASSERT_NE(daemon, nullptr);
  EXPECT_GT(daemon->stats().ticks, 0u);
  EXPECT_GE(daemon->stats().last_missing, 1u);
}

TEST(RepairDaemon, StaleCopiesAreReclaimedAfterMembershipChanges) {
  KoshaCluster cluster(self_heal_config(6, 83));
  KoshaMount mount(&cluster.daemon(0));
  std::vector<std::string> contents;
  for (int i = 0; i < 6; ++i) {
    const std::string dir = "/rd/m" + std::to_string(i % 2);
    ASSERT_TRUE(mount.mkdir_p(dir).ok());
    const std::string content = "member-" + std::to_string(i);
    ASSERT_TRUE(mount.write_file(dir + "/f" + std::to_string(i), content).ok());
    contents.push_back(content);
  }

  // Growing the ring shifts replica target sets; old targets keep hidden
  // copies their primaries no longer track until reclamation drops them.
  for (int i = 0; i < 4; ++i) (void)cluster.add_node();
  run_for(cluster, SimDuration::seconds(6));

  std::uint64_t dropped = 0;
  for (const net::HostId host : cluster.live_hosts()) {
    if (const RepairDaemon* d = cluster.repair_daemon(host)) dropped += d->stats().dropped;
  }
  for (const auto& content : contents) {
    EXPECT_EQ(holders(cluster, content).size(), 3u) << content;
  }
  const auto audit = audit_cluster(cluster);
  EXPECT_TRUE(audit.clean()) << audit.to_string();
  // dropped may legitimately be zero if no target shifted for this seed;
  // the copy-count equality above is the real invariant. Record it anyway
  // so a regression that never reclaims shows up as a count drift.
  (void)dropped;
}

TEST(RepairDaemon, ChurnSoakConvergesAndIsByteIdentical) {
  sim::ChurnSimConfig config;
  config.nodes = 8;
  config.seed = 84;
  config.files = 8;
  config.min_live = 4;
  config.duration = SimDuration::seconds(4);
  config.mean_fail_interarrival = SimDuration::seconds(1.5);
  config.mean_join_interarrival = SimDuration::seconds(3);

  const auto first = sim::simulate_churn(config);
  EXPECT_TRUE(first.converged);
  EXPECT_EQ(first.detected, first.failures);
  EXPECT_EQ(first.final_durability_pct, 100.0);
  EXPECT_EQ(first.final_full_pct, 100.0);
  if (first.failures > 0) {
    EXPECT_GT(first.detect_ms_mean, 0.0);
  }

  const auto second = sim::simulate_churn(config);
  EXPECT_EQ(first.timeline_csv, second.timeline_csv);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.timeline.size(), second.timeline.size());

  config.seed = 85;  // a different seed steers a different soak
  const auto third = sim::simulate_churn(config);
  EXPECT_NE(first.timeline_csv, third.timeline_csv);
}

}  // namespace
}  // namespace kosha
