// Failure-detector behavior under a live self-healing cluster: real
// crashes are detected and repaired without an oracle; brownouts cause
// suspicion that is refuted (no false declarations, no data loss, no
// duplicate replicas); an isolated node quarantines its own verdicts
// instead of declaring the whole ring dead; false declarations heal by
// boot-verified reinstatement; same-seed runs are byte-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/event_loop.hpp"
#include "common/rng.hpp"
#include "fs/local_fs.hpp"
#include "kosha/audit.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "net/fault_plan.hpp"
#include "nfs/nfs_server.hpp"
#include "pastry/failure_detector.hpp"
#include "pastry/overlay.hpp"

namespace kosha {
namespace {

ClusterConfig self_heal_config(std::size_t nodes, std::uint64_t seed) {
  ClusterConfig config;
  config.nodes = nodes;
  config.kosha.replicas = 2;
  config.kosha.distribution_level = 2;
  config.seed = seed;
  config.self_heal.enabled = true;
  return config;
}

void run_for(KoshaCluster& cluster, SimDuration d) {
  cluster.loop().run_until_time(cluster.clock().now() + d);
}

bool store_holds(const fs::StorageBackend& store, fs::InodeId dir, const std::string& content) {
  const auto entries = store.readdir(dir);
  if (!entries.ok()) return false;
  for (const auto& entry : entries.value()) {
    if (entry.type == fs::FileType::kDirectory) {
      if (store_holds(store, entry.inode, content)) return true;
    } else if (entry.type == fs::FileType::kFile) {
      const auto data = store.read(entry.inode, 0, 1 << 20);
      if (data.ok() && data.value() == content) return true;
    }
  }
  return false;
}

/// Live hosts holding `content` anywhere in their store (primary or
/// replica copy) — the oracle view of a file's replication level.
std::size_t count_copies(KoshaCluster& cluster, const std::string& content) {
  std::size_t copies = 0;
  for (const net::HostId host : cluster.live_hosts()) {
    const fs::StorageBackend& store = cluster.server(host).store();
    copies += store_holds(store, store.root(), content);
  }
  return copies;
}

/// Aggregate detector stats over all live nodes.
pastry::FailureDetectorStats total_stats(KoshaCluster& cluster) {
  pastry::FailureDetectorStats total;
  for (const net::HostId host : cluster.live_hosts()) {
    if (const pastry::FailureDetector* d = cluster.detector(host)) {
      const auto& s = d->stats();
      total.probes_sent += s.probes_sent;
      total.acks_received += s.acks_received;
      total.probe_misses += s.probe_misses;
      total.suspicions += s.suspicions;
      total.indirect_rounds += s.indirect_rounds;
      total.refutations += s.refutations;
      total.declared_dead += s.declared_dead;
      total.reinstated += s.reinstated;
      total.quarantined_verdicts += s.quarantined_verdicts;
    }
  }
  return total;
}

std::vector<std::string> write_dataset(KoshaMount& mount, std::size_t files,
                                       const std::string& tag) {
  std::vector<std::string> contents;
  for (std::size_t i = 0; i < files; ++i) {
    const std::string dir = "/fd/d" + std::to_string(i % 3);
    EXPECT_TRUE(mount.mkdir_p(dir).ok());
    const std::string content = tag + "-" + std::to_string(i);
    EXPECT_TRUE(mount.write_file(dir + "/f" + std::to_string(i), content).ok());
    contents.push_back(content);
  }
  return contents;
}

TEST(FailureDetector, DetectsCrashRepairsRingAndConverges) {
  KoshaCluster cluster(self_heal_config(10, 71));
  KoshaMount mount(&cluster.daemon(0));
  const auto contents = write_dataset(mount, 10, "crash");

  const net::HostId victim = cluster.live_hosts().back();
  cluster.fail_node(victim);
  ASSERT_EQ(cluster.undetected_failures(), 1u);
  ASSERT_TRUE(cluster.detections().empty());

  // Detection: some survivor must confirm the death without any oracle.
  run_for(cluster, SimDuration::seconds(5));
  ASSERT_EQ(cluster.detections().size(), 1u);
  EXPECT_EQ(cluster.undetected_failures(), 0u);
  EXPECT_EQ(cluster.detections()[0].host, victim);
  EXPECT_GT(cluster.detections()[0].detected_at, cluster.detections()[0].failed_at);

  // Convergence: anti-entropy restores every file to K+1 live copies and
  // the full audit (placement, namespace, byte-identical replicas) passes.
  run_for(cluster, SimDuration::seconds(10));
  for (const auto& content : contents) EXPECT_EQ(count_copies(cluster, content), 3u);
  const auto audit = audit_cluster(cluster);
  EXPECT_TRUE(audit.clean()) << audit.to_string();
  for (std::size_t i = 0; i < contents.size(); ++i) {
    const auto read = mount.read_file("/fd/d" + std::to_string(i % 3) + "/f" + std::to_string(i));
    ASSERT_TRUE(read.ok()) << i;
    EXPECT_EQ(read.value(), contents[i]);
  }
}

TEST(FailureDetector, BrownoutCausesSuspicionButIsRefuted) {
  ClusterConfig config = self_heal_config(10, 72);
  // Stretch the confirmation phase so a short brownout trips suspicion but
  // ends before the confirm rounds can all fail.
  config.self_heal.detector.confirm_rounds = 4;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));
  const auto contents = write_dataset(mount, 8, "brownout");

  const SimDuration t0 = cluster.clock().now();
  auto plan = std::make_unique<net::FaultPlan>(net::FaultPlanConfig{73, 0.0, 0.0, {}});
  const net::HostId victim = cluster.live_hosts().back();
  plan->add_brownout(victim, t0 + SimDuration::millis(100), t0 + SimDuration::millis(550));
  cluster.network().set_fault_plan(std::move(plan));

  run_for(cluster, SimDuration::seconds(8));
  const auto stats = total_stats(cluster);
  EXPECT_GT(stats.suspicions, 0u);   // the brownout was noticed...
  EXPECT_GT(stats.refutations, 0u);  // ...and refuted, not acted on
  EXPECT_TRUE(cluster.detections().empty());
  EXPECT_EQ(cluster.undetected_failures(), 0u);
  EXPECT_TRUE(cluster.is_up(victim));

  // No data loss and no duplicate replicas: exactly K+1 copies per file.
  for (const auto& content : contents) EXPECT_EQ(count_copies(cluster, content), 3u);
  const auto audit = audit_cluster(cluster);
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(FailureDetector, IsolatedNodeQuarantinesItsVerdicts) {
  KoshaCluster cluster(self_heal_config(10, 74));
  KoshaMount mount(&cluster.daemon(0));
  const auto contents = write_dataset(mount, 8, "island");

  const SimDuration t0 = cluster.clock().now();
  const net::HostId victim = cluster.live_hosts().back();
  std::vector<net::HostId> others;
  for (const net::HostId host : cluster.live_hosts()) {
    if (host != victim) others.push_back(host);
  }
  auto plan = std::make_unique<net::FaultPlan>(net::FaultPlanConfig{75, 0.0, 0.0, {}});
  plan->add_partition({victim}, others, t0, t0 + SimDuration::seconds(2));
  cluster.network().set_fault_plan(std::move(plan));

  run_for(cluster, SimDuration::seconds(2));
  // The isolated node lost contact with everyone — it must recognise its
  // own isolation and withhold verdicts rather than declare the ring dead.
  const pastry::FailureDetector* island = cluster.detector(victim);
  ASSERT_NE(island, nullptr);
  EXPECT_GT(island->stats().suspicions, 0u);
  EXPECT_GT(island->stats().quarantined_verdicts, 0u);
  EXPECT_EQ(island->stats().declared_dead, 0u);

  // The majority side may have falsely declared the island dead; after the
  // partition heals its probes answer again and boot-verified reinstatement
  // plus stale-copy reclamation restore the exact pre-fault state.
  run_for(cluster, SimDuration::seconds(15));
  const auto stats = total_stats(cluster);
  if (stats.declared_dead > 0) {
    EXPECT_GT(stats.reinstated, 0u);
  }
  EXPECT_TRUE(cluster.detections().empty());  // nobody actually died
  for (const auto& content : contents) EXPECT_EQ(count_copies(cluster, content), 3u);
  const auto audit = audit_cluster(cluster);
  EXPECT_TRUE(audit.clean()) << audit.to_string();
  for (std::size_t i = 0; i < contents.size(); ++i) {
    const auto read = mount.read_file("/fd/d" + std::to_string(i % 3) + "/f" + std::to_string(i));
    ASSERT_TRUE(read.ok()) << i;
  }
}

/// A seeded flapping soak: a brownout and 3% drops, then a crash.
void run_flapping_soak(KoshaCluster& cluster, std::uint64_t seed) {
  KoshaMount mount(&cluster.daemon(0));
  (void)write_dataset(mount, 6, "det");
  const SimDuration t0 = cluster.clock().now();
  auto plan = std::make_unique<net::FaultPlan>(net::FaultPlanConfig{seed + 1, 0.03, 0.0, {}});
  plan->add_brownout(cluster.live_hosts().back(), t0 + SimDuration::millis(200),
                     t0 + SimDuration::millis(700));
  cluster.network().set_fault_plan(std::move(plan));
  run_for(cluster, SimDuration::seconds(4));
  cluster.fail_node(cluster.live_hosts()[3]);
  run_for(cluster, SimDuration::seconds(8));
}

TEST(FailureDetector, FlappingRunsAreByteIdenticalUnderOneSeed) {
  const auto fingerprint = [](std::uint64_t seed) {
    KoshaCluster cluster(self_heal_config(9, seed));
    run_flapping_soak(cluster, seed);

    const auto stats = total_stats(cluster);
    std::string fp = audit_digest(cluster);
    fp += "|" + std::to_string(stats.probes_sent) + "," + std::to_string(stats.probe_misses) +
          "," + std::to_string(stats.suspicions) + "," + std::to_string(stats.refutations) +
          "," + std::to_string(stats.declared_dead) + "," + std::to_string(stats.reinstated) +
          "," + std::to_string(stats.quarantined_verdicts);
    fp += "|" + std::to_string(cluster.detections().size()) + "," +
          std::to_string(cluster.undetected_failures());
    fp += "|@" + std::to_string(cluster.clock().now().ns);
    return fp;
  };
  EXPECT_EQ(fingerprint(76), fingerprint(76));
  EXPECT_NE(fingerprint(76), fingerprint(77));  // the seed actually steers it
}

/// Golden detector totals for one seeded soak, recorded when every probe
/// still armed its own miss timer. Checking a round's probes from one
/// timer event must not change a single verdict.
TEST(FailureDetector, SeededSoakMatchesGoldenTotals) {
  KoshaCluster cluster(self_heal_config(9, 76));
  run_flapping_soak(cluster, 76);
  const auto stats = total_stats(cluster);
  EXPECT_EQ(stats.probes_sent, 6527u);
  EXPECT_EQ(stats.acks_received, 6066u);
  EXPECT_EQ(stats.probe_misses, 458u);
  EXPECT_EQ(stats.suspicions, 23u);
  EXPECT_EQ(stats.indirect_rounds, 46u);
  EXPECT_EQ(stats.refutations, 8u);
  EXPECT_EQ(stats.declared_dead, 15u);
  EXPECT_EQ(stats.reinstated, 7u);
  EXPECT_EQ(stats.quarantined_verdicts, 7u);
}

/// A death verdict about a peer that is still live outlives the peer's
/// leaf-set membership (it is what keeps repair from re-inserting the
/// peer), tick after tick of pruning; once the peer is really gone the
/// next prune forgets it. Only the observer runs a detector, so the
/// browned-out peer never probes back and is never reinstated.
TEST(FailureDetector, VerdictOutlivesLeafMembershipUntilThePeerIsGone) {
  SimClock clock;
  EventLoop loop(&clock, 79);
  net::SimNetwork network({}, &clock);
  network.set_event_loop(&loop);
  pastry::PastryOverlay overlay({}, &network);
  Rng rng(80);
  std::vector<pastry::NodeId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(rng.next_id());
    overlay.join(ids.back(), network.add_host());
  }
  const pastry::NodeId observer = ids[0];
  const pastry::NodeId suspect = ids[1];
  ASSERT_TRUE(overlay.leaf_set(observer).contains(suspect));
  pastry::FailureDetector detector({}, &overlay, &network, &loop, observer,
                                   overlay.host_of(observer), 1);
  detector.start();

  const SimDuration t0 = clock.now();
  auto plan = std::make_unique<net::FaultPlan>(net::FaultPlanConfig{81, 0.0, 0.0, {}});
  plan->add_brownout(overlay.host_of(suspect), t0, t0 + SimDuration::seconds(3));
  network.set_fault_plan(std::move(plan));

  loop.run_until_time(t0 + SimDuration::seconds(2));
  ASSERT_TRUE(detector.has_declared_dead(suspect));
  ASSERT_EQ(detector.stats().declared_dead, 1u);
  ASSERT_FALSE(overlay.leaf_set(observer).contains(suspect));
  ASSERT_TRUE(overlay.is_live(suspect));

  // Dozens of ticks later, the brownout long over: the verdict stands and
  // repair has not re-inserted the peer.
  loop.run_until_time(t0 + SimDuration::seconds(6));
  EXPECT_TRUE(detector.has_declared_dead(suspect));
  EXPECT_FALSE(overlay.leaf_set(observer).contains(suspect));
  EXPECT_EQ(detector.stats().reinstated, 0u);
  EXPECT_EQ(detector.stats().declared_dead, 1u);
  for (const pastry::NodeId id : ids) {
    if (id == observer || id == suspect) continue;
    EXPECT_FALSE(detector.has_declared_dead(id));
  }

  // The peer really dies: the next prune drops its state.
  overlay.mark_dead(suspect);
  loop.run_until_time(t0 + SimDuration::seconds(7));
  EXPECT_FALSE(detector.has_declared_dead(suspect));
  EXPECT_FALSE(detector.is_suspected(suspect));
  detector.stop();
}

TEST(FailureDetector, RejectsProbeTimeoutNotBelowPeriod) {
  ClusterConfig config = self_heal_config(4, 78);
  config.self_heal.detector.probe_timeout = config.self_heal.detector.probe_period;
  EXPECT_THROW(KoshaCluster cluster(config), std::invalid_argument);
  config.self_heal.detector.probe_timeout =
      config.self_heal.detector.probe_period + SimDuration::millis(1);
  EXPECT_THROW(KoshaCluster cluster(config), std::invalid_argument);
}

}  // namespace
}  // namespace kosha
