// Failure-detector behavior under a live self-healing cluster: real
// crashes are detected and repaired without an oracle; brownouts cause
// suspicion that is refuted (no false declarations, no data loss, no
// duplicate replicas); an isolated node quarantines its own verdicts
// instead of declaring the whole ring dead; false declarations heal by
// boot-verified reinstatement; same-seed runs are byte-identical. The
// detector's fast paths (round indices fixed at the tick, acks checked
// against their target's id, the reinstatement check skipped while no
// verdict is held) are pinned on bare overlays where the timing can be
// forced. Five seeded soaks pin every total the detector produced when
// each probe and ack was its own event, and a steady ring checks what a
// round costs now that they travel in legs.

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

/// Golden detector totals for one seeded soak. Checking a round's probes
/// from one timer event must not change a single verdict. Setup joins are
/// background work, so every detector starts at instant 0 and the totals
/// do not depend on how long setup took.
TEST(FailureDetector, SeededSoakMatchesGoldenTotals) {
  KoshaCluster cluster(self_heal_config(9, 76));
  EXPECT_EQ(cluster.clock().now().ns, 0);
  run_flapping_soak(cluster, 76);
  const auto stats = total_stats(cluster);
  EXPECT_EQ(stats.probes_sent, 6354u);
  EXPECT_EQ(stats.acks_received, 5903u);
  EXPECT_EQ(stats.probe_misses, 451u);
  EXPECT_EQ(stats.suspicions, 25u);
  EXPECT_EQ(stats.indirect_rounds, 49u);
  EXPECT_EQ(stats.refutations, 9u);
  EXPECT_EQ(stats.declared_dead, 16u);
  EXPECT_EQ(stats.reinstated, 6u);
  EXPECT_EQ(stats.quarantined_verdicts, 7u);
}

/// A death verdict about a peer that is still live outlives the peer's
/// leaf-set membership (it is what keeps repair from re-inserting the
/// peer), tick after tick of pruning; once the peer is really gone the
/// next prune forgets it. Every node runs a detector, and a partition cuts
/// only the observer's link to the suspect. The observer asks no helpers
/// (indirect_probes = 0), so its direct misses alone declare the suspect
/// dead, while every other node keeps acking the suspect and holds it in
/// its leaf set: each repair is offered the suspect back, and only the
/// observer's verdict refuses it. The suspect's probes never cross the
/// partition, so the observer never reinstates it.
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
  pastry::FailureDetectorConfig direct_only;
  direct_only.indirect_probes = 0;
  pastry::FailureDetector detector(direct_only, &overlay, &network, &loop, observer,
                                   overlay.host_of(observer), 1);
  detector.start();
  std::vector<std::unique_ptr<pastry::FailureDetector>> peers;
  for (std::size_t i = 1; i < ids.size(); ++i) {
    peers.push_back(std::make_unique<pastry::FailureDetector>(
        pastry::FailureDetectorConfig{}, &overlay, &network, &loop, ids[i],
        overlay.host_of(ids[i]), i + 1));
    peers.back()->start();
  }
  // Every node but the observer still holds the suspect, so each of the
  // observer's repairs pulls it as a candidate.
  auto others_hold_suspect = [&] {
    for (const pastry::NodeId id : ids) {
      if (id == observer || id == suspect) continue;
      if (!overlay.leaf_set(id).contains(suspect)) return false;
    }
    return true;
  };

  const SimDuration t0 = clock.now();
  auto plan = std::make_unique<net::FaultPlan>(net::FaultPlanConfig{81, 0.0, 0.0, {}});
  plan->add_partition({overlay.host_of(observer)}, {overlay.host_of(suspect)}, t0,
                      t0 + SimDuration::seconds(60));
  network.set_fault_plan(std::move(plan));

  loop.run_until_time(t0 + SimDuration::seconds(2));
  ASSERT_TRUE(detector.has_declared_dead(suspect));
  ASSERT_EQ(detector.stats().declared_dead, 1u);
  EXPECT_EQ(detector.death_verdicts(), 1u);
  ASSERT_FALSE(overlay.leaf_set(observer).contains(suspect));
  ASSERT_TRUE(overlay.is_live(suspect));
  ASSERT_TRUE(others_hold_suspect());

  // Dozens of ticks later the verdict stands and repair has not
  // re-inserted the peer, though the others still offer it.
  loop.run_until_time(t0 + SimDuration::seconds(6));
  EXPECT_TRUE(detector.has_declared_dead(suspect));
  EXPECT_FALSE(overlay.leaf_set(observer).contains(suspect));
  EXPECT_TRUE(others_hold_suspect());
  EXPECT_EQ(detector.stats().reinstated, 0u);
  EXPECT_EQ(detector.stats().declared_dead, 1u);
  for (const pastry::NodeId id : ids) {
    if (id == observer || id == suspect) continue;
    EXPECT_FALSE(detector.has_declared_dead(id));
  }

  // The peer really dies: the next prune drops its state.
  peers.front()->stop();
  overlay.mark_dead(suspect);
  loop.run_until_time(t0 + SimDuration::seconds(7));
  EXPECT_FALSE(detector.has_declared_dead(suspect));
  EXPECT_FALSE(detector.is_suspected(suspect));
  EXPECT_EQ(detector.death_verdicts(), 0u);  // the prune dropped the verdict
  detector.stop();
  for (auto& peer : peers) peer->stop();
}

/// A bare overlay of `n` nodes, each running its own detector.
struct DetectorRing {
  SimClock clock;
  EventLoop loop{&clock, 83};
  net::SimNetwork network{{}, &clock};
  pastry::PastryOverlay overlay{{}, &network};
  std::vector<pastry::NodeId> ids;
  std::vector<std::unique_ptr<pastry::FailureDetector>> detectors;

  DetectorRing(std::size_t n, pastry::FailureDetectorConfig config) : config_(config) {
    network.set_event_loop(&loop);
    Rng rng(84);
    for (std::size_t i = 0; i < n; ++i) add(rng.next_id());
  }
  void add(pastry::NodeId id) {
    const std::uint64_t boot = 100 + ids.size();
    ids.push_back(id);
    overlay.join(id, network.add_host());
    detectors.push_back(std::make_unique<pastry::FailureDetector>(
        config_, &overlay, &network, &loop, id, overlay.host_of(id), boot));
    detectors.back()->start();
  }
  ~DetectorRing() {
    for (auto& d : detectors) d->stop();
  }

 private:
  pastry::FailureDetectorConfig config_;
};

/// Every message pays a 60 ms spike, so each ack lands about 120 ms after
/// its probe: after the round's miss timer (50 ms) and after the next
/// tick (100-115 ms), which has already sent a newer probe. Mid-run a node
/// joins with the lowest id, so every peer's table index shifts by one
/// between a probe and its ack. With a threshold of two misses, one ack
/// credited to the wrong peer, or one round checked at a stale index,
/// tips some peer into suspicion; crediting each late ack by id keeps every
/// peer's misses alternating between one and zero.
TEST(FailureDetector, AckDelayedPastTheNextTickUpdatesTheRightPeer) {
  pastry::FailureDetectorConfig config;
  config.suspicion_threshold = 2;
  DetectorRing ring(6, config);
  ring.network.set_fault_plan(std::make_unique<net::FaultPlan>(
      net::FaultPlanConfig{85, 0.0, 1.0, SimDuration::millis(60)}));

  const SimDuration t0 = ring.clock.now();
  ring.loop.run_until_time(t0 + SimDuration::seconds(1));
  ring.add(pastry::NodeId(0, 1));  // sorts first in every table
  ring.loop.run_until_time(t0 + SimDuration::seconds(3));

  for (std::size_t i = 0; i < ring.detectors.size(); ++i) {
    const auto& stats = ring.detectors[i]->stats();
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_GT(stats.acks_received, 0u);
    EXPECT_GT(stats.probe_misses, 0u);  // every round times out first
    EXPECT_EQ(stats.suspicions, 0u);
    EXPECT_EQ(stats.declared_dead, 0u);
  }
  // The newcomer was probed and acked by the old members.
  EXPECT_GT(ring.detectors.back()->stats().probes_sent, 0u);
  EXPECT_FALSE(ring.detectors[0]->is_suspected(ring.ids.back()));
}

/// A verdict about a browned-out peer is kept across tick after tick of
/// pruning, though the peer has left the observer's leaf set. When the
/// brownout ends, the peer's own probe carries the boot the observer
/// recorded, and that one probe reinstates it; the verdict count goes
/// back to zero.
TEST(FailureDetector, VerdictKeptAcrossPruningReinstatesOnABootMatchingProbe) {
  DetectorRing ring(6, {});
  const pastry::NodeId suspect = ring.ids[1];
  pastry::FailureDetector& observer = *ring.detectors[0];
  ASSERT_TRUE(ring.overlay.leaf_set(ring.ids[0]).contains(suspect));

  // Let the observer hear the suspect's boot before the brownout.
  const SimDuration t0 = ring.clock.now() + SimDuration::millis(500);
  auto plan = std::make_unique<net::FaultPlan>(net::FaultPlanConfig{86, 0.0, 0.0, {}});
  plan->add_brownout(ring.overlay.host_of(suspect), t0, t0 + SimDuration::seconds(3));
  ring.network.set_fault_plan(std::move(plan));

  ring.loop.run_until_time(t0 + SimDuration::seconds(2));
  ASSERT_TRUE(observer.has_declared_dead(suspect));
  EXPECT_EQ(observer.death_verdicts(), 1u);
  EXPECT_FALSE(ring.overlay.leaf_set(ring.ids[0]).contains(suspect));
  // An id the table never held, sorting just below the suspect's, has no
  // verdict of its own.
  EXPECT_FALSE(observer.has_declared_dead(pastry::NodeId(suspect.hi, suspect.lo - 1)));
  const std::uint64_t probes_before = observer.stats().probes_sent;

  // Ten more ticks of pruning: the verdict stands.
  ring.loop.run_until_time(t0 + SimDuration::millis(2950));
  EXPECT_GT(observer.stats().probes_sent, probes_before);
  EXPECT_TRUE(observer.has_declared_dead(suspect));
  EXPECT_EQ(observer.death_verdicts(), 1u);
  EXPECT_EQ(observer.stats().reinstated, 0u);

  // The brownout ends; the suspect's next probe heals the verdict.
  ring.loop.run_until_time(t0 + SimDuration::seconds(4));
  EXPECT_FALSE(observer.has_declared_dead(suspect));
  EXPECT_EQ(observer.stats().reinstated, 1u);
  EXPECT_EQ(observer.death_verdicts(), 0u);
  EXPECT_TRUE(ring.overlay.leaf_set(ring.ids[0]).contains(suspect));
  for (const auto& d : ring.detectors) EXPECT_EQ(d->death_verdicts(), 0u);
}

/// Everything a heartbeat soak decides, one line per record: each live
/// node's detector stats (by host), the wire's message, drop and timeout
/// counts, and every detection with its instants. Carrying a round's
/// probes and acks in one event per arrival instant, and reusing the
/// round while the leaf set holds still, must leave every line as it was
/// with one event per message.
std::string soak_totals(KoshaCluster& cluster) {
  std::string out;
  auto field = [&out](std::uint64_t v) {
    out += ' ';
    out += std::to_string(v);
  };
  for (const net::HostId host : cluster.live_hosts()) {
    const pastry::FailureDetector* d = cluster.detector(host);
    if (d == nullptr) continue;
    const pastry::FailureDetectorStats& s = d->stats();
    out += "fd";
    for (const std::uint64_t v : {std::uint64_t{host}, s.probes_sent, s.acks_received,
                                  s.probe_misses, s.suspicions, s.indirect_rounds,
                                  s.refutations, s.declared_dead, s.reinstated,
                                  s.quarantined_verdicts}) {
      field(v);
    }
    out += '\n';
  }
  const net::NetStats& net = cluster.network().stats();
  out += "net";
  for (const std::uint64_t v : {net.messages, net.drops, net.timeouts}) field(v);
  out += '\n';
  for (const auto& e : cluster.detections()) {
    out += "detect";
    for (const auto v : {std::int64_t{e.host}, e.failed_at.ns, e.detected_at.ns}) {
      field(static_cast<std::uint64_t>(v));
    }
    out += '\n';
  }
  return out;
}

/// A ten-node self-healing cluster with six files written, then `plan`.
std::unique_ptr<KoshaCluster> soak_cluster(std::uint64_t seed, net::FaultPlanConfig plan,
                                           unsigned suspicion_threshold = 3) {
  ClusterConfig config = self_heal_config(10, seed);
  config.self_heal.detector.suspicion_threshold = suspicion_threshold;
  auto cluster = std::make_unique<KoshaCluster>(config);
  KoshaMount mount(&cluster->daemon(0));
  (void)write_dataset(mount, 6, "soak");
  cluster->network().set_fault_plan(std::make_unique<net::FaultPlan>(plan));
  return cluster;
}

/// Dispatch until `host`'s detector sends its next round.
void run_to_next_round(KoshaCluster& cluster, net::HostId host) {
  const std::uint64_t sent = cluster.detector(host)->stats().probes_sent;
  while (cluster.detector(host)->stats().probes_sent == sent) {
    ASSERT_TRUE(cluster.loop().step());
  }
}

/// 5% drops, and three messages in ten pay a 20 ms spike: most rounds'
/// probes reach their targets at two instants, and their acks come back
/// at up to three. A crash mid-run is detected through the noise.
TEST(FailureDetector, SpikyLossySoakMatchesPerMessageTotals) {
  auto cluster = soak_cluster(87, net::FaultPlanConfig{88, 0.05, 0.3, SimDuration::millis(20)});
  run_for(*cluster, SimDuration::seconds(2));
  cluster->fail_node(cluster->live_hosts()[4]);
  run_for(*cluster, SimDuration::seconds(4));
  EXPECT_EQ(cluster->detections().size(), 1u);
  EXPECT_EQ(soak_totals(*cluster),
            "fd 0 471 423 43 1 2 0 1 0 0\n"
            "fd 1 463 411 52 2 3 1 1 0 0\n"
            "fd 2 462 417 45 2 3 1 1 0 0\n"
            "fd 3 470 418 51 1 2 0 1 0 0\n"
            "fd 5 471 422 49 1 2 0 1 0 0\n"
            "fd 6 470 418 52 4 5 3 1 0 0\n"
            "fd 7 470 410 60 2 3 1 1 0 0\n"
            "fd 8 470 418 51 1 2 0 1 0 0\n"
            "fd 9 471 427 44 1 2 0 1 0 0\n"
            "net 9306 437 465\n"
            "detect 4 2048641996 2395037304\n");
}

/// Every message pays a 60 ms spike, so each ack lands after its round's
/// miss timer and after the sender's next tick. A join mid-run shifts the
/// peer tables while those acks are on the wire, so an ack's carried
/// table index goes stale and the ack must find its peer by id. Each
/// peer's misses alternate between one and zero, so with a threshold of
/// two one ack credited to the wrong peer tips a peer into suspicion.
TEST(FailureDetector, LateAcksAcrossAJoinMatchPerMessageTotals) {
  auto cluster = soak_cluster(97, net::FaultPlanConfig{98, 0.0, 1.0, SimDuration::millis(60)},
                              /*suspicion_threshold=*/2);
  run_for(*cluster, SimDuration::seconds(1));
  (void)cluster->add_node();
  run_for(*cluster, SimDuration::seconds(2));
  EXPECT_EQ(total_stats(*cluster).suspicions, 0u);
  EXPECT_EQ(soak_totals(*cluster),
            "fd 0 271 261 261 0 0 0 0 0 0\n"
            "fd 1 271 251 261 0 0 0 0 0 0\n"
            "fd 2 271 261 271 0 0 0 0 0 0\n"
            "fd 3 271 261 271 0 0 0 0 0 0\n"
            "fd 4 271 261 261 0 0 0 0 0 0\n"
            "fd 5 271 261 271 0 0 0 0 0 0\n"
            "fd 6 271 261 261 0 0 0 0 0 0\n"
            "fd 7 271 261 261 0 0 0 0 0 0\n"
            "fd 8 271 261 261 0 0 0 0 0 0\n"
            "fd 9 271 261 261 0 0 0 0 0 0\n"
            "fd 10 180 170 180 0 0 0 0 0 0\n"
            "net 6396 0 2820\n");
}

/// Joins under 2% drops: each one changes its neighbours' leaf sets, so
/// their next round is rebuilt and probes the newcomer.
TEST(FailureDetector, JoinsMidRunMatchPerMessageTotals) {
  auto cluster = soak_cluster(91, net::FaultPlanConfig{92, 0.02, 0.0, {}});
  run_for(*cluster, SimDuration::seconds(1));
  const net::HostId first = cluster->add_node();
  run_for(*cluster, SimDuration::millis(700));
  const net::HostId second = cluster->add_node();
  run_for(*cluster, SimDuration::seconds(2));
  EXPECT_GT(cluster->detector(first)->stats().acks_received, 0u);
  EXPECT_GT(cluster->detector(second)->stats().acks_received, 0u);
  EXPECT_EQ(soak_totals(*cluster),
            "fd 0 349 332 17 1 1 1 0 0 0\n"
            "fd 1 349 331 18 0 0 0 0 0 0\n"
            "fd 2 360 344 16 0 0 0 0 0 0\n"
            "fd 3 349 336 13 0 0 0 0 0 0\n"
            "fd 4 349 342 7 0 0 0 0 0 0\n"
            "fd 5 349 334 15 0 0 0 0 0 0\n"
            "fd 6 359 345 14 0 0 0 0 0 0\n"
            "fd 7 349 333 16 0 0 0 0 0 0\n"
            "fd 8 349 331 18 0 0 0 0 0 0\n"
            "fd 9 360 346 14 0 0 0 0 0 0\n"
            "fd 10 269 257 10 0 0 0 0 0 0\n"
            "fd 11 198 192 6 0 0 0 0 0 0\n"
            "net 8539 166 164\n");
}

/// A node is crashed and revived on its own host (a fresh id, a fresh
/// detector) twice: once just after its detector sent a round, so its
/// probes are still on the wire, and once with that round's acks on the
/// wire. Its peers answer the dead incarnation's probes, and the acks
/// must find no detector. The host is up again at once, but a relayed
/// probe answers only for the id running there, so every survivor
/// declares each old id dead and both failures are detected.
TEST(FailureDetector, RevivalWithProbesInFlightMatchesPerMessageTotals) {
  auto cluster = soak_cluster(93, net::FaultPlanConfig{94, 0.01, 0.0, {}});
  const net::HostId host = cluster->live_hosts()[2];
  run_for(*cluster, SimDuration::seconds(1));
  run_to_next_round(*cluster, host);
  cluster->fail_node(host);
  cluster->revive_node(host);
  run_for(*cluster, SimDuration::seconds(1));
  run_to_next_round(*cluster, host);
  // Past the probes' arrival, before the acks'.
  cluster->loop().run_until_time(cluster->clock().now() + SimDuration::micros(200));
  cluster->fail_node(host);
  cluster->revive_node(host);
  run_for(*cluster, SimDuration::seconds(2));
  EXPECT_EQ(soak_totals(*cluster),
            "fd 0 350 332 18 2 4 0 2 0 0\n"
            "fd 1 350 333 17 2 4 0 2 0 0\n"
            "fd 2 162 159 3 0 0 0 0 0 0\n"
            "fd 3 350 331 19 2 4 0 2 0 0\n"
            "fd 4 350 332 18 2 4 0 2 0 0\n"
            "fd 5 350 335 15 2 4 0 2 0 0\n"
            "fd 6 350 337 13 2 4 0 2 0 0\n"
            "fd 7 350 337 13 2 4 0 2 0 0\n"
            "fd 8 350 334 16 2 4 0 2 0 0\n"
            "fd 9 349 332 17 2 4 0 2 0 0\n"
            "net 8144 80 150\n"
            "detect 2 1072621856 1450058035\n"
            "detect 2 2151570908 2494971624\n");
}

/// A node crashed and revived on one host runs a fresh id there, so the
/// indirect probes of its old id reach the host but not the id. Twice over,
/// every survivor declares the old incarnation dead (all ten nodes watch
/// each other), and no leaf set keeps it.
TEST(FailureDetector, CrashAndReviveOnOneHostDeclaresEachOldId) {
  auto cluster = soak_cluster(93, net::FaultPlanConfig{94, 0.0, 0.0, {}});
  const net::HostId host = cluster->live_hosts()[2];
  std::vector<pastry::NodeId> old_ids;
  for (int cycle = 0; cycle < 2; ++cycle) {
    run_for(*cluster, SimDuration::seconds(1));
    old_ids.push_back(cluster->node_id(host));
    cluster->fail_node(host);
    cluster->revive_node(host);
  }
  run_for(*cluster, SimDuration::seconds(3));
  EXPECT_EQ(cluster->undetected_failures(), 0u);
  EXPECT_EQ(cluster->detections().size(), 2u);
  for (const net::HostId survivor : cluster->live_hosts()) {
    if (survivor == host) continue;
    EXPECT_EQ(cluster->detector(survivor)->stats().declared_dead, 2u) << survivor;
    const pastry::LeafSet& leaves = cluster->overlay().leaf_set(cluster->node_id(survivor));
    for (const pastry::NodeId old_id : old_ids) EXPECT_FALSE(leaves.contains(old_id)) << survivor;
    EXPECT_TRUE(leaves.contains(cluster->node_id(host))) << survivor;
  }
}

/// A 1.2 s brownout outlasts the confirmation rounds, so the victim's
/// neighbours declare it dead; when it ends, its probes carry the boot
/// they recorded and reinstate it.
TEST(FailureDetector, FalseVerdictAndReinstatementMatchPerMessageTotals) {
  auto cluster = soak_cluster(95, net::FaultPlanConfig{96, 0.0, 0.0, {}});
  const SimDuration t0 = cluster->clock().now();
  cluster->network().fault_plan()->add_brownout(cluster->live_hosts()[6],
                                                t0 + SimDuration::millis(300),
                                                t0 + SimDuration::millis(1500));
  run_for(*cluster, SimDuration::seconds(4));
  const auto stats = total_stats(*cluster);
  EXPECT_GT(stats.declared_dead, 0u);
  EXPECT_GT(stats.reinstated, 0u);
  EXPECT_TRUE(cluster->detections().empty());
  EXPECT_EQ(soak_totals(*cluster),
            "fd 0 326 322 4 1 2 0 1 1 0\n"
            "fd 1 326 322 4 1 2 0 1 1 0\n"
            "fd 2 326 322 4 1 2 0 1 1 0\n"
            "fd 3 325 321 4 1 2 0 1 1 0\n"
            "fd 4 326 322 4 1 2 0 1 1 0\n"
            "fd 5 326 322 4 1 2 0 1 1 0\n"
            "fd 6 333 234 99 9 90 9 0 0 45\n"
            "fd 7 325 321 4 1 2 0 1 1 0\n"
            "fd 8 326 322 4 1 2 0 1 1 0\n"
            "fd 9 326 322 4 1 2 0 1 1 0\n"
            "net 7283 186 135\n");
}

/// A steady ten-node ring with no faults: every round is four events (the
/// tick, its miss timer, one probe leg and one ack leg), however many
/// peers it probes. One event per probe and per ack would be 2 + 2 x 9.
TEST(FailureDetector, SteadyRoundCostsFourEvents) {
  DetectorRing ring(10, {});
  ring.loop.run_until_time(ring.clock.now() + SimDuration::seconds(3));
  std::uint64_t probes = 0;
  for (const auto& d : ring.detectors) probes += d->stats().probes_sent;
  const std::size_t peers = ring.overlay.leaf_set(ring.ids[0]).size();
  ASSERT_EQ(peers, 9u);  // every node monitors every other
  const std::uint64_t rounds = probes / peers;
  ASSERT_GT(rounds, 200u);
  EXPECT_LE(ring.loop.stats().executed, 4 * rounds);
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
