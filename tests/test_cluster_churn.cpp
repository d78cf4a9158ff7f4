// Randomised churn property tests: interleave file-system operations with
// node joins, crashes and revivals, and check that (a) data written is
// readable as long as failures never outpace the replication factor
// between repair rounds, and (b) the namespace stays consistent across
// clients.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "sim/availability_sim.hpp"

namespace kosha {
namespace {

class ChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnProperty, DataSurvivesBoundedChurn) {
  ClusterConfig config;
  config.nodes = 10;
  config.kosha.distribution_level = 2;
  config.kosha.replicas = 2;
  config.node_capacity_bytes = 1ull << 30;
  config.seed = GetParam();
  KoshaCluster cluster(config);
  Rng rng(GetParam() * 31 + 5);
  KoshaMount mount(&cluster.daemon(0));  // host 0 is never killed

  std::map<std::string, std::string> expected;  // path -> content

  auto random_dir = [&] {
    return "/u" + std::to_string(rng.next_below(4)) + "/d" + std::to_string(rng.next_below(3));
  };

  for (int round = 0; round < 60; ++round) {
    const unsigned action = static_cast<unsigned>(rng.next_below(10));
    if (action < 5) {
      // Write or overwrite a file.
      const std::string dir = random_dir();
      ASSERT_TRUE(mount.mkdir_p(dir).ok());
      const std::string path = dir + "/f" + std::to_string(rng.next_below(6));
      const std::string content = "r" + std::to_string(round) + "-" + rng.next_name(12);
      ASSERT_TRUE(mount.write_file(path, content).ok()) << path;
      expected[path] = content;
    } else if (action < 7) {
      // Delete a known file.
      if (!expected.empty()) {
        auto it = expected.begin();
        std::advance(it, static_cast<long>(rng.next_below(expected.size())));
        ASSERT_TRUE(mount.remove(it->first).ok()) << it->first;
        expected.erase(it);
      }
    } else if (action < 8) {
      // Crash one random non-client node (single failure, then repair
      // completes synchronously — within the replication factor).
      const auto hosts = cluster.live_hosts();
      if (hosts.size() > 4) {
        const net::HostId victim = hosts[1 + rng.next_below(hosts.size() - 1)];
        cluster.fail_node(victim);
      }
    } else if (action < 9) {
      // Revive a crashed node, if any.
      for (net::HostId host = 0; host < 16; ++host) {
        if (host < cluster.network().host_count() && !cluster.is_up(host)) {
          cluster.revive_node(host);
          break;
        }
      }
    } else {
      (void)cluster.add_node();
    }

    // Invariant: everything written is readable with the right content.
    for (const auto& [path, content] : expected) {
      const auto read = mount.read_file(path);
      ASSERT_TRUE(read.ok()) << "round " << round << " lost " << path;
      ASSERT_EQ(read.value(), content) << "round " << round << " corrupted " << path;
    }
  }

  // Final cross-client consistency check from a surviving host.
  const auto hosts = cluster.live_hosts();
  KoshaMount other(&cluster.daemon(hosts.back()));
  for (const auto& [path, content] : expected) {
    const auto read = other.read_file(path);
    ASSERT_TRUE(read.ok()) << path;
    EXPECT_EQ(read.value(), content);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

TEST(ClusterChurn, MassJoinThenMassFailure) {
  ClusterConfig config;
  config.nodes = 4;
  config.kosha.distribution_level = 1;
  config.kosha.replicas = 3;
  config.seed = 61;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/grow").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(mount.write_file("/grow/f" + std::to_string(i), std::to_string(i)).ok());
  }
  // Triple the cluster.
  for (int i = 0; i < 8; ++i) (void)cluster.add_node();
  // Then kill three non-client nodes, one at a time (repair in between).
  Rng rng(62);
  for (int k = 0; k < 3; ++k) {
    const auto hosts = cluster.live_hosts();
    cluster.fail_node(hosts[1 + rng.next_below(hosts.size() - 1)]);
  }
  for (int i = 0; i < 10; ++i) {
    const auto content = mount.read_file("/grow/f" + std::to_string(i));
    ASSERT_TRUE(content.ok()) << i;
    EXPECT_EQ(content.value(), std::to_string(i));
  }
}

// --- oracle mode: instant verdicts through report_failure -----------------

TEST(ClusterChurn, OracleFailureIsAnInstantBackgroundVerdict) {
  ClusterConfig config;
  config.nodes = 10;
  config.kosha.distribution_level = 2;
  config.kosha.replicas = 2;
  config.seed = 17;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/o" + std::to_string(i % 4);
    ASSERT_TRUE(mount.mkdir_p(dir).ok());
    ASSERT_TRUE(mount.write_file(dir + "/f" + std::to_string(i), std::to_string(i)).ok());
  }

  const net::HostId victim = 5;
  const pastry::NodeId dead = cluster.node_id(victim);
  const pastry::PastryOverlay& overlay = cluster.overlay();
  std::vector<pastry::NodeId> holders;
  for (const net::HostId host : cluster.live_hosts()) {
    const pastry::NodeId id = cluster.node_id(host);
    if (host != victim && overlay.leaf_set(id).contains(dead)) holders.push_back(id);
  }
  ASSERT_FALSE(holders.empty());
  const SimDuration before = cluster.clock().now();
  const net::NetStats stats = cluster.network().stats();

  cluster.fail_node(victim);

  // The verdicts are background work: the repair traffic is counted, and
  // the caller's clock does not move.
  EXPECT_EQ(cluster.clock().now(), before);
  EXPECT_GT(cluster.network().stats().messages, stats.messages);
  EXPECT_GT(cluster.network().stats().bytes, stats.bytes);
  for (const net::HostId host : cluster.live_hosts()) {
    EXPECT_FALSE(overlay.leaf_set(cluster.node_id(host)).contains(dead)) << host;
  }
  for (const pastry::NodeId holder : holders) {
    const auto entries = overlay.routing_table(holder).entries();
    EXPECT_EQ(std::count(entries.begin(), entries.end(), dead), 0);
  }
  ASSERT_EQ(cluster.detections().size(), 1u);
  const KoshaCluster::DetectionEvent& detection = cluster.detections().front();
  EXPECT_EQ(detection.host, victim);
  EXPECT_EQ(detection.failed_at, before);
  EXPECT_EQ(detection.detected_at, detection.failed_at);
  EXPECT_EQ(cluster.undetected_failures(), 0u);
  for (int i = 0; i < 8; ++i) {
    const auto read =
        mount.read_file("/o" + std::to_string(i % 4) + "/f" + std::to_string(i));
    ASSERT_TRUE(read.ok()) << i;
    EXPECT_EQ(read.value(), std::to_string(i));
  }
}

TEST(ClusterChurn, OracleChurnTimelineIsTimeOrdered) {
  // A failure does not move the clock, so no event is logged at an
  // earlier instant than the sample before it.
  sim::ChurnSimConfig config;
  config.seed = 3;
  config.oracle = true;
  const sim::ChurnResult result = sim::simulate_churn(config);
  ASSERT_GT(result.failures, 0u);
  EXPECT_EQ(result.detected, result.failures);
  EXPECT_EQ(result.detect_ms_max, 0.0);

  std::istringstream lines(result.timeline_csv);
  std::string line;
  long long last = -1;
  std::size_t events = 0;
  while (std::getline(lines, line)) {
    if (line.size() < 2 || line.find_first_of("FJS") != 0) continue;
    const long long at = std::stoll(line.substr(2, line.find(',', 2) - 2));
    EXPECT_GE(at, last) << line;
    last = at;
    ++events;
  }
  EXPECT_GT(events, result.failures + result.joins);
}

TEST(ClusterChurn, TimelineRecomputesTheReportedMttr) {
  // The lossy soak: some arrivals are applied after the sample before them
  // ran past their scheduled instant. The F lines must carry the instant a
  // failure was applied, so the MTTR recomputed from the CSV alone (F to
  // the first later S line at full replication) equals the reported one.
  sim::ChurnSimConfig config;
  config.seed = 7;
  config.duration = SimDuration::seconds(8);
  config.mean_fail_interarrival = SimDuration::seconds(2);
  config.mean_join_interarrival = SimDuration::seconds(3);
  config.drop_probability = 0.02;
  const sim::ChurnResult result = sim::simulate_churn(config);
  ASSERT_GT(result.failures, 0u);

  std::vector<SimDuration> failed;
  std::vector<std::pair<SimDuration, double>> samples;  // (at, full%)
  std::istringstream lines(result.timeline_csv);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::vector<std::string> f;
    for (std::string field; std::getline(fields, field, ',');) f.push_back(field);
    if (f.size() == 3 && f[0] == "F") failed.push_back(SimDuration::nanos(std::stoll(f[1])));
    if (f.size() == 7 && f[0] == "S") {
      samples.emplace_back(SimDuration::nanos(std::stoll(f[1])), std::stod(f[5]));
    }
  }
  ASSERT_EQ(failed.size(), result.failures);

  std::size_t repaired = 0;
  double mttr_ms = 0;
  for (const SimDuration at : failed) {
    for (const auto& [sampled, full_pct] : samples) {
      if (sampled <= at || full_pct < 100.0) continue;
      mttr_ms += (sampled - at).to_millis();
      ++repaired;
      break;
    }
  }
  ASSERT_EQ(repaired, result.repaired);
  ASSERT_GT(repaired, 0u);
  EXPECT_DOUBLE_EQ(mttr_ms / static_cast<double>(repaired), result.mttr_ms_mean);
}

// --- self-healing mode (DESIGN §8): no oracle, detectors + daemons -------

TEST(ClusterChurn, SelfHealingChurnConvergesWithoutOracle) {
  ClusterConfig config;
  config.nodes = 10;
  config.kosha.distribution_level = 2;
  config.kosha.replicas = 2;
  config.seed = 911;
  config.self_heal.enabled = true;
  KoshaCluster cluster(config);
  Rng rng(912);
  KoshaMount mount(&cluster.daemon(0));

  std::map<std::string, std::string> expected;
  const auto settle = [&](double seconds) {
    cluster.loop().run_until_time(cluster.clock().now() + SimDuration::seconds(seconds));
  };

  for (int round = 0; round < 8; ++round) {
    // Write a couple of files.
    const std::string dir = "/sh/d" + std::to_string(rng.next_below(3));
    ASSERT_TRUE(mount.mkdir_p(dir).ok());
    for (int i = 0; i < 2; ++i) {
      const std::string path = dir + "/f" + std::to_string(rng.next_below(5));
      const std::string content =
          std::string("r").append(std::to_string(round)).append("-").append(rng.next_name(10));
      ASSERT_TRUE(mount.write_file(path, content).ok()) << path;
      expected[path] = content;
    }

    // One failure per round — discovered and repaired autonomously while
    // virtual time runs (fail_node only stops the host here).
    const auto hosts = cluster.live_hosts();
    if (hosts.size() > 6 && round % 2 == 0) {
      cluster.fail_node(hosts[1 + rng.next_below(hosts.size() - 1)]);
    } else if (round % 3 == 1) {
      (void)cluster.add_node();
    }
    settle(6.0);

    // Everything written is still readable with the right bytes.
    for (const auto& [path, content] : expected) {
      const auto read = mount.read_file(path);
      ASSERT_TRUE(read.ok()) << "round " << round << " lost " << path;
      ASSERT_EQ(read.value(), content) << "round " << round << " corrupted " << path;
    }
  }

  // Every real failure was detected; nothing is pending.
  EXPECT_EQ(cluster.undetected_failures(), 0u);
  EXPECT_FALSE(cluster.detections().empty());
}

TEST(ClusterChurn, ReviveRejoinsThroughJoinProtocolWithCleanDetectorState) {
  ClusterConfig config;
  config.nodes = 8;
  config.kosha.replicas = 2;
  config.seed = 913;
  config.self_heal.enabled = true;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/rv").ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(mount.write_file("/rv/f" + std::to_string(i), std::to_string(i)).ok());
  }

  const net::HostId victim = cluster.live_hosts().back();
  const pastry::NodeId old_id = cluster.node_id(victim);
  cluster.fail_node(victim);
  EXPECT_EQ(cluster.detector(victim), nullptr);
  EXPECT_EQ(cluster.repair_daemon(victim), nullptr);
  // Let the survivors actually detect and repair before the revival.
  cluster.loop().run_until_time(cluster.clock().now() + SimDuration::seconds(5));
  ASSERT_EQ(cluster.detections().size(), 1u);

  cluster.revive_node(victim);
  // The revival routes through the normal join protocol: fresh node id,
  // fresh detector and repair daemon, running from the start.
  const pastry::NodeId new_id = cluster.node_id(victim);
  EXPECT_NE(new_id, old_id);
  ASSERT_NE(cluster.detector(victim), nullptr);
  EXPECT_TRUE(cluster.detector(victim)->running());
  ASSERT_NE(cluster.repair_daemon(victim), nullptr);
  EXPECT_TRUE(cluster.repair_daemon(victim)->running());

  cluster.loop().run_until_time(cluster.clock().now() + SimDuration::seconds(8));
  // No survivor may hold a lingering verdict against the reborn node: the
  // new incarnation must be a first-class member again.
  for (const net::HostId host : cluster.live_hosts()) {
    if (const pastry::FailureDetector* d = cluster.detector(host)) {
      EXPECT_FALSE(d->is_suspected(new_id)) << host;
      EXPECT_FALSE(d->has_declared_dead(new_id)) << host;
    }
  }
  for (int i = 0; i < 6; ++i) {
    const auto read = mount.read_file("/rv/f" + std::to_string(i));
    ASSERT_TRUE(read.ok()) << i;
    EXPECT_EQ(read.value(), std::to_string(i));
  }
}

TEST(ClusterChurn, ClientHandlesStayValidAcrossFailover) {
  ClusterConfig config;
  config.nodes = 8;
  config.kosha.replicas = 2;
  config.seed = 63;
  KoshaCluster cluster(config);
  auto& daemon = cluster.daemon(0);
  KoshaMount mount(&daemon);
  ASSERT_TRUE(mount.mkdir_p("/h").ok());
  ASSERT_TRUE(mount.write_file("/h/f", "before").ok());
  const auto vh = mount.resolve("/h/f");
  ASSERT_TRUE(vh.ok());

  const net::HostId primary = daemon.handle_table().find(*vh)->real.server;
  if (primary != 0) {
    cluster.fail_node(primary);
    // The *same* virtual handle keeps working (paper §4.4).
    const auto read = daemon.read(*vh, 0, 100);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->data, "before");
    const auto written = daemon.write(*vh, 0, "after!");
    ASSERT_TRUE(written.ok());
    EXPECT_EQ(mount.read_file("/h/f").value(), "after!");
    EXPECT_GE(daemon.stats().failovers, 1u);
  }
}

}  // namespace
}  // namespace kosha
