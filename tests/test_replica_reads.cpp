// Tests for the read-from-replicas extension (paper §4.2 future work).

#include <gtest/gtest.h>

#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"

namespace kosha {
namespace {

ClusterConfig config_with_replica_reads(unsigned replicas) {
  ClusterConfig config;
  config.nodes = 8;
  config.kosha.distribution_level = 1;
  config.kosha.replicas = replicas;
  config.kosha.read_from_replicas = true;
  config.seed = 23;
  return config;
}

TEST(ReplicaReads, ContentIdenticalFromAnyCopy) {
  KoshaCluster cluster(config_with_replica_reads(3));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/rr").ok());
  ASSERT_TRUE(mount.write_file("/rr/f", "same everywhere").ok());
  // Round-robin over 4 copies: read more times than copies.
  for (int i = 0; i < 12; ++i) {
    const auto content = mount.read_file("/rr/f");
    ASSERT_TRUE(content.ok()) << i;
    EXPECT_EQ(content.value(), "same everywhere");
  }
  EXPECT_GT(cluster.daemon(0).stats().replica_reads, 0u);
}

TEST(ReplicaReads, SeesFreshWrites) {
  KoshaCluster cluster(config_with_replica_reads(2));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/w").ok());
  for (int version = 0; version < 6; ++version) {
    const std::string content = std::string("v").append(std::to_string(version));
    ASSERT_TRUE(mount.write_file("/w/f", content).ok());
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(mount.read_file("/w/f").value(), content) << version;
    }
  }
}

TEST(ReplicaReads, DisabledMeansNoReplicaTraffic) {
  ClusterConfig config = config_with_replica_reads(3);
  config.kosha.read_from_replicas = false;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/off").ok());
  ASSERT_TRUE(mount.write_file("/off/f", "x").ok());
  for (int i = 0; i < 10; ++i) (void)mount.read_file("/off/f");
  EXPECT_EQ(cluster.daemon(0).stats().replica_reads, 0u);
}

TEST(ReplicaReads, NoReplicasFallsBackToPrimary) {
  KoshaCluster cluster(config_with_replica_reads(0));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/k0").ok());
  ASSERT_TRUE(mount.write_file("/k0/f", "primary only").ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(mount.read_file("/k0/f").value(), "primary only");
  }
  EXPECT_EQ(cluster.daemon(0).stats().replica_reads, 0u);
}

TEST(ReplicaReads, SurvivesReplicaFailure) {
  KoshaCluster cluster(config_with_replica_reads(2));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/rf").ok());
  ASSERT_TRUE(mount.write_file("/rf/f", "durable").ok());
  // Kill one replica target of the primary.
  const auto vh = mount.resolve("/rf/f");
  const net::HostId primary = cluster.daemon(0).handle_table().find(*vh)->real.server;
  const auto targets = cluster.replicas(primary).targets();
  ASSERT_FALSE(targets.empty());
  const net::HostId victim = cluster.overlay().host_of(targets.front());
  if (victim != 0) {
    cluster.fail_node(victim);
    for (int i = 0; i < 10; ++i) {
      const auto content = mount.read_file("/rf/f");
      ASSERT_TRUE(content.ok()) << i;
      EXPECT_EQ(content.value(), "durable");
    }
  }
}

TEST(ReplicaReads, WorksAfterTruncateAndRewrite) {
  KoshaCluster cluster(config_with_replica_reads(3));
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/t").ok());
  ASSERT_TRUE(mount.write_file("/t/f", std::string(10000, 'a')).ok());
  ASSERT_TRUE(mount.write_file("/t/f", "short").ok());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(mount.read_file("/t/f").value(), "short");
  }
}

}  // namespace
}  // namespace kosha
