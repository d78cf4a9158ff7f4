// Multi-client workload driver: concurrency wins and determinism of the
// event-driven execution model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>

#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "sim/concurrency_driver.hpp"

namespace kosha {
namespace {

ClusterConfig cluster_config(unsigned replicas, std::uint64_t seed = 42) {
  ClusterConfig config;
  config.nodes = 8;
  config.seed = seed;
  config.kosha.replicas = replicas;
  return config;
}

sim::WorkloadResult run_workload(const ClusterConfig& config, std::size_t clients) {
  KoshaCluster cluster(config);
  sim::WorkloadConfig workload;
  workload.clients = clients;
  workload.files_per_client = 3;
  workload.file_bytes = 2048;
  workload.reads_per_file = 1;
  return sim::run_multi_client_workload(cluster, workload);
}

/// The append loop the driver built each file's content with before
/// repeat_stamp, kept as the reference the doubling build must equal.
std::string append_loop(const std::string& stamp, std::size_t bytes) {
  std::string out;
  out.reserve(bytes);
  while (out.size() < bytes) {
    out.append(stamp, 0, std::min(stamp.size(), bytes - out.size()));
  }
  return out;
}

std::string stamp_of(std::size_t client, std::size_t file) {
  return "c" + std::to_string(client) + "f" + std::to_string(file) + ":";
}

TEST(ContentHelpers, RepeatStampEqualsTheAppendLoop) {
  for (const std::size_t client : {3u, 42u, 999u}) {
    for (const std::size_t file : {5u, 17u, 256u}) {
      const std::string stamp = stamp_of(client, file);
      const std::size_t k = stamp.size();
      for (const std::size_t bytes :
           {std::size_t{0}, std::size_t{1}, k - 1, k, k + 1, std::size_t{4095},
            std::size_t{4096}, std::size_t{4097}, std::size_t{(1u << 20) + 3}}) {
        const std::string built = sim::repeat_stamp(stamp, bytes);
        // EXPECT_TRUE, not EXPECT_EQ: a failure must not print a megabyte.
        EXPECT_TRUE(built == append_loop(stamp, bytes)) << stamp << " x " << bytes;
        EXPECT_TRUE(sim::is_repeated_stamp(built, stamp, bytes)) << stamp << " x " << bytes;
      }
    }
  }
}

TEST(ContentHelpers, IsRepeatedStampRejectsNearMisses) {
  const std::string stamp = stamp_of(12, 3);
  constexpr std::size_t kBytes = 4096;
  const std::string good = sim::repeat_stamp(stamp, kBytes);
  ASSERT_TRUE(sim::is_repeated_stamp(good, stamp, kBytes));

  // A flipped byte anywhere: the first, the middle, the last and every
  // other position (the first byte of the second copy included).
  for (std::size_t pos = 0; pos < kBytes; ++pos) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x01);
    EXPECT_FALSE(sim::is_repeated_stamp(bad, stamp, kBytes)) << "flipped byte " << pos;
  }
  // The first copy right and the first byte of every later copy wrong:
  // only the compare of byte k with byte 0 links the copies to the stamp.
  std::string relinked = good;
  for (std::size_t pos = stamp.size(); pos < kBytes; pos += stamp.size()) relinked[pos] = 'x';
  EXPECT_FALSE(sim::is_repeated_stamp(relinked, stamp, kBytes));
  // One byte short, and one byte long with the period continued, so only
  // the size is wrong.
  EXPECT_FALSE(sim::is_repeated_stamp(good.substr(0, kBytes - 1), stamp, kBytes));
  EXPECT_FALSE(
      sim::is_repeated_stamp(sim::repeat_stamp(stamp, kBytes + 1), stamp, kBytes));
  // Another client's and another file's content of the same size.
  ASSERT_EQ(stamp_of(13, 3).size(), stamp.size());
  EXPECT_FALSE(sim::is_repeated_stamp(sim::repeat_stamp(stamp_of(13, 3), kBytes), stamp, kBytes));
  EXPECT_FALSE(sim::is_repeated_stamp(sim::repeat_stamp(stamp_of(12, 4), kBytes), stamp, kBytes));
  // A one-byte rotation, either way.
  EXPECT_FALSE(sim::is_repeated_stamp(good.substr(1) + good[0], stamp, kBytes));
  EXPECT_FALSE(sim::is_repeated_stamp(good.back() + good.substr(0, kBytes - 1), stamp, kBytes));
  // Empty content for a non-empty file.
  EXPECT_FALSE(sim::is_repeated_stamp("", stamp, kBytes));
  // Content shorter than the stamp is checked as the stamp's prefix.
  EXPECT_TRUE(sim::is_repeated_stamp(stamp.substr(0, 3), stamp, 3));
  EXPECT_FALSE(sim::is_repeated_stamp("c13", stamp, 3));
}

TEST(ConcurrencyDriver, AllOpsSucceedAndContentVerifies) {
  const auto result = run_workload(cluster_config(1), 4);
  EXPECT_EQ(result.failures, 0u);
  // 4 clients x (1 mkdir + 3 writes + 3 reads).
  EXPECT_EQ(result.ops, 4u * 7u);
  EXPECT_GT(result.makespan.ns, 0);
}

TEST(ConcurrencyDriver, OverlapBeatsSerialCharging) {
  const auto result = run_workload(cluster_config(1), 8);
  EXPECT_EQ(result.failures, 0u);
  // Overlapping timelines must finish strictly earlier than paying every
  // client's ops back-to-back (busy is that serial-equivalent sum).
  EXPECT_LT(result.makespan.ns, result.busy.ns);
}

TEST(ConcurrencyDriver, SixteenClientsFinishWellBelowSixteenTimesOne) {
  const auto config = cluster_config(1);
  const auto one = run_workload(config, 1);
  const auto sixteen = run_workload(config, 16);
  EXPECT_EQ(sixteen.failures, 0u);
  // The acceptance bound: 16-client makespan measurably below 16 x the
  // 1-client makespan (clients overlap across distinct storage nodes).
  EXPECT_LT(sixteen.makespan.ns, 16 * one.makespan.ns * 3 / 4);
}

TEST(ConcurrencyDriver, SameSeedRunsAreIdentical) {
  const auto run = [](std::uint64_t seed) {
    KoshaCluster cluster(cluster_config(2, seed));
    sim::WorkloadConfig workload;
    workload.clients = 6;
    workload.files_per_client = 2;
    const auto result = sim::run_multi_client_workload(cluster, workload);
    // Koshad's own counter sees the mirrors its mutations fanned out
    // (replication-internal pushes are not counted there).
    std::uint64_t mirror_rpcs = 0;
    std::uint64_t daemon_rpcs = 0;
    for (const auto host : cluster.live_hosts()) {
      mirror_rpcs += cluster.replicas(host).mirror_stats().rpcs;
      daemon_rpcs += cluster.daemon(host).stats().mirror_rpcs;
    }
    EXPECT_GT(daemon_rpcs, 0u);
    EXPECT_LE(daemon_rpcs, mirror_rpcs);
    return std::make_tuple(result.makespan.ns, result.busy.ns, result.ops, result.failures,
                           cluster.network().stats().messages,
                           cluster.loop().stats().executed);
  };
  const auto a = run(7);
  const auto b = run(7);
  EXPECT_EQ(a, b);
  EXPECT_GT(std::get<5>(a), 0u);  // the event loop actually drove the run
  EXPECT_NE(std::get<0>(a), std::get<0>(run(8)));
}

TEST(ConcurrencyDriver, EventDrivenMatchesLegacySerialModelForOneClient)
{
  // With a single client there is never more than one RPC in flight, so
  // the schedule equals one-RPC-at-a-time call-and-advance charging. These
  // are the numbers that model produced for this run; the two agreed
  // exactly while both existed.
  KoshaCluster cluster(cluster_config(1));
  sim::WorkloadConfig workload;
  workload.clients = 1;
  workload.files_per_client = 4;
  const auto result = sim::run_multi_client_workload(cluster, workload);
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(result.makespan.ns, 31'854'480);
  EXPECT_EQ(cluster.network().stats().messages, 143u);
}

}  // namespace
}  // namespace kosha
