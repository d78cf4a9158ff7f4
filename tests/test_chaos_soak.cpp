// Seeded chaos soak: the cluster is driven through epochs of random
// message drops, host brownout storms, a network partition, and a
// crash/revive — all from deterministic fault schedules. Invariants:
// every operation eventually succeeds (the retry/DRC/failover machinery
// masks transient faults), each epoch ends with a clean audit, and two
// runs with the same seed are bit-identical.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>

#include "common/rng.hpp"
#include "kosha/audit.hpp"
#include "kosha/mount.hpp"

namespace kosha {
namespace {

/// Retry `op` on the virtual clock until it succeeds: transient windows
/// (brownouts, partitions) expire in virtual time, so bounded retries
/// distinguish "masked" from "lost".
bool eventually(SimClock& clock, const std::function<bool()>& op) {
  for (int tries = 0; tries < 50; ++tries) {
    if (op()) return true;
    clock.advance(SimDuration::millis(250));
  }
  return false;
}

TEST(ChaosSoak, ReplicatedClusterMasksFaults) {
  ClusterConfig config;
  config.nodes = 8;
  config.kosha.replicas = 2;
  config.seed = 1234;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));

  net::FaultPlanConfig fault;
  fault.seed = 99;
  fault.drop_probability = 0.02;
  fault.latency_spike_probability = 0.01;
  cluster.network().set_fault_plan(std::make_unique<net::FaultPlan>(fault));
  net::FaultPlan* plan = cluster.network().fault_plan();

  std::map<std::string, std::string> written;
  net::HostId crashed = net::kInvalidHost;
  for (int epoch = 0; epoch < 4; ++epoch) {
    SimClock& clock = cluster.clock();
    const SimDuration start = clock.now();
    switch (epoch) {
      case 0:
        break;  // background 2% drops only
      case 1:   // brownout storm: three staggered host stalls
        plan->add_brownout(1, start, start + SimDuration::seconds(1));
        plan->add_brownout(3, start + SimDuration::millis(200),
                           start + SimDuration::seconds(1.5));
        plan->add_brownout(5, start + SimDuration::millis(400),
                           start + SimDuration::seconds(2));
        break;
      case 2: {  // partition the client host away from every storage node
        std::vector<net::HostId> others;
        for (const net::HostId host : cluster.live_hosts()) {
          if (host != 0) others.push_back(host);
        }
        plan->add_partition({0}, others, start, start + SimDuration::millis(1500));
        break;
      }
      case 3:  // crash a node under load; revive it at epoch end
        crashed = cluster.live_hosts().back();
        cluster.fail_node(crashed);
        break;
    }

    for (int i = 0; i < 5; ++i) {
      const std::string dir = "/e" + std::to_string(epoch);
      const std::string file = dir + "/f" + std::to_string(i);
      const std::string content = "epoch" + std::to_string(epoch) + "-" + std::to_string(i);
      ASSERT_TRUE(eventually(clock, [&] { return mount.mkdir_p(dir).ok(); })) << file;
      ASSERT_TRUE(eventually(clock, [&] { return mount.write_file(file, content).ok(); }))
          << file;
      ASSERT_TRUE(eventually(clock,
                             [&] {
                               const auto back = mount.read_file(file);
                               return back.ok() && back.value() == content;
                             }))
          << file;
      written[file] = content;
    }

    if (epoch == 3 && crashed != net::kInvalidHost) cluster.revive_node(crashed);
    // Let every scheduled window expire before the epoch audit.
    clock.advance(SimDuration::seconds(3));
    const auto report = audit_cluster(cluster);
    EXPECT_TRUE(report.clean()) << "epoch " << epoch << ": " << report.to_string();
  }

  // Everything written during the soak is still readable and intact.
  for (const auto& [file, content] : written) {
    ASSERT_TRUE(eventually(cluster.clock(),
                           [&] {
                             const auto back = mount.read_file(file);
                             return back.ok() && back.value() == content;
                           }))
        << file;
  }

  const auto& net = cluster.network().stats();
  EXPECT_GT(net.drops, 0u);
  EXPECT_GT(net.retries, 0u);
  EXPECT_GT(net.partitioned, 0u);
  // The crash epoch forced at least one transparent handle failover.
  EXPECT_GE(cluster.daemon(0).stats().failovers, 1u);
}

TEST(ChaosSoak, DegradedReadsServeFromReplicasDuringBrownout) {
  ClusterConfig config;
  config.nodes = 8;
  config.kosha.replicas = 2;
  config.kosha.read_from_replicas = true;
  config.seed = 555;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));

  // Find a directory whose primary is a remote host (loopback traffic is
  // never judged by the fault plan, so a host-0 primary would hide the
  // brownout entirely).
  net::HostId primary = net::kInvalidHost;
  std::string file;
  for (int i = 0; i < 10 && primary == net::kInvalidHost; ++i) {
    const std::string dir = "/d" + std::to_string(i);
    ASSERT_TRUE(mount.mkdir_p(dir).ok());
    ASSERT_TRUE(mount.write_file(dir + "/f", "payload").ok());
    for (const net::HostId host : cluster.live_hosts()) {
      if (host == 0) continue;
      for (const auto& [anchor, name] : cluster.replicas(host).primaries()) {
        if (name == std::string("d").append(std::to_string(i))) {
          primary = host;
          file = dir + "/f";
        }
      }
    }
  }
  ASSERT_NE(primary, net::kInvalidHost);
  ASSERT_EQ(mount.read_file(file).value(), "payload");  // warm the caches

  // Stall the primary for far longer than any retry schedule can wait.
  auto plan = std::make_unique<net::FaultPlan>(net::FaultPlanConfig{});
  plan->add_brownout(primary, cluster.clock().now(),
                     cluster.clock().now() + SimDuration::seconds(60));
  cluster.network().set_fault_plan(std::move(plan));

  // A full round-robin cycle guarantees at least one read lands on the
  // primary's turn; that one must degrade to a replica copy, not fail.
  for (int i = 0; i < 4; ++i) {
    const auto back = mount.read_file(file);
    ASSERT_TRUE(back.ok()) << "read " << i;
    EXPECT_EQ(back.value(), "payload");
  }
  EXPECT_GE(cluster.daemon(0).stats().degraded_reads, 1u);
}

TEST(ChaosSoak, ZeroReplicasCannotMaskABrownout) {
  ClusterConfig config;
  config.nodes = 8;
  config.kosha.replicas = 0;
  config.kosha.read_from_replicas = true;  // nothing to read from with K=0
  config.seed = 555;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));

  net::HostId primary = net::kInvalidHost;
  std::string file;
  for (int i = 0; i < 10 && primary == net::kInvalidHost; ++i) {
    const std::string dir = "/d" + std::to_string(i);
    ASSERT_TRUE(mount.mkdir_p(dir).ok());
    ASSERT_TRUE(mount.write_file(dir + "/f", "payload").ok());
    for (const net::HostId host : cluster.live_hosts()) {
      if (host == 0) continue;
      for (const auto& [anchor, name] : cluster.replicas(host).primaries()) {
        if (name == std::string("d").append(std::to_string(i))) {
          primary = host;
          file = dir + "/f";
        }
      }
    }
  }
  ASSERT_NE(primary, net::kInvalidHost);
  ASSERT_EQ(mount.read_file(file).value(), "payload");

  const SimDuration window_end = cluster.clock().now() + SimDuration::seconds(60);
  auto plan = std::make_unique<net::FaultPlan>(net::FaultPlanConfig{});
  plan->add_brownout(primary, cluster.clock().now(), window_end);
  cluster.network().set_fault_plan(std::move(plan));

  // With no replicas there is no copy to degrade to: the read fails after
  // the full retry + failover ladder.
  EXPECT_FALSE(mount.read_file(file).ok());
  EXPECT_GE(cluster.daemon(0).stats().failed_failovers, 1u);
  EXPECT_EQ(cluster.daemon(0).stats().degraded_reads, 0u);

  // Availability returns when the brownout window expires.
  cluster.clock().advance(window_end + SimDuration::millis(1) - cluster.clock().now());
  EXPECT_EQ(mount.read_file(file).value(), "payload");
}

TEST(ChaosSoak, DeterministicUnderSeed) {
  struct Outcome {
    net::NetStats net;
    KoshadStats daemon0;
    std::string digest;
  };
  const auto run_chaos = [](std::uint64_t seed) -> Outcome {
    ClusterConfig config;
    config.nodes = 8;
    config.kosha.replicas = 2;
    config.seed = seed;
    KoshaCluster cluster(config);

    net::FaultPlanConfig fault;
    fault.seed = seed + 1;
    fault.drop_probability = 0.03;
    fault.latency_spike_probability = 0.02;
    auto plan = std::make_unique<net::FaultPlan>(fault);
    plan->add_brownout(2, SimDuration::millis(100), SimDuration::millis(1200));
    plan->add_partition({0}, {3, 4}, SimDuration::millis(1500), SimDuration::millis(2600));
    cluster.network().set_fault_plan(std::move(plan));

    KoshaMount mount(&cluster.daemon(0));
    Rng rng(seed ^ 0xC0FFEEull);
    for (int i = 0; i < 40; ++i) {
      const std::string dir = "/c" + std::to_string(rng.next_below(4));
      (void)mount.mkdir_p(dir);
      const std::string file = dir + "/f" + std::to_string(rng.next_below(5));
      switch (rng.next_below(3)) {
        case 0:
          (void)mount.write_file(file, rng.next_name(12));
          break;
        case 1:
          (void)mount.read_file(file);
          break;
        default:
          (void)mount.remove(file);
          break;
      }
    }
    return {cluster.network().stats(), cluster.daemon(0).stats(), audit_digest(cluster)};
  };

  const Outcome a = run_chaos(2024);
  const Outcome b = run_chaos(2024);
  EXPECT_TRUE(a.net == b.net);
  EXPECT_TRUE(a.daemon0 == b.daemon0);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_GT(a.net.drops, 0u);  // the schedule actually fired

  // A different seed must explore a different trajectory.
  const Outcome c = run_chaos(2025);
  EXPECT_FALSE(a.net == c.net);
}

TEST(ChaosSoak, EventLoopTraceIsByteIdenticalUnderSameSeed) {
  // The event-driven core must not just reach the same end state: with
  // observability on, two same-seed runs must serialise to byte-identical
  // trace and metrics output. Any hidden nondeterminism — hash ordering,
  // wall-clock leakage, unseeded tie-breaks in the event queue — shows up
  // here as a one-byte diff.
  struct Artifacts {
    std::string trace;
    std::string metrics;
    std::uint64_t events_executed;
  };
  const auto run_instrumented = [](std::uint64_t seed) -> Artifacts {
    ClusterConfig config;
    config.nodes = 8;
    config.kosha.replicas = 2;
    config.seed = seed;
    config.observability.metrics = true;
    config.observability.tracing = true;
    KoshaCluster cluster(config);

    net::FaultPlanConfig fault;
    fault.seed = seed + 1;
    fault.drop_probability = 0.03;
    fault.latency_spike_probability = 0.02;
    auto plan = std::make_unique<net::FaultPlan>(fault);
    plan->add_brownout(2, SimDuration::millis(100), SimDuration::millis(1200));
    cluster.network().set_fault_plan(std::move(plan));

    KoshaMount mount(&cluster.daemon(0));
    Rng rng(seed ^ 0xBEEFull);
    for (int i = 0; i < 30; ++i) {
      const std::string dir = "/t" + std::to_string(rng.next_below(3));
      (void)mount.mkdir_p(dir);
      const std::string file = dir + "/f" + std::to_string(rng.next_below(4));
      if (rng.next_below(2) == 0) {
        (void)mount.write_file(file, rng.next_name(10));
      } else {
        (void)mount.read_file(file);
      }
    }
    return {cluster.export_trace_jsonl(), cluster.export_metrics_json(),
            cluster.loop().stats().executed};
  };

  const Artifacts a = run_instrumented(4242);
  const Artifacts b = run_instrumented(4242);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_GT(a.events_executed, 0u);  // the event loop drove the run
  EXPECT_FALSE(a.trace.empty());

  // A different seed must change the recorded schedule.
  const Artifacts c = run_instrumented(4243);
  EXPECT_NE(a.trace, c.trace);
}

}  // namespace
}  // namespace kosha
