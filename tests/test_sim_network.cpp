// Simulated network tests: wire time, byte accounting, liveness, and
// timeouts.

#include <gtest/gtest.h>

#include "net/sim_network.hpp"

namespace kosha::net {
namespace {

TEST(SimNetwork, AddHostsStartUp) {
  SimClock clock;
  SimNetwork network({}, &clock);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(network.host_count(), 2u);
  EXPECT_TRUE(network.is_up(a));
  network.set_up(a, false);
  EXPECT_FALSE(network.is_up(a));
}

TEST(SimNetwork, RemoteWireTimeIsHopLatency) {
  SimClock clock;
  NetworkConfig config;
  config.hop_latency = SimDuration::micros(100);
  config.per_byte = SimDuration::nanos(0);
  SimNetwork network(config, &clock);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  EXPECT_EQ(network.wire_time(a, b, 0), SimDuration::micros(100));
  // Pure: no clock movement, nothing counted.
  EXPECT_EQ(clock.now().ns, 0);
  EXPECT_EQ(network.stats(), NetStats{});
}

TEST(SimNetwork, LocalWireTimeIsLoopbackLatency) {
  SimClock clock;
  NetworkConfig config;
  config.hop_latency = SimDuration::micros(100);
  config.local_latency = SimDuration::micros(10);
  config.per_byte = SimDuration::nanos(0);
  SimNetwork network(config, &clock);
  const HostId a = network.add_host();
  EXPECT_EQ(network.wire_time(a, a, 0), SimDuration::micros(10));
}

TEST(SimNetwork, WireTimeAddsPerByteCost) {
  SimClock clock;
  NetworkConfig config;
  config.hop_latency = SimDuration::micros(120);
  config.local_latency = SimDuration::micros(0);
  config.per_byte = SimDuration::nanos(80);
  SimNetwork network(config, &clock);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  EXPECT_EQ(network.wire_time(a, a, 1000).ns, 80'000);
  EXPECT_EQ(network.wire_time(a, b, 1000).ns, 120'000 + 80'000);
}

TEST(SimNetwork, CountMessageCountsWithoutTime) {
  SimClock clock;
  SimNetwork network({}, &clock);
  network.count_message(64);
  network.count_message(0);  // a reply whose payload is not counted
  EXPECT_EQ(network.stats().messages, 2u);
  EXPECT_EQ(network.stats().bytes, 64u);
  EXPECT_EQ(network.stats().overlay_hops, 0u);
  EXPECT_EQ(clock.now().ns, 0);
}

TEST(SimNetwork, NoteTimeoutCountsWithoutTime) {
  SimClock clock;
  NetworkConfig config;
  config.rpc_timeout = SimDuration::millis(500);
  SimNetwork network(config, &clock);
  network.note_timeout();
  EXPECT_EQ(network.stats().timeouts, 1u);
  EXPECT_EQ(clock.now().ns, 0);
}

// plan_message judges and times a message without touching the clock:
// the caller turns the arrival into a delivery event.

TEST(FaultPlan, NoPlanDeliversEverything) {
  SimClock clock;
  NetworkConfig config;
  config.hop_latency = SimDuration::micros(100);
  config.per_byte = SimDuration::nanos(80);
  SimNetwork network(config, &clock);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  const SimDuration at = SimDuration::millis(7);
  const auto plan = network.plan_message(a, b, 1000, at);
  EXPECT_TRUE(plan.delivered);
  EXPECT_EQ(plan.arrival.ns, (at + SimDuration::micros(100) + SimDuration::micros(80)).ns);
  EXPECT_EQ(network.stats().messages, 1u);
  EXPECT_EQ(network.stats().bytes, 1000u);
  EXPECT_EQ(network.stats().drops, 0u);
  EXPECT_EQ(clock.now().ns, 0);
}

TEST(FaultPlan, DropProbabilityOneLosesEveryRemoteMessage) {
  SimClock clock;
  SimNetwork network({}, &clock);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  FaultPlanConfig fault;
  fault.drop_probability = 1.0;
  network.set_fault_plan(std::make_unique<FaultPlan>(fault));
  EXPECT_FALSE(network.plan_message(a, b, 0, clock.now()).delivered);
  EXPECT_EQ(network.stats().drops, 1u);
  EXPECT_EQ(network.stats().messages, 0u);
  EXPECT_EQ(clock.now().ns, 0);  // the caller charges loss, not the wire
  // Loopback traffic never traverses the wire and is never judged.
  const auto local = network.plan_message(a, a, 0, clock.now());
  EXPECT_TRUE(local.delivered);
  EXPECT_EQ(local.arrival.ns, network.config().local_latency.ns);
}

TEST(FaultPlan, BrownoutWindowIsBounded) {
  SimClock clock;
  SimNetwork network({}, &clock);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  auto plan = std::make_unique<FaultPlan>(FaultPlanConfig{});
  plan->add_brownout(b, SimDuration::millis(10), SimDuration::millis(20));
  network.set_fault_plan(std::move(plan));

  const SimDuration inside = SimDuration::millis(15);
  EXPECT_TRUE(network.plan_message(a, b, 0, SimDuration{}).delivered);  // before the window
  EXPECT_FALSE(network.plan_message(a, b, 0, inside).delivered);        // to the host
  EXPECT_FALSE(network.plan_message(b, a, 0, inside).delivered);        // and from it
  EXPECT_EQ(network.stats().drops, 2u);
  EXPECT_TRUE(network.plan_message(a, b, 0, SimDuration::millis(20)).delivered);  // half-open
  EXPECT_TRUE(network.plan_message(a, b, 0, SimDuration::millis(25)).delivered);  // after
  EXPECT_EQ(clock.now().ns, 0);
}

TEST(FaultPlan, PartitionBlocksCrossGroupTrafficOnly) {
  SimClock clock;
  SimNetwork network({}, &clock);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  const HostId c = network.add_host();
  auto plan = std::make_unique<FaultPlan>(FaultPlanConfig{});
  plan->add_partition({a}, {b}, SimDuration::nanos(0), SimDuration::seconds(1));
  network.set_fault_plan(std::move(plan));

  EXPECT_FALSE(network.plan_message(a, b, 0, SimDuration{}).delivered);
  EXPECT_FALSE(network.plan_message(b, a, 0, SimDuration{}).delivered);
  EXPECT_EQ(network.stats().partitioned, 2u);
  EXPECT_TRUE(network.plan_message(a, c, 0, SimDuration{}).delivered);  // unlisted host
  EXPECT_TRUE(network.plan_message(a, b, 0, SimDuration::seconds(2)).delivered);  // expired
  EXPECT_EQ(clock.now().ns, 0);
}

TEST(FaultPlan, ForcedDropHitsTheScheduledMessage) {
  SimClock clock;
  SimNetwork network({}, &clock);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  network.set_fault_plan(std::make_unique<FaultPlan>(FaultPlanConfig{}));
  network.fault_plan()->force_drop_message(2);
  EXPECT_TRUE(network.plan_message(a, b, 0, SimDuration{}).delivered);
  EXPECT_FALSE(network.plan_message(a, b, 0, SimDuration{}).delivered);
  EXPECT_TRUE(network.plan_message(a, b, 0, SimDuration{}).delivered);
  EXPECT_EQ(network.stats().drops, 1u);
  EXPECT_EQ(network.stats().messages, 2u);
}

TEST(FaultPlan, LatencySpikeDelaysArrival) {
  SimClock clock;
  NetworkConfig config;
  config.hop_latency = SimDuration::micros(100);
  config.per_byte = SimDuration::nanos(0);
  SimNetwork network(config, &clock);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  FaultPlanConfig fault;
  fault.latency_spike_probability = 1.0;
  fault.latency_spike = SimDuration::millis(3);
  network.set_fault_plan(std::make_unique<FaultPlan>(fault));
  const SimDuration at = SimDuration::millis(4);
  const auto plan = network.plan_message(a, b, 0, at);
  EXPECT_TRUE(plan.delivered);
  EXPECT_EQ(plan.arrival.ns, (at + SimDuration::micros(100) + SimDuration::millis(3)).ns);
  EXPECT_EQ(clock.now().ns, 0);
}

TEST(FaultPlan, SameSeedSameVerdicts) {
  FaultPlanConfig fault;
  fault.seed = 7;
  fault.drop_probability = 0.3;
  FaultPlan p1(fault);
  FaultPlan p2(fault);
  for (int i = 0; i < 200; ++i) {
    const auto now = SimDuration::millis(i);
    EXPECT_EQ(static_cast<int>(p1.judge(0, 1, now)), static_cast<int>(p2.judge(0, 1, now)));
  }
}

TEST(SimNetwork, StatsReset) {
  SimClock clock;
  SimNetwork network({}, &clock);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  (void)network.plan_message(a, b, 10, clock.now());
  network.stats().reset();
  EXPECT_EQ(network.stats().messages, 0u);
  EXPECT_EQ(network.stats().bytes, 0u);
}

}  // namespace
}  // namespace kosha::net
