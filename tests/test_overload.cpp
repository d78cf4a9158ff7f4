// Overload control end to end: retry-backoff arithmetic, token-bucket retry
// budgets, circuit breakers, deadline-aware admission, server-side shedding
// that preserves at-most-once (reject before any DRC store), the repair
// daemon yielding to foreground load, Zipf workload skew, zero-overhead
// numeric identity while the subsystem is disabled, and the flash-crowd A/B:
// the uncontrolled system collapses metastably, the controlled one sheds
// during the spike and recovers to baseline within a bounded window.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "kosha/repair.hpp"
#include "net/sim_network.hpp"
#include "nfs/nfs_server.hpp"
#include "nfs/retry_policy.hpp"
#include "sim/concurrency_driver.hpp"
#include "sim/overload_sim.hpp"

namespace kosha {
namespace {

// --- retry backoff arithmetic -------------------------------------------

/// The historical per-step doubling chain backoff_for replaced: re-derive
/// the whole sequence one clamped multiplication at a time.
[[nodiscard]] SimDuration reference_backoff(const nfs::RetryPolicy& policy, unsigned attempt) {
  SimDuration wait = policy.initial_backoff;
  for (unsigned i = 0; i < attempt; ++i) {
    if (wait.ns > policy.max_backoff.ns / 2) return policy.max_backoff;
    wait = SimDuration::nanos(wait.ns * 2);
  }
  return std::min(wait, policy.max_backoff);
}

TEST(RetryBackoff, DirectComputationMatchesDoublingChainBitForBit) {
  nfs::RetryPolicy policy;
  policy.initial_backoff = SimDuration::millis(10);
  policy.multiplier = 2.0;
  policy.max_backoff = SimDuration::millis(320);
  for (unsigned attempt = 0; attempt < 80; ++attempt) {
    EXPECT_EQ(policy.backoff_for(attempt).ns, reference_backoff(policy, attempt).ns)
        << "attempt " << attempt;
  }
  // Odd initial values must clamp identically too (10ms -> 320ms is exact).
  policy.initial_backoff = SimDuration::nanos(3'333'333);
  for (unsigned attempt = 0; attempt < 80; ++attempt) {
    EXPECT_EQ(policy.backoff_for(attempt).ns, reference_backoff(policy, attempt).ns)
        << "attempt " << attempt;
  }
}

TEST(RetryBackoff, CeilingClampAndHugeAttemptsDoNotOverflow) {
  nfs::RetryPolicy policy;
  policy.initial_backoff = SimDuration::millis(1);
  policy.max_backoff = SimDuration::millis(64);
  // Attempts far past the point where 1ms << attempt would overflow int64.
  for (const unsigned attempt : {7u, 20u, 62u, 63u, 80u, 1000u}) {
    EXPECT_EQ(policy.backoff_for(attempt).ns, policy.max_backoff.ns) << "attempt " << attempt;
  }
  // initial >= ceiling: every attempt is the ceiling, including attempt 0.
  policy.initial_backoff = SimDuration::millis(100);
  EXPECT_EQ(policy.backoff_for(0).ns, policy.max_backoff.ns);
}

TEST(RetryBackoff, NonPowerOfTwoMultiplierIsMonotoneAndClamped) {
  nfs::RetryPolicy policy;
  policy.initial_backoff = SimDuration::millis(2);
  policy.multiplier = 1.7;
  policy.max_backoff = SimDuration::millis(100);
  EXPECT_EQ(policy.backoff_for(0).ns, policy.initial_backoff.ns);
  std::int64_t prev = 0;
  for (unsigned attempt = 0; attempt < 40; ++attempt) {
    const std::int64_t ns = policy.backoff_for(attempt).ns;
    EXPECT_GE(ns, prev) << "attempt " << attempt;
    EXPECT_LE(ns, policy.max_backoff.ns) << "attempt " << attempt;
    prev = ns;
  }
  EXPECT_EQ(policy.backoff_for(39).ns, policy.max_backoff.ns);
  // Pre-clamp values follow the closed form.
  const double expect3 = 2e6 * std::pow(1.7, 3.0);
  EXPECT_EQ(policy.backoff_for(3).ns, static_cast<std::int64_t>(expect3));
}

TEST(RetryBackoff, JitterIsDeterministicPerSeedAndZeroJitterDrawsNothing) {
  nfs::RetryPolicy policy;
  policy.jitter = 0.25;
  Rng a(1234);
  Rng b(1234);
  for (unsigned attempt = 0; attempt < 8; ++attempt) {
    const SimDuration wa = policy.jittered_backoff(attempt, a);
    const SimDuration wb = policy.jittered_backoff(attempt, b);
    EXPECT_EQ(wa.ns, wb.ns) << "attempt " << attempt;
    EXPECT_GE(wa.ns, policy.backoff_for(attempt).ns);
    EXPECT_LE(wa.ns, policy.backoff_for(attempt).ns +
                         static_cast<std::int64_t>(policy.backoff_for(attempt).ns * 0.25) + 1);
  }
  // jitter == 0: exact backoff_for and no Rng draw consumed.
  policy.jitter = 0.0;
  Rng c(77);
  Rng untouched(77);
  EXPECT_EQ(policy.jittered_backoff(3, c).ns, policy.backoff_for(3).ns);
  EXPECT_EQ(c.next_u64(), untouched.next_u64());
}

// --- retry budget and circuit breaker -----------------------------------

TEST(RetryBudget, SpendDrainsEarnRefillsAndCapHolds) {
  nfs::RetryBudget budget(2.0, 0.5);
  EXPECT_TRUE(budget.spend());
  EXPECT_TRUE(budget.spend());
  EXPECT_FALSE(budget.spend()) << "empty bucket must refuse";
  EXPECT_EQ(budget.exhausted(), 1u);
  budget.earn();  // 0.5 tokens: still below one whole retry
  EXPECT_FALSE(budget.spend());
  EXPECT_EQ(budget.exhausted(), 2u);
  budget.earn();
  EXPECT_TRUE(budget.spend());
  for (int i = 0; i < 100; ++i) budget.earn();
  EXPECT_DOUBLE_EQ(budget.tokens(), 2.0) << "earn must saturate at the cap";
}

TEST(CircuitBreaker, OpensAtThresholdProbesAfterCooldownAndRecloses) {
  nfs::CircuitBreaker breaker(3, SimDuration::millis(50));
  SimDuration now = SimDuration::millis(1);
  breaker.on_failure(now);
  breaker.on_failure(now);
  EXPECT_EQ(breaker.state(), nfs::CircuitBreaker::State::kClosed);
  breaker.on_failure(now);
  EXPECT_EQ(breaker.state(), nfs::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);
  // Within the cooldown: fast-fail, counted.
  EXPECT_FALSE(breaker.allow(now + SimDuration::millis(10)));
  EXPECT_FALSE(breaker.allow(now + SimDuration::millis(49)));
  EXPECT_EQ(breaker.fast_fails(), 2u);
  // Cooldown elapsed: exactly one half-open probe.
  now = now + SimDuration::millis(50);
  EXPECT_TRUE(breaker.allow(now));
  EXPECT_EQ(breaker.state(), nfs::CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.allow(now)) << "one probe at a time";
  breaker.on_success();
  EXPECT_EQ(breaker.state(), nfs::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(now));
}

TEST(CircuitBreaker, FailedProbeReopensForAnotherCooldown) {
  nfs::CircuitBreaker breaker(2, SimDuration::millis(20));
  breaker.on_failure(SimDuration::millis(1));
  breaker.on_failure(SimDuration::millis(1));
  ASSERT_EQ(breaker.state(), nfs::CircuitBreaker::State::kOpen);
  ASSERT_TRUE(breaker.allow(SimDuration::millis(30)));
  breaker.on_failure(SimDuration::millis(30));  // probe fails
  EXPECT_EQ(breaker.state(), nfs::CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 2u);
  EXPECT_FALSE(breaker.allow(SimDuration::millis(40)));
  EXPECT_TRUE(breaker.allow(SimDuration::millis(51)));
}

// --- network admission ---------------------------------------------------

class AdmissionTest : public ::testing::Test {
 protected:
  SimClock clock_;
  net::SimNetwork network_{net::NetworkConfig{}, &clock_};
};

TEST_F(AdmissionTest, DefaultAdmissionAdmitsEverythingAndMovesNoCounter) {
  network_.note_inflight(0, 100);
  EXPECT_EQ(network_.admit(0, SimDuration::millis(1), SimDuration::nanos(1), false),
            net::SimNetwork::Admit::kAdmit);
  EXPECT_EQ(network_.admit(0, SimDuration::millis(1), SimDuration{}, true),
            net::SimNetwork::Admit::kAdmit);
  EXPECT_EQ(network_.stats().admission_rejected, 0u);
  EXPECT_EQ(network_.stats().deadline_rejected, 0u);
  EXPECT_EQ(network_.stats().shed_low_priority, 0u);
}

TEST_F(AdmissionTest, InflightBoundRejectsForegroundAndTighterBoundShedsBackground) {
  network_.set_admission({.max_inflight = 4, .low_priority_inflight = 2});
  network_.note_inflight(3, 2);
  // Background already at its bound; foreground still fits.
  EXPECT_EQ(network_.admit(3, SimDuration{}, SimDuration{}, true),
            net::SimNetwork::Admit::kRejectInflight);
  EXPECT_EQ(network_.stats().shed_low_priority, 1u);
  EXPECT_EQ(network_.admit(3, SimDuration{}, SimDuration{}, false),
            net::SimNetwork::Admit::kAdmit);
  network_.note_inflight(3, 2);
  EXPECT_EQ(network_.admit(3, SimDuration{}, SimDuration{}, false),
            net::SimNetwork::Admit::kRejectInflight);
  EXPECT_EQ(network_.stats().admission_rejected, 1u);
  // A different host is unaffected.
  EXPECT_EQ(network_.admit(4, SimDuration{}, SimDuration{}, false),
            net::SimNetwork::Admit::kAdmit);
}

TEST_F(AdmissionTest, DeadlineRejectsWhenHeadOfQueueServiceWouldStartTooLate) {
  network_.set_admission({.max_inflight = 64, .low_priority_inflight = 0});
  network_.end_service(5, SimDuration::millis(50));  // busy until t=50ms
  const SimDuration arrival = SimDuration::millis(10);
  EXPECT_EQ(network_.admit(5, arrival, SimDuration::millis(20), false),
            net::SimNetwork::Admit::kRejectDeadline);
  EXPECT_EQ(network_.stats().deadline_rejected, 1u);
  EXPECT_EQ(network_.admit(5, arrival, SimDuration::millis(60), false),
            net::SimNetwork::Admit::kAdmit);
  // No deadline (0) never deadline-rejects, however busy the host.
  EXPECT_EQ(network_.admit(5, arrival, SimDuration{}, false), net::SimNetwork::Admit::kAdmit);
  EXPECT_EQ(network_.stats().deadline_rejected, 1u);
}

// --- server-side shedding preserves at-most-once -------------------------

TEST(ServerShedding, ExpiredDeadlineRejectsBeforeAnyDrcStoreAndRetryExecutesOnce) {
  ClusterConfig config;
  config.nodes = 1;
  config.seed = 4242;
  KoshaCluster cluster(config);
  nfs::NfsServer& server = cluster.server(0);
  cluster.clock().advance(SimDuration::millis(10));

  nfs::RpcContext ctx{/*client=*/1, /*xid=*/99, /*boot=*/1};
  ctx.deadline = SimDuration::millis(5);  // already in the past

  const std::uint64_t stores_before = server.drc_stats().stores;
  const auto shed = server.create(server.root_handle(), "shedme", 0644, 0, 0, ctx);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.error(), nfs::NfsStat::kOverloaded);
  EXPECT_EQ(server.deadline_rejects(), 1u);
  // P3: the rejection must NOT have been recorded in the duplicate-request
  // cache — a cached kOverloaded would answer every retransmission of this
  // xid with the rejection forever (at-most-once becomes at-most-never).
  EXPECT_EQ(server.drc_stats().stores, stores_before);

  // The client retransmits the same request (same xid) once the overload
  // clears, now with a fresh (or no) deadline: it must actually execute.
  ctx.deadline = SimDuration{};
  const auto retry = server.create(server.root_handle(), "shedme", 0644, 0, 0, ctx);
  ASSERT_TRUE(retry.ok()) << nfs::to_string(retry.error());
  EXPECT_EQ(server.drc_stats().stores, stores_before + 1);

  // And a further retransmission is answered from the cache, not re-executed
  // (a re-execution would surface a spurious kExist).
  const std::uint64_t hits_before = server.drc_stats().hits;
  const auto dup = server.create(server.root_handle(), "shedme", 0644, 0, 0, ctx);
  ASSERT_TRUE(dup.ok()) << nfs::to_string(dup.error());
  EXPECT_EQ(server.drc_stats().hits, hits_before + 1);

  // A deadline still in the future does not shed.
  ctx.xid = 100;
  ctx.deadline = cluster.clock().now() + SimDuration::millis(5);
  EXPECT_TRUE(server.create(server.root_handle(), "fresh", 0644, 0, 0, ctx).ok());
  EXPECT_EQ(server.deadline_rejects(), 1u);
}

// --- config validation ---------------------------------------------------

TEST(OverloadConfigValidate, EachKnobIsRangeChecked) {
  KoshaConfig base;
  base.overload.enabled = true;
  ASSERT_TRUE(base.validate().empty()) << base.validate();

  auto expect_rejected = [&](auto mutate, const char* what) {
    KoshaConfig config = base;
    mutate(config.overload);
    const std::string err = config.validate();
    EXPECT_FALSE(err.empty()) << what;
    EXPECT_NE(err.find("overload."), std::string::npos) << what << ": " << err;
  };
  expect_rejected([](auto& o) { o.max_inflight = 0; }, "max_inflight zero");
  expect_rejected([](auto& o) { o.low_priority_fraction = 0.0; }, "fraction zero");
  expect_rejected([](auto& o) { o.low_priority_fraction = 1.5; }, "fraction above one");
  expect_rejected([](auto& o) { o.retry_budget_cap = 0.5; }, "cap below one");
  expect_rejected([](auto& o) { o.retry_budget_refill = 0.0; }, "refill zero");
  expect_rejected([](auto& o) { o.retry_budget_refill = o.retry_budget_cap + 1; },
                  "refill above cap");
  expect_rejected([](auto& o) { o.breaker_cooldown = SimDuration{}; }, "cooldown zero");
  expect_rejected([](auto& o) { o.op_budget = SimDuration::nanos(-1); }, "negative budget");

  // Disabled: only op_budget sign is checked; odd knob values are inert.
  KoshaConfig off = base;
  off.overload.enabled = false;
  off.overload.max_inflight = 0;
  off.overload.retry_budget_cap = 0.0;
  EXPECT_TRUE(off.validate().empty()) << off.validate();
}

// --- Zipf sampler and workload skew --------------------------------------

TEST(Zipf, SamplerIsDeterministicSkewedAndInRange) {
  const sim::ZipfSampler sampler(16, 1.1);
  ASSERT_EQ(sampler.size(), 16u);
  Rng a(2026);
  Rng b(2026);
  std::vector<std::size_t> counts(16, 0);
  for (int i = 0; i < 20'000; ++i) {
    const std::size_t rank = sampler.sample(a);
    ASSERT_LT(rank, 16u);
    EXPECT_EQ(rank, sampler.sample(b)) << "same seed must give the same sequence";
    ++counts[rank];
  }
  // Zipf(1.1) over 16 ranks: rank 0 carries ~28% of the mass, the tail
  // rank ~1.4% — the head must dominate and the distribution must be
  // monotone in expectation (allow sampling noise between neighbors by
  // only comparing head, middle, and tail).
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[8]);
  EXPECT_GT(counts[8], 0u);
  EXPECT_GT(counts[0], 20'000 / 5) << "head rank must carry the bulk of the draws";
}

TEST(Zipf, SkewedWorkloadRunsCleanAndDeterministically) {
  auto run = [] {
    ClusterConfig config;
    config.nodes = 4;
    config.kosha.replicas = 2;
    config.seed = 913;
    KoshaCluster cluster(config);
    sim::WorkloadConfig workload;
    workload.clients = 4;
    workload.files_per_client = 8;
    workload.file_bytes = 2048;
    workload.reads_per_file = 4;
    workload.zipf_s = 1.2;
    return sim::run_multi_client_workload(cluster, workload);
  };
  const sim::WorkloadResult first = run();
  const sim::WorkloadResult second = run();
  EXPECT_GT(first.ops, 0u);
  EXPECT_EQ(first.failures, 0u);
  EXPECT_EQ(first.makespan.ns, second.makespan.ns);
  EXPECT_EQ(first.busy.ns, second.busy.ns);
  EXPECT_EQ(first.ops, second.ops);
}

// --- zero overhead while disabled ----------------------------------------

TEST(DisabledIdentity, PresentButDisabledOverloadConfigChangesNothing) {
  auto run = [](bool configure_knobs) {
    ClusterConfig config;
    config.nodes = 4;
    config.kosha.replicas = 2;
    config.seed = 515;
    if (configure_knobs) {
      // Every knob set to a non-default value — but enabled stays false,
      // so none of it may influence the run.
      config.kosha.overload.enabled = false;
      config.kosha.overload.max_inflight = 2;
      config.kosha.overload.low_priority_fraction = 0.9;
      config.kosha.overload.retry_budget_cap = 1.0;
      config.kosha.overload.retry_budget_refill = 0.01;
      config.kosha.overload.breaker_threshold = 1;
      config.kosha.overload.breaker_cooldown = SimDuration::millis(1);
      config.kosha.overload.op_budget = SimDuration::millis(1);
      config.kosha.overload.repair_yield_inflight = 1;
    }
    KoshaCluster cluster(config);
    sim::WorkloadConfig workload;
    workload.clients = 3;
    workload.files_per_client = 6;
    workload.file_bytes = 4096;
    const sim::WorkloadResult result = sim::run_multi_client_workload(cluster, workload);
    return std::pair(result, cluster.network().stats());
  };
  const auto [plain_result, plain_net] = run(false);
  const auto [knobs_result, knobs_net] = run(true);
  EXPECT_EQ(plain_result.makespan.ns, knobs_result.makespan.ns);
  EXPECT_EQ(plain_result.busy.ns, knobs_result.busy.ns);
  EXPECT_EQ(plain_result.ops, knobs_result.ops);
  EXPECT_EQ(plain_result.failures, knobs_result.failures);
  EXPECT_EQ(plain_net, knobs_net) << "disabled overload control moved a network counter";
  EXPECT_EQ(knobs_net.admission_rejected, 0u);
  EXPECT_EQ(knobs_net.deadline_rejected, 0u);
  EXPECT_EQ(knobs_net.expired, 0u);
  EXPECT_EQ(knobs_net.shed_low_priority, 0u);
}

// --- repair daemon yields to foreground load -----------------------------

TEST(RepairYield, TickPerformsNoPushesWhileForegroundInflightIsHigh) {
  ClusterConfig config;
  config.nodes = 4;
  config.kosha.replicas = 2;
  config.seed = 606;
  config.self_heal.enabled = true;
  config.kosha.overload.enabled = true;
  config.kosha.overload.repair_yield_inflight = 4;
  KoshaCluster cluster(config);
  cluster.loop().run_until_time(cluster.clock().now() + SimDuration::millis(500));
  RepairDaemon* daemon = cluster.repair_daemon(0);
  ASSERT_NE(daemon, nullptr);

  cluster.network().note_inflight(0, 8);
  const std::uint64_t yields_before = daemon->stats().yields;
  daemon->tick();
  EXPECT_EQ(daemon->stats().yields, yields_before + 1)
      << "a loaded host's repair tick must yield";

  cluster.network().note_inflight(0, -8);
  daemon->tick();
  EXPECT_EQ(daemon->stats().yields, yields_before + 1)
      << "an idle host's repair tick must not yield";
}

// --- flash crowd: metastable collapse and its cure ------------------------

TEST(FlashCrowd, UncontrolledSystemCollapsesAndStaysCollapsed) {
  sim::FlashCrowdConfig config;
  config.controlled = false;
  const sim::FlashCrowdResult result = sim::simulate_flash_crowd(config);
  EXPECT_GT(result.baseline_ops, 0.0);
  // The failure is metastable: long after the spike ends, goodput is still
  // pinned far below baseline, because abandoned-but-queued requests eat
  // the server's capacity (dead work) and retries replace every casualty.
  EXPECT_LT(result.post_over_baseline, 0.5)
      << "post-spike goodput recovered; the metastable trap did not arm";
  EXPECT_FALSE(result.recovered);
  EXPECT_GT(result.timeouts, 0u) << "collapse requires abandoned attempts";
  EXPECT_GT(result.retries, 0u) << "collapse requires retry amplification";
  // No overload machinery ran in this arm.
  EXPECT_EQ(result.admission_rejected, 0u);
  EXPECT_EQ(result.deadline_rejected, 0u);
  EXPECT_EQ(result.overloaded_replies, 0u);
  EXPECT_EQ(result.breaker_opens, 0u);
}

TEST(FlashCrowd, ControlledSystemShedsDuringSpikeAndRecovers) {
  sim::FlashCrowdConfig config;
  config.controlled = true;
  const sim::FlashCrowdResult result = sim::simulate_flash_crowd(config);
  EXPECT_TRUE(result.recovered) << "post-spike goodput never returned to baseline";
  EXPECT_GE(result.post_over_baseline, 0.95);
  EXPECT_LE(result.recovery_after_spike.ns, SimDuration::millis(2000).ns)
      << "recovery took longer than the bounded window";
  // The cure is visible in the mechanism counters: load was refused
  // cheaply rather than served late.
  EXPECT_GT(result.deadline_rejected, 0u) << "deadline-aware admission never fired";
  EXPECT_GT(result.overloaded_replies, 0u);
  EXPECT_GT(result.budget_exhausted, 0u) << "retry budgets never clamped";
  EXPECT_GT(result.breaker_opens, 0u) << "breakers never opened";
}

TEST(FlashCrowd, SameSeedRunsAreByteIdenticalAndArmsAgreeBeforeTheSpike) {
  sim::FlashCrowdConfig config;
  config.controlled = false;
  const sim::FlashCrowdResult u1 = sim::simulate_flash_crowd(config);
  const sim::FlashCrowdResult u2 = sim::simulate_flash_crowd(config);
  EXPECT_EQ(u1.timeline_csv, u2.timeline_csv);
  EXPECT_EQ(u1.digest, u2.digest);

  config.controlled = true;
  const sim::FlashCrowdResult c1 = sim::simulate_flash_crowd(config);
  const sim::FlashCrowdResult c2 = sim::simulate_flash_crowd(config);
  EXPECT_EQ(c1.timeline_csv, c2.timeline_csv);
  EXPECT_EQ(c1.digest, c2.digest);
  EXPECT_NE(c1.digest, u1.digest) << "arms must differ once the spike hits";

  // Until the spike arrives the controlled arm's machinery has nothing to
  // do, and doing nothing must cost nothing: pre-spike windows match the
  // uncontrolled arm count for count.
  const std::size_t pre_spike_windows =
      static_cast<std::size_t>(config.spike_start.ns / config.window.ns);
  ASSERT_GE(u1.windows.size(), pre_spike_windows);
  ASSERT_GE(c1.windows.size(), pre_spike_windows);
  for (std::size_t w = 0; w < pre_spike_windows; ++w) {
    EXPECT_EQ(u1.windows[w].ok, c1.windows[w].ok) << "window " << w;
    EXPECT_EQ(u1.windows[w].failed, c1.windows[w].failed) << "window " << w;
  }
}

}  // namespace
}  // namespace kosha
