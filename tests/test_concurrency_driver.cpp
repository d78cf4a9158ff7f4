// Multi-client workload driver: concurrency wins and determinism of the
// event-driven execution model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"
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
  return std::string("c").append(std::to_string(client)).append("f").append(
      std::to_string(file)).append(":");
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

// --- run_closed_loop against a brute-force reference ----------------------

/// A random closed-loop schedule on coarse grids, so equal start times,
/// equal op durations and equal completions are common.
struct Schedule {
  SimDuration entry;  // the clock when the run begins
  std::vector<sim::Timeline> clients;
  std::vector<SimDuration> think;              // completion -> next issue
  std::vector<std::vector<SimDuration>> took;  // took[i][k]: client i's op k
};

Schedule random_schedule(Rng& rng) {
  const auto grid = [&rng](std::uint64_t steps) {
    return SimDuration::nanos(static_cast<std::int64_t>(10 * rng.next_below(steps)));
  };
  Schedule s;
  s.entry = grid(3);
  const std::size_t n = 1 + rng.next_below(7);
  for (std::size_t i = 0; i < n; ++i) {
    sim::Timeline t{.start = grid(4)};
    // Stop at or before the start (never runs), somewhere after it (may
    // stop part-way), or never (runs out of ops instead).
    const std::uint64_t kind = rng.next_below(3);
    if (kind == 0) t.stop = t.start - grid(2);
    if (kind == 1) t.stop = t.start + grid(8);
    s.clients.push_back(t);
    s.think.push_back(grid(2));
    s.took.emplace_back(1 + rng.next_below(6));
    for (SimDuration& d : s.took.back()) d = grid(3);
  }
  return s;
}

struct Dispatch {
  std::size_t client;
  SimDuration issued;
  bool operator==(const Dispatch&) const = default;
};

struct Trace {
  std::vector<Dispatch> dispatched;
  SimDuration last_done;  // where the last op left the clock
  SimDuration latest;     // the latest completion (the entry time if none)
};

/// The reference: each step scans every client for the lowest next issue
/// time with a strict `<` (so ties go to the lowest index), among clients
/// with ops left whose next issue time is before their stop.
Trace reference_run(const Schedule& s) {
  const std::size_t n = s.clients.size();
  std::vector<SimDuration> local(n);
  std::vector<std::size_t> ran(n, 0);
  for (std::size_t i = 0; i < n; ++i) local[i] = s.clients[i].start;
  Trace run{.dispatched = {}, .last_done = s.entry, .latest = s.entry};
  for (;;) {
    std::size_t pick = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (ran[i] == s.took[i].size() || local[i] >= s.clients[i].stop) continue;
      if (pick == n || local[i] < local[pick]) pick = i;
    }
    if (pick == n) return run;
    run.dispatched.push_back({pick, local[pick]});
    run.last_done = local[pick] + s.took[pick][ran[pick]++];
    run.latest = std::max(run.latest, run.last_done);
    local[pick] = run.last_done + s.think[pick];
  }
}

/// The same schedule through the runner; `clock_at_exit` is where it left
/// the clock.
Trace runner_run(const Schedule& s, SimDuration* clock_at_exit) {
  SimClock clock;
  clock.advance(s.entry);
  std::vector<std::size_t> ran(s.clients.size(), 0);
  Trace run{.dispatched = {}, .last_done = s.entry, .latest = {}};
  const auto op = [&](std::size_t i) {
    run.dispatched.push_back({i, clock.now()});
    clock.advance(s.took[i][ran[i]++]);
    return i % 2 == 0;
  };
  const auto next = [&](std::size_t i, sim::OpSpan span, bool ok) -> std::optional<SimDuration> {
    EXPECT_EQ(span.issued, run.dispatched.back().issued);
    EXPECT_EQ(span.took(), s.took[i][ran[i] - 1]);
    EXPECT_EQ(ok, i % 2 == 0);
    run.last_done = span.done;
    if (ran[i] == s.took[i].size()) return std::nullopt;
    return span.done + s.think[i];
  };
  const auto timeline = [&s](std::size_t i) { return s.clients[i]; };
  run.latest = sim::run_closed_loop(clock, s.clients.size(), timeline, op, next);
  *clock_at_exit = clock.now();
  return run;
}

TEST(ClosedLoopRunner, MatchesTheBruteForceScanOnRandomSchedules) {
  Rng rng(2024);
  std::size_t ties = 0, never_ran = 0, stopped_early = 0, clocks_differ = 0;
  for (int round = 0; round < 500; ++round) {
    const Schedule s = random_schedule(rng);
    const Trace want = reference_run(s);
    SimDuration clock_at_exit;
    const Trace got = runner_run(s, &clock_at_exit);
    ASSERT_EQ(got.dispatched, want.dispatched) << "round " << round;
    EXPECT_EQ(got.latest, want.latest) << "round " << round;
    EXPECT_EQ(clock_at_exit, want.last_done) << "round " << round;

    // Tally the cases the schedules must cover.
    std::vector<std::size_t> ran(s.clients.size(), 0);
    for (std::size_t k = 0; k < want.dispatched.size(); ++k) {
      ++ran[want.dispatched[k].client];
      if (k > 0 && want.dispatched[k].issued == want.dispatched[k - 1].issued) ++ties;
    }
    for (std::size_t i = 0; i < s.clients.size(); ++i) {
      if (s.clients[i].start >= s.clients[i].stop) {
        EXPECT_EQ(ran[i], 0u) << "round " << round << " client " << i;
        ++never_ran;
      } else if (ran[i] > 0 && ran[i] < s.took[i].size()) {
        ++stopped_early;
      }
    }
    if (want.latest != want.last_done) ++clocks_differ;
  }
  EXPECT_GT(ties, 100u);
  EXPECT_GT(never_ran, 100u);
  EXPECT_GT(stopped_early, 100u);
  EXPECT_GT(clocks_differ, 20u);
}

TEST(ConcurrencyDriver, ClockEndsAtTheLatestClientFinish) {
  // The runner leaves the clock where the last op left it. Here (a mkdir
  // and one write per client) the last op to run is not the last to
  // finish, and the workload must still end with its last client.
  for (const std::uint64_t seed : {7u, 42u}) {
    KoshaCluster cluster(cluster_config(1, seed));
    const SimDuration t0 = cluster.clock().now();
    sim::WorkloadConfig workload;
    workload.clients = 12;
    workload.files_per_client = 1;
    workload.reads_per_file = 0;
    const auto result = sim::run_multi_client_workload(cluster, workload);
    EXPECT_EQ(result.failures, 0u);
    EXPECT_EQ(cluster.clock().now(), t0 + result.makespan) << "seed " << seed;
  }
}

}  // namespace
}  // namespace kosha
