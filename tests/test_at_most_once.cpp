// At-most-once semantics end to end: non-idempotent operations driven
// through the full koshad ladder must never double-execute or surface a
// spurious kExist/kNoEnt, even when retries exhaust with lost replies
// (kTimedOut) and the ladder re-invokes the operation — and a client
// incarnation revived after a crash must not be answered out of servers'
// duplicate-request caches populated by its previous life.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kosha/audit.hpp"
#include "kosha/mount.hpp"

namespace kosha {
namespace {

[[nodiscard]] bool is_retryable(nfs::NfsStat status) {
  return status == nfs::NfsStat::kUnreachable || status == nfs::NfsStat::kTimedOut ||
         status == nfs::NfsStat::kStale;
}

/// Drive one non-idempotent op the way a correct NFS client would: retry
/// retryable failures on the virtual clock, and after a kTimedOut (the op
/// may have executed) accept `done_status` — the "already applied" error —
/// as success. Any other error, or `done_status` with no preceding
/// kTimedOut, is a spurious failure and fails the test.
template <typename Op>
void drive(SimClock& clock, const char* what, nfs::NfsStat done_status, Op&& op) {
  bool maybe_done = false;
  for (int tries = 0; tries < 100; ++tries) {
    const nfs::NfsStat status = op();
    if (status == nfs::NfsStat::kOk) return;
    if (status == done_status && maybe_done) return;
    ASSERT_TRUE(is_retryable(status))
        << what << ": spurious " << nfs::to_string(status)
        << (maybe_done ? " (after kTimedOut)" : " (no kTimedOut ever reported)");
    if (status == nfs::NfsStat::kTimedOut) maybe_done = true;
    clock.advance(SimDuration::millis(200));
  }
  FAIL() << what << ": never succeeded";
}

TEST(AtMostOnce, LossyNetworkNeverYieldsSpuriousExistOrNoEnt) {
  ClusterConfig config;
  config.nodes = 8;
  config.kosha.replicas = 2;
  config.seed = 7001;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));
  // The working directory must live on a remote host: loopback traffic is
  // never judged by the fault plan, so a host-0 primary would see no loss
  // at all and the test would exercise nothing.
  net::HostId primary = net::kInvalidHost;
  std::string dir_path;
  for (int i = 0; i < 10 && primary == net::kInvalidHost; ++i) {
    const std::string candidate = "/s" + std::to_string(i);
    ASSERT_TRUE(mount.mkdir_p(candidate).ok());
    for (const net::HostId host : cluster.live_hosts()) {
      if (host == 0) continue;
      for (const auto& [anchor, name] : cluster.replicas(host).primaries()) {
        if (name == candidate.substr(1)) {
          primary = host;
          dir_path = candidate;
        }
      }
    }
  }
  ASSERT_NE(primary, net::kInvalidHost);
  const auto dir = mount.resolve(dir_path);
  ASSERT_TRUE(dir.ok());
  Koshad& daemon = cluster.daemon(0);
  SimClock& clock = cluster.clock();

  // Heavy loss: a third of all remote messages vanish, so retry ladders
  // regularly exhaust with replies lost — the exact regime in which a
  // re-invoked CREATE/REMOVE/RENAME used to double-execute and report
  // kExist/kNoEnt for its own earlier success.
  net::FaultPlanConfig fault;
  fault.seed = 1234;
  fault.drop_probability = 0.33;
  cluster.network().set_fault_plan(std::make_unique<net::FaultPlan>(fault));

  constexpr int kFiles = 30;
  for (int i = 0; i < kFiles; ++i) {
    const std::string name = std::string("f").append(std::to_string(i));
    drive(clock, "create", nfs::NfsStat::kExist, [&] {
      const auto r = daemon.create(*dir, name);
      return r.ok() ? nfs::NfsStat::kOk : r.error();
    });
  }
  for (int i = 0; i < kFiles; ++i) {
    const std::string from = std::string("f").append(std::to_string(i));
    const std::string to = std::string("g").append(std::to_string(i));
    // A rename that already took effect leaves the source gone: kNoEnt is
    // the double-execution symptom here.
    drive(clock, "rename", nfs::NfsStat::kNoEnt, [&] {
      const auto r = daemon.rename(*dir, from, *dir, to);
      return r.ok() ? nfs::NfsStat::kOk : r.error();
    });
  }
  for (int i = 0; i < kFiles; ++i) {
    const std::string name = std::string("g").append(std::to_string(i));
    drive(clock, "remove", nfs::NfsStat::kNoEnt, [&] {
      const auto r = daemon.remove(*dir, name);
      return r.ok() ? nfs::NfsStat::kOk : r.error();
    });
  }

  EXPECT_GT(cluster.network().stats().retries, 0u);  // the chaos was real
  // Quiesce the network for the final verification: the probabilistic drop
  // plan never expires, and the audit's own listings would otherwise time
  // out spuriously.
  cluster.network().set_fault_plan(
      std::make_unique<net::FaultPlan>(net::FaultPlanConfig{}));

  // Every file was created, renamed, and removed exactly once: nothing
  // may remain, and the replica bookkeeping done by adopted operations
  // must agree with the primaries.
  const auto listing = daemon.readdir(*dir);
  ASSERT_TRUE(listing.ok());
  EXPECT_TRUE(listing->entries.empty());
  const auto report = audit_cluster(cluster);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(AtMostOnce, RevivedClientIsNotAnsweredFromItsPreviousLifesDrcEntries) {
  ClusterConfig config;
  config.nodes = 8;
  config.kosha.replicas = 2;
  config.seed = 7100;
  KoshaCluster cluster(config);

  // Find a directory whose primary is a remote host, so that host's DRC
  // accumulates (client-0, xid) entries that survive client 0's crash.
  net::HostId primary = net::kInvalidHost;
  std::string dir;
  {
    KoshaMount mount(&cluster.daemon(0));
    for (int i = 0; i < 10 && primary == net::kInvalidHost; ++i) {
      const std::string candidate = "/d" + std::to_string(i);
      ASSERT_TRUE(mount.mkdir_p(candidate).ok());
      for (const net::HostId host : cluster.live_hosts()) {
        if (host == 0) continue;
        for (const auto& [anchor, name] : cluster.replicas(host).primaries()) {
          if (name == candidate.substr(1)) {
            primary = host;
            dir = candidate;
          }
        }
      }
    }
    ASSERT_NE(primary, net::kInvalidHost);
    // First incarnation: many non-idempotent RPCs fill the primary's DRC
    // with low-xid entries for client 0.
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(mount.write_file(dir + "/a" + std::to_string(i), "old").ok());
    }
    EXPECT_GT(cluster.server(primary).drc_stats().stores, 0u);
  }

  // Client 0 crashes and is revived: its daemon is rebuilt and its xid
  // counter restarts at 0, below values already cached at the primary.
  cluster.fail_node(0);
  cluster.revive_node(0);

  // The network is loss-free, so nothing retransmits: any DRC hit from
  // here on can only be a stale previous-incarnation entry masquerading
  // as a retry — exactly what the boot verifier must prevent.
  const auto hits_before = cluster.server(primary).drc_stats().hits;
  KoshaMount reborn(&cluster.daemon(0));
  for (int i = 0; i < 20; ++i) {
    const std::string file = dir + "/b" + std::to_string(i);
    ASSERT_TRUE(reborn.write_file(file, "new" + std::to_string(i)).ok()) << file;
  }
  EXPECT_EQ(cluster.server(primary).drc_stats().hits, hits_before);
  for (int i = 0; i < 20; ++i) {
    const std::string file = dir + "/b" + std::to_string(i);
    EXPECT_EQ(reborn.read_file(file).value_or("<gone>"), "new" + std::to_string(i)) << file;
  }
  // The first incarnation's files survived via replica promotion.
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(reborn.exists(dir + "/a" + std::to_string(i))) << i;
  }
  const auto report = audit_cluster(cluster);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

}  // namespace
}  // namespace kosha
