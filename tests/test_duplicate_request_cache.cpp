// NFS duplicate-request cache: a retransmission whose original request
// executed but whose reply was lost must return the cached reply instead
// of re-executing — retried non-idempotent ops leave exactly one effect
// and never report spurious kExist/kNoEnt.

#include <gtest/gtest.h>

#include "kosha/cluster.hpp"
#include "nfs/nfs_client.hpp"

namespace kosha::nfs {
namespace {

struct Fixture {
  SimClock clock;
  net::SimNetwork network{{}, &clock};
  net::HostId client_host = network.add_host();
  net::HostId server_host = network.add_host();
  NfsServer server{server_host, {}, {}, &clock};
  ServerDirectory directory;
  NfsClient client{&network, &directory, client_host};

  Fixture() {
    directory.add(&server);
    // Pure windowed/forced plan: no random faults, so every loss below is
    // scheduled explicitly with force_drop_message.
    network.set_fault_plan(std::make_unique<net::FaultPlan>(net::FaultPlanConfig{}));
  }

  /// Drop the reply of the next RPC (message 1 = request, 2 = reply).
  void drop_next_reply() { network.fault_plan()->force_drop_message(2); }
  /// Drop the request of the next RPC: the op must not execute at all
  /// before the retransmission.
  void drop_next_request() { network.fault_plan()->force_drop_message(1); }

  [[nodiscard]] FileHandle root() { return server.root_handle(); }
};

TEST(DuplicateRequestCache, CreateRetryReturnsCachedReply) {
  Fixture fx;
  fx.drop_next_reply();
  const auto created = fx.client.create(fx.root(), "f", 0600, 7);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created->attr.mode, 0600u);
  EXPECT_EQ(fx.server.drc_stats().hits, 1u);
  EXPECT_EQ(fx.network.stats().retries, 1u);
  EXPECT_EQ(fx.network.stats().drops, 1u);
  // Exactly one file exists; the handle is live, not a re-created twin.
  const auto listing = fx.server.readdir(fx.root());
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->entries.size(), 1u);
  EXPECT_EQ(listing->entries[0].name, "f");
  EXPECT_TRUE(fx.server.getattr(created->handle).ok());
}

TEST(DuplicateRequestCache, MkdirRetryDoesNotReportExist) {
  Fixture fx;
  fx.drop_next_reply();
  const auto made = fx.client.mkdir(fx.root(), "d");
  ASSERT_TRUE(made.ok()) << to_string(made.error());
  EXPECT_EQ(fx.server.drc_stats().hits, 1u);
  const auto listing = fx.server.readdir(fx.root());
  ASSERT_EQ(listing->entries.size(), 1u);
  EXPECT_EQ(listing->entries[0].type, fs::FileType::kDirectory);
}

TEST(DuplicateRequestCache, SymlinkRetryReturnsCachedReply) {
  Fixture fx;
  fx.drop_next_reply();
  const auto linked = fx.client.symlink(fx.root(), "l", "target");
  ASSERT_TRUE(linked.ok());
  EXPECT_EQ(fx.server.drc_stats().hits, 1u);
  const auto target = fx.server.readlink(linked->handle);
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(target.value(), "target");
}

TEST(DuplicateRequestCache, RemoveRetryDoesNotReportNoEnt) {
  Fixture fx;
  ASSERT_TRUE(fx.client.create(fx.root(), "f").ok());
  fx.drop_next_reply();
  // Without the DRC the retransmission would re-execute REMOVE against an
  // already-deleted name and surface kNoEnt to a client whose op worked.
  EXPECT_TRUE(fx.client.remove(fx.root(), "f").ok());
  EXPECT_EQ(fx.server.drc_stats().hits, 1u);
  EXPECT_TRUE(fx.server.readdir(fx.root())->entries.empty());
}

TEST(DuplicateRequestCache, RmdirRetryDoesNotReportNoEnt) {
  Fixture fx;
  ASSERT_TRUE(fx.client.mkdir(fx.root(), "d").ok());
  fx.drop_next_reply();
  EXPECT_TRUE(fx.client.rmdir(fx.root(), "d").ok());
  EXPECT_EQ(fx.server.drc_stats().hits, 1u);
  EXPECT_TRUE(fx.server.readdir(fx.root())->entries.empty());
}

TEST(DuplicateRequestCache, RenameRetryDoesNotReportNoEnt) {
  Fixture fx;
  ASSERT_TRUE(fx.client.create(fx.root(), "a").ok());
  fx.drop_next_reply();
  EXPECT_TRUE(fx.client.rename(fx.root(), "a", fx.root(), "b").ok());
  EXPECT_EQ(fx.server.drc_stats().hits, 1u);
  const auto listing = fx.server.readdir(fx.root());
  ASSERT_EQ(listing->entries.size(), 1u);
  EXPECT_EQ(listing->entries[0].name, "b");
}

TEST(DuplicateRequestCache, ErrorRepliesAreCachedToo) {
  Fixture fx;
  ASSERT_TRUE(fx.client.create(fx.root(), "f").ok());
  fx.drop_next_reply();
  // The first execution fails with kExist; the retransmission must return
  // that same cached error, not re-run and double-count anything.
  EXPECT_EQ(fx.client.create(fx.root(), "f").error(), NfsStat::kExist);
  EXPECT_EQ(fx.server.drc_stats().hits, 1u);
  EXPECT_EQ(fx.server.readdir(fx.root())->entries.size(), 1u);
}

TEST(DuplicateRequestCache, LostRequestExecutesOnceOnRetry) {
  Fixture fx;
  fx.drop_next_request();
  const auto created = fx.client.create(fx.root(), "f");
  ASSERT_TRUE(created.ok());
  // The original request never reached the server, so the retry was a
  // first execution: no DRC hit, exactly one file.
  EXPECT_EQ(fx.server.drc_stats().hits, 0u);
  EXPECT_EQ(fx.server.drc_stats().stores, 1u);
  EXPECT_EQ(fx.network.stats().retries, 1u);
  EXPECT_EQ(fx.server.readdir(fx.root())->entries.size(), 1u);
}

TEST(DuplicateRequestCache, RetriesExhaustToUnreachable) {
  Fixture fx;
  const unsigned attempts = fx.client.retry_policy().max_attempts;
  // Every transmission is a request (a dropped request produces no reply),
  // so dropping messages 1..attempts loses all of them.
  for (unsigned i = 0; i < attempts; ++i) {
    fx.network.fault_plan()->force_drop_message(i + 1);
  }
  EXPECT_EQ(fx.client.create(fx.root(), "f").error(), NfsStat::kUnreachable);
  EXPECT_EQ(fx.network.stats().retries, attempts - 1);
  EXPECT_TRUE(fx.server.readdir(fx.root())->entries.empty());
}

TEST(DuplicateRequestCache, RepliesLostExhaustToTimedOut) {
  Fixture fx;
  const unsigned attempts = fx.client.retry_policy().max_attempts;
  // Every request is delivered but every reply is lost: messages alternate
  // request (odd) / reply (even), so drop the even ones.
  for (unsigned i = 0; i < attempts; ++i) {
    fx.network.fault_plan()->force_drop_message(2 * (i + 1));
  }
  // The op executed (possibly via DRC replay) but the client never learned
  // so: the give-up status must be kTimedOut — "may have taken effect" —
  // not kUnreachable, which would license a blind re-issue.
  EXPECT_EQ(fx.client.create(fx.root(), "f").error(), NfsStat::kTimedOut);
  EXPECT_EQ(fx.network.stats().retries, attempts - 1);
  // Only the first transmission executed; the retransmissions hit the DRC.
  EXPECT_EQ(fx.server.drc_stats().hits, attempts - 1);
  EXPECT_EQ(fx.server.readdir(fx.root())->entries.size(), 1u);
}

TEST(DuplicateRequestCache, BootVerifierIsolatesClientIncarnations) {
  Fixture fx;
  // First incarnation of the client host creates "f" under xid 1.
  NfsClient first{&fx.network, &fx.directory, fx.client_host, {}, 0, /*boot=*/1};
  ASSERT_TRUE(first.create(fx.root(), "f").ok());
  // The host "reboots": the new incarnation restarts its xid counter, so
  // its first non-idempotent RPC reuses xid 1. Without the boot verifier
  // the server's DRC would return the stale cached "f" reply and "g" would
  // silently never be created.
  NfsClient reborn{&fx.network, &fx.directory, fx.client_host, {}, 0, /*boot=*/2};
  const auto created = reborn.create(fx.root(), "g", 0640, 9);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(created->attr.mode, 0640u);
  EXPECT_EQ(fx.server.drc_stats().hits, 0u);
  const auto listing = fx.server.readdir(fx.root());
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->entries.size(), 2u);
}

TEST(DuplicateRequestCache, ShapeMismatchIsAMissNotAForgedReply) {
  Fixture fx;
  const RpcContext ctx{fx.client_host, /*xid=*/99, /*boot=*/7};
  // A handle-shaped entry sits in the cache under (client, xid) ...
  ASSERT_TRUE(fx.server.create(fx.root(), "x", 0644, 0, 0, ctx).ok());
  // ... and a unit-shaped procedure arrives under the same key. Before the
  // shape check this returned the default-constructed unit slot (kInval)
  // without executing; it must instead miss, execute, and re-cache.
  EXPECT_TRUE(fx.server.remove(fx.root(), "x", ctx).ok());
  EXPECT_EQ(fx.server.drc_stats().hits, 0u);
  EXPECT_TRUE(fx.server.readdir(fx.root())->entries.empty());
  // The entry was overwritten with the REMOVE result: its retransmission
  // replays success instead of re-executing into kNoEnt.
  EXPECT_TRUE(fx.server.remove(fx.root(), "x", ctx).ok());
  EXPECT_EQ(fx.server.drc_stats().hits, 1u);
}

TEST(DuplicateRequestCache, HardDownIsNotRetried) {
  Fixture fx;
  const auto root = fx.root();
  fx.network.set_up(fx.server_host, false);
  const auto before = fx.network.stats().timeouts;
  EXPECT_EQ(fx.client.create(root, "f").error(), NfsStat::kUnreachable);
  // Permanent death costs exactly one timeout and zero retransmissions —
  // identical to the behaviour without any fault plan installed.
  EXPECT_EQ(fx.network.stats().timeouts, before + 1);
  EXPECT_EQ(fx.network.stats().retries, 0u);
}

// ---------------------------------------------------------------------------
// FIFO bound: the cache remembers the last 512 stored keys, in store order.
// Each probe below is a REMOVE of a name that never exists, so a hit and a
// miss differ only in the hit counter (a miss re-executes into kNoEnt and
// stores again).
// ---------------------------------------------------------------------------

constexpr std::uint32_t kCapacity = 512;

struct DrcProbe : Fixture {
  RpcContext ctx(std::uint32_t xid, std::uint64_t boot = 1) const {
    return RpcContext{client_host, xid, boot};
  }
  /// Send REMOVE under `xid`; true iff the DRC answered it.
  bool hit(std::uint32_t xid, std::uint64_t boot = 1) {
    const std::uint64_t before = server.drc_stats().hits;
    EXPECT_EQ(server.remove(root(), "absent", ctx(xid, boot)).error(), NfsStat::kNoEnt);
    return server.drc_stats().hits == before + 1;
  }
};

TEST(DuplicateRequestCache, TheFiveHundredThirteenthStoreEvictsTheFirst) {
  DrcProbe fx;
  for (std::uint32_t xid = 1; xid <= kCapacity; ++xid) EXPECT_FALSE(fx.hit(xid));
  EXPECT_EQ(fx.server.drc_stats().stores, kCapacity);
  // Full, nothing evicted yet; hits neither store nor reorder.
  EXPECT_TRUE(fx.hit(1));
  EXPECT_TRUE(fx.hit(kCapacity));
  EXPECT_FALSE(fx.hit(kCapacity + 1));  // evicts xid 1
  EXPECT_TRUE(fx.hit(2));
  EXPECT_TRUE(fx.hit(kCapacity + 1));
  EXPECT_FALSE(fx.hit(1));  // re-stored, evicting xid 2
  EXPECT_FALSE(fx.hit(2));
  EXPECT_TRUE(fx.hit(4));
  EXPECT_EQ(fx.server.drc_stats().stores, kCapacity + 3);
}

TEST(DuplicateRequestCache, EvictionStaysFifoOverManyLaps) {
  DrcProbe fx;
  const std::uint32_t last = 3 * kCapacity + 5;
  for (std::uint32_t xid = 1; xid <= last; ++xid) EXPECT_FALSE(fx.hit(xid));
  // Exactly the newest kCapacity keys answer; probing them stores nothing.
  for (std::uint32_t xid = last - kCapacity + 1; xid <= last; ++xid) {
    EXPECT_TRUE(fx.hit(xid)) << xid;
  }
  EXPECT_FALSE(fx.hit(last - kCapacity));
  EXPECT_FALSE(fx.hit(1));
  EXPECT_EQ(fx.server.drc_stats().stores, last + 2);
}

TEST(DuplicateRequestCache, ShapeReplacementKeepsItsQueuePosition) {
  DrcProbe fx;
  for (std::uint32_t xid = 1; xid <= kCapacity; ++xid) EXPECT_FALSE(fx.hit(xid));
  // A CREATE under xid 1 misses on shape and replaces the entry in place.
  ASSERT_TRUE(fx.server.create(fx.root(), "x", 0644, 0, 0, fx.ctx(1)).ok());
  EXPECT_EQ(fx.server.drc_stats().stores, kCapacity + 1);
  const std::uint64_t hits = fx.server.drc_stats().hits;
  EXPECT_TRUE(fx.server.create(fx.root(), "x", 0644, 0, 0, fx.ctx(1)).ok());
  EXPECT_EQ(fx.server.drc_stats().hits, hits + 1);
  // Still the oldest key: the next new key evicts it, not xid 2.
  EXPECT_FALSE(fx.hit(kCapacity + 1));
  EXPECT_TRUE(fx.hit(2));
  EXPECT_EQ(fx.server.create(fx.root(), "x", 0644, 0, 0, fx.ctx(1)).error(), NfsStat::kExist);
  EXPECT_EQ(fx.server.drc_stats().hits, hits + 2);
}

TEST(DuplicateRequestCache, BootReplacementKeepsItsQueuePosition) {
  DrcProbe fx;
  for (std::uint32_t xid = 1; xid <= kCapacity; ++xid) EXPECT_FALSE(fx.hit(xid));
  EXPECT_FALSE(fx.hit(1, /*boot=*/2));  // a new incarnation replaces the entry
  EXPECT_TRUE(fx.hit(1, 2));
  EXPECT_FALSE(fx.hit(1, 1));  // and the old one is gone (replaced again)
  EXPECT_FALSE(fx.hit(kCapacity + 1));
  EXPECT_FALSE(fx.hit(1, 1));  // evicted as the oldest key
  EXPECT_TRUE(fx.hit(3));
}

TEST(DuplicateRequestCache, ReplacementBeforeTheQueueFillsKeepsItsPlace) {
  DrcProbe fx;
  for (std::uint32_t xid = 1; xid <= 10; ++xid) EXPECT_FALSE(fx.hit(xid));
  EXPECT_FALSE(fx.hit(1, /*boot=*/2));  // replaces xid 1's entry in place
  for (std::uint32_t xid = 11; xid <= kCapacity; ++xid) EXPECT_FALSE(fx.hit(xid));
  // kCapacity distinct keys fit; a requeued key would hold two slots, and
  // the last store would already have evicted it.
  EXPECT_TRUE(fx.hit(1, 2));
  EXPECT_FALSE(fx.hit(kCapacity + 1));  // evicts xid 1, still the oldest
  EXPECT_TRUE(fx.hit(2));
  EXPECT_FALSE(fx.hit(1, 2));
}

TEST(DuplicateRequestCache, ClearDropsEveryReplyAndTheQueue) {
  DrcProbe fx;
  for (std::uint32_t xid = 1; xid <= kCapacity; ++xid) EXPECT_FALSE(fx.hit(xid));
  fx.server.clear_drc();
  EXPECT_FALSE(fx.hit(7));
  // The queue restarted empty: kCapacity - 2 more keys fill all but one slot.
  for (std::uint32_t xid = 1000; xid < 1000 + kCapacity - 2; ++xid) EXPECT_FALSE(fx.hit(xid));
  EXPECT_TRUE(fx.hit(7));
  EXPECT_FALSE(fx.hit(1));  // cleared, so it takes the last slot
  EXPECT_TRUE(fx.hit(7));
  EXPECT_FALSE(fx.hit(2));  // the first store after the clear is evicted
  EXPECT_FALSE(fx.hit(7));
}

TEST(DuplicateRequestCache, RevivalClearsTheServersCache) {
  ClusterConfig config;
  config.nodes = 4;
  config.seed = 7003;
  KoshaCluster cluster(config);
  const net::HostId host = cluster.live_hosts()[1];
  const RpcContext ctx{cluster.live_hosts()[0], 4242, 99};
  NfsServer& server = cluster.server(host);
  const FileHandle root = server.root_handle();
  EXPECT_EQ(server.remove(root, "absent", ctx).error(), NfsStat::kNoEnt);
  EXPECT_EQ(server.remove(root, "absent", ctx).error(), NfsStat::kNoEnt);
  const std::uint64_t hits = server.drc_stats().hits;
  EXPECT_EQ(hits, 1u);
  cluster.fail_node(host);
  cluster.revive_node(host);
  const FileHandle reborn_root = cluster.server(host).root_handle();
  EXPECT_EQ(cluster.server(host).remove(reborn_root, "absent", ctx).error(), NfsStat::kNoEnt);
  EXPECT_EQ(cluster.server(host).drc_stats().hits, hits);
}

}  // namespace
}  // namespace kosha::nfs
