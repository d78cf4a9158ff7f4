// NFS layer tests: handle opacity/staleness on the server, client-side
// network charging, unreachable-host behaviour, and protocol corner cases.

#include <gtest/gtest.h>

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

  Fixture() { directory.add(&server); }
};

TEST(NfsServer, RootHandleIsValid) {
  Fixture fx;
  const FileHandle root = fx.server.root_handle();
  EXPECT_TRUE(root.valid());
  EXPECT_EQ(root.server, fx.server_host);
  const auto attr = fx.server.getattr(root);
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->type, fs::FileType::kDirectory);
}

TEST(NfsServer, CreateWriteReadThroughHandles) {
  Fixture fx;
  const auto created = fx.server.create(fx.server.root_handle(), "f", 0644, 0);
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(fx.server.write(created->handle, 0, "payload").ok());
  const auto data = fx.server.read(created->handle, 0, 100);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->data, "payload");
  EXPECT_TRUE(data->eof);
  const auto partial = fx.server.read(created->handle, 0, 3);
  EXPECT_EQ(partial->data, "pay");
  EXPECT_FALSE(partial->eof);
}

TEST(NfsServer, StaleHandleAfterRemove) {
  Fixture fx;
  const auto created = fx.server.create(fx.server.root_handle(), "f", 0644, 0);
  ASSERT_TRUE(fx.server.remove(fx.server.root_handle(), "f").ok());
  EXPECT_EQ(fx.server.getattr(created->handle).error(), NfsStat::kStale);
  EXPECT_EQ(fx.server.read(created->handle, 0, 1).error(), NfsStat::kStale);
}

TEST(NfsServer, HandleFromWrongServerIsStale) {
  Fixture fx;
  FileHandle foreign = fx.server.root_handle();
  foreign.server = 42;
  EXPECT_EQ(fx.server.getattr(foreign).error(), NfsStat::kStale);
}

TEST(NfsServer, ErrorMapping) {
  Fixture fx;
  const auto root = fx.server.root_handle();
  EXPECT_EQ(fx.server.lookup(root, "nope").error(), NfsStat::kNoEnt);
  (void)fx.server.mkdir(root, "d", 0755, 0);
  EXPECT_EQ(fx.server.mkdir(root, "d", 0755, 0).error(), NfsStat::kExist);
  const auto dir = fx.server.lookup(root, "d");
  (void)fx.server.create(dir->handle, "f", 0644, 0);
  EXPECT_EQ(fx.server.rmdir(root, "d").error(), NfsStat::kNotEmpty);
}

TEST(NfsServer, SetModeAndTruncate) {
  Fixture fx;
  const auto created = fx.server.create(fx.server.root_handle(), "f", 0644, 0);
  const auto chmod = fx.server.set_mode(created->handle, 0600);
  ASSERT_TRUE(chmod.ok());
  EXPECT_EQ(chmod->mode, 0600u);
  (void)fx.server.write(created->handle, 0, "abcdef");
  const auto truncated = fx.server.truncate(created->handle, 2);
  ASSERT_TRUE(truncated.ok());
  EXPECT_EQ(truncated->size, 2u);
}

TEST(NfsServer, SymlinkAndReadlink) {
  Fixture fx;
  const auto link = fx.server.symlink(fx.server.root_handle(), "l", "dir#3");
  ASSERT_TRUE(link.ok());
  EXPECT_EQ(link->attr.type, fs::FileType::kSymlink);
  EXPECT_EQ(fx.server.readlink(link->handle).value(), "dir#3");
}

TEST(NfsServer, FsstatReportsCapacity) {
  Fixture fx;
  const auto created = fx.server.create(fx.server.root_handle(), "f", 0644, 0);
  (void)fx.server.write(created->handle, 0, std::string(1000, 'x'));
  const auto stat = fx.server.fsstat();
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->used_bytes, 1000u);
  EXPECT_GT(stat->capacity_bytes, 0u);
  EXPECT_GT(stat->utilization, 0.0);
}

TEST(NfsServer, ChargesServiceTimeOnClock) {
  Fixture fx;
  const auto before = fx.clock.now();
  (void)fx.server.create(fx.server.root_handle(), "f", 0644, 0);
  EXPECT_GT(fx.clock.now().ns, before.ns);
  EXPECT_GT(fx.server.rpc_count(), 0u);
}

// --- client ------------------------------------------------------------------

TEST(NfsClient, MountAndWalk) {
  Fixture fx;
  const auto root = fx.client.mount(fx.server_host);
  ASSERT_TRUE(root.ok());
  const auto made = fx.client.mkdir(*root, "home");
  ASSERT_TRUE(made.ok());
  const auto again = fx.client.lookup(*root, "home");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->handle, made->handle);
}

TEST(NfsClient, ChargesNetworkPerRpc) {
  Fixture fx;
  const auto root = fx.client.mount(fx.server_host);
  const auto msgs = fx.network.stats().messages;
  (void)fx.client.getattr(*root);
  EXPECT_EQ(fx.network.stats().messages, msgs + 2);  // request + reply
}

TEST(NfsClient, WritePayloadBytesCounted) {
  Fixture fx;
  const auto root = fx.client.mount(fx.server_host);
  const auto file = fx.client.create(*root, "f");
  const auto bytes = fx.network.stats().bytes;
  (void)fx.client.write(file->handle, 0, std::string(5000, 'x'));
  EXPECT_GE(fx.network.stats().bytes - bytes, 5000u);
}

TEST(NfsClient, UnreachableHostTimesOut) {
  Fixture fx;
  const auto root = fx.client.mount(fx.server_host);
  fx.network.set_up(fx.server_host, false);
  const auto before = fx.clock.now();
  EXPECT_EQ(fx.client.getattr(*root).error(), NfsStat::kUnreachable);
  EXPECT_EQ((fx.clock.now() - before).ns, fx.network.config().rpc_timeout.ns);
  EXPECT_EQ(fx.network.stats().timeouts, 1u);
  // Recovery restores service.
  fx.network.set_up(fx.server_host, true);
  EXPECT_TRUE(fx.client.getattr(*root).ok());
}

TEST(NfsClient, RpcsRunOnTheNetworksOwnLoopOrTheInstalledOne) {
  Fixture fx;
  EventLoop* own = fx.network.loop();
  ASSERT_NE(own, nullptr);
  const auto root = fx.client.mount(fx.server_host);
  ASSERT_TRUE(root.ok());
  const std::uint64_t own_executed = own->stats().executed;
  EXPECT_GT(own_executed, 0u);

  EventLoop mine(&fx.clock, 3);
  fx.network.set_event_loop(&mine);
  EXPECT_EQ(fx.network.loop(), &mine);
  ASSERT_TRUE(fx.client.getattr(*root).ok());
  EXPECT_GT(mine.stats().executed, 0u);
  EXPECT_EQ(own->stats().executed, own_executed);
}

TEST(NfsClient, UnknownServerUnreachable) {
  Fixture fx;
  EXPECT_EQ(fx.client.mount(77).error(), NfsStat::kUnreachable);
}

TEST(NfsClient, CrossServerRenameRejected) {
  Fixture fx;
  NfsServer other(fx.network.add_host(), {}, {}, &fx.clock);
  fx.directory.add(&other);
  const auto a = fx.client.mount(fx.server_host);
  const auto b = fx.client.mount(other.host());
  EXPECT_EQ(fx.client.rename(*a, "x", *b, "y").error(), NfsStat::kInval);
}

TEST(NfsClient, ReaddirThroughClient) {
  Fixture fx;
  const auto root = fx.client.mount(fx.server_host);
  (void)fx.client.create(*root, "a");
  (void)fx.client.mkdir(*root, "b");
  const auto listing = fx.client.readdir(*root);
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->entries.size(), 2u);
}

TEST(NfsClient, RemoveAndRmdir) {
  Fixture fx;
  const auto root = fx.client.mount(fx.server_host);
  (void)fx.client.create(*root, "f");
  (void)fx.client.mkdir(*root, "d");
  EXPECT_TRUE(fx.client.remove(*root, "f").ok());
  EXPECT_TRUE(fx.client.rmdir(*root, "d").ok());
  EXPECT_EQ(fx.client.readdir(*root)->entries.size(), 0u);
}

TEST(NfsStatNames, AllDistinct) {
  EXPECT_STREQ(to_string(NfsStat::kOk), "NFS_OK");
  EXPECT_STREQ(to_string(NfsStat::kStale), "NFS3ERR_STALE");
  EXPECT_STREQ(to_string(NfsStat::kUnreachable), "NFS3ERR_UNREACHABLE");
  EXPECT_EQ(from_fs(fs::FsStatus::kNoSpace), NfsStat::kNoSpace);
  EXPECT_EQ(from_fs(fs::FsStatus::kOk), NfsStat::kOk);
}

}  // namespace
}  // namespace kosha::nfs
