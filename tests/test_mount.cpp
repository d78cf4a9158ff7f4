// KoshaMount (path-level API) tests, including large chunked I/O.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "trace/mab.hpp"

namespace kosha {
namespace {

struct Fixture {
  KoshaCluster cluster;
  KoshaMount mount;

  explicit Fixture(fs::BackendKind backend = fs::BackendKind::kFlat)
      : cluster([backend] {
          ClusterConfig config;
          config.nodes = 6;
          config.kosha.distribution_level = 2;
          config.kosha.replicas = 1;
          config.kosha.storage.backend = backend;
          config.seed = 17;
          return config;
        }()),
        mount(&cluster.daemon(0)) {}
};

TEST(Mount, MkdirPIdempotent) {
  Fixture fx;
  const auto first = fx.mount.mkdir_p("/a/b/c");
  ASSERT_TRUE(first.ok());
  const auto second = fx.mount.mkdir_p("/a/b/c");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
}

TEST(Mount, MkdirPRejectsFileComponent) {
  Fixture fx;
  ASSERT_TRUE(fx.mount.write_file("/file", "x").ok());
  EXPECT_EQ(fx.mount.mkdir_p("/file/sub").error(), nfs::NfsStat::kNotDir);
}

TEST(Mount, WriteFileSizes) {
  Fixture fx;
  ASSERT_TRUE(fx.mount.mkdir_p("/sizes").ok());
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{64 * 1024}, std::size_t{1 << 20}}) {
    const std::string path = "/sizes/f" + std::to_string(size);
    const std::string content = trace::mab_content(size, size);
    ASSERT_TRUE(fx.mount.write_file(path, content).ok()) << size;
    const auto read = fx.mount.read_file(path);
    ASSERT_TRUE(read.ok()) << size;
    EXPECT_EQ(read.value(), content) << size;
    EXPECT_EQ(fx.mount.stat(path)->size, size);
  }
}

TEST(Mount, OverwriteShrinks) {
  Fixture fx;
  ASSERT_TRUE(fx.mount.write_file("/f", std::string(1000, 'a')).ok());
  ASSERT_TRUE(fx.mount.write_file("/f", "tiny").ok());
  EXPECT_EQ(fx.mount.read_file("/f").value(), "tiny");
}

TEST(Mount, WriteFileRejectsDirectoryTarget) {
  Fixture fx;
  ASSERT_TRUE(fx.mount.mkdir_p("/d").ok());
  EXPECT_EQ(fx.mount.write_file("/d", "x").error(), nfs::NfsStat::kIsDir);
}

TEST(Mount, ExistsAndStat) {
  Fixture fx;
  EXPECT_FALSE(fx.mount.exists("/nope"));
  ASSERT_TRUE(fx.mount.write_file("/yes", "1").ok());
  EXPECT_TRUE(fx.mount.exists("/yes"));
  EXPECT_EQ(fx.mount.stat("/yes")->type, fs::FileType::kFile);
  EXPECT_EQ(fx.mount.stat("/").value().type, fs::FileType::kDirectory);
}

TEST(Mount, RemoveAllDeepTree) {
  Fixture fx;
  ASSERT_TRUE(fx.mount.mkdir_p("/tree/a/b").ok());
  ASSERT_TRUE(fx.mount.mkdir_p("/tree/c").ok());
  ASSERT_TRUE(fx.mount.write_file("/tree/a/b/f1", "1").ok());
  ASSERT_TRUE(fx.mount.write_file("/tree/c/f2", "2").ok());
  ASSERT_TRUE(fx.mount.write_file("/tree/f3", "3").ok());
  ASSERT_TRUE(fx.mount.remove_all("/tree").ok());
  EXPECT_FALSE(fx.mount.exists("/tree"));
  // Everything physically reclaimed (no live user bytes anywhere).
  std::uint64_t total = 0;
  for (const auto host : fx.cluster.live_hosts()) {
    total += fx.cluster.server(host).store().used_bytes();
  }
  EXPECT_EQ(total, 0u);
}

TEST(Mount, RootOperationsRejected) {
  Fixture fx;
  EXPECT_EQ(fx.mount.remove("/").error(), nfs::NfsStat::kInval);
  EXPECT_EQ(fx.mount.rmdir("/").error(), nfs::NfsStat::kInval);
}

TEST(Mount, CacheSurvivesRemoveRecreate) {
  Fixture fx;
  ASSERT_TRUE(fx.mount.write_file("/cycle", "one").ok());
  ASSERT_TRUE(fx.mount.remove("/cycle").ok());
  EXPECT_FALSE(fx.mount.exists("/cycle"));
  ASSERT_TRUE(fx.mount.write_file("/cycle", "two").ok());
  EXPECT_EQ(fx.mount.read_file("/cycle").value(), "two");
}

TEST(Mount, ListReflectsChanges) {
  Fixture fx;
  ASSERT_TRUE(fx.mount.mkdir_p("/ls").ok());
  EXPECT_TRUE(fx.mount.list("/ls")->empty());
  ASSERT_TRUE(fx.mount.write_file("/ls/a", "x").ok());
  ASSERT_TRUE(fx.mount.mkdir_p("/ls/b").ok());
  EXPECT_EQ(fx.mount.list("/ls")->size(), 2u);
  ASSERT_TRUE(fx.mount.remove("/ls/a").ok());
  EXPECT_EQ(fx.mount.list("/ls")->size(), 1u);
}

/// One step of a session: the xid the client took last, and the bytes
/// every procedure's messages have charged so far.
struct SessionStep {
  std::uint32_t last_xid = 0;
  std::uint64_t net_bytes = 0;
};

// Whole-file reads on both storage backends: the flat store hands out
// slices of one buffer, the content-addressed store a fresh buffer per
// READ, and either way a result is a snapshot of the file.
class MountRead : public ::testing::TestWithParam<fs::BackendKind> {};

INSTANTIATE_TEST_SUITE_P(Backends, MountRead,
                         ::testing::Values(fs::BackendKind::kFlat, fs::BackendKind::kCas),
                         [](const auto& info) { return std::string(fs::to_string(info.param)); });

// About 200 KiB: four 64 KiB READs, the last one short.
constexpr std::size_t kFourChunks = 200 * 1024;

TEST_P(MountRead, RepeatedReadsReturnTheSameBytes) {
  Fixture fx(GetParam());
  const std::string content = trace::mab_content(kFourChunks, 5);
  ASSERT_TRUE(fx.mount.mkdir_p("/r").ok());
  ASSERT_TRUE(fx.mount.write_file("/r/f", content).ok());
  const auto first = fx.mount.read_file("/r/f");
  const auto second = fx.mount.read_file("/r/f");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value(), content);
  EXPECT_EQ(second.value(), content);
  // The flat store's slices are adjacent in the primary's buffer, so both
  // reads stitch them into a view of that one buffer, copying nothing.
  if (GetParam() == fs::BackendKind::kFlat) {
    EXPECT_TRUE(first->shares_buffer_with(second.value()));
  }
}

TEST_P(MountRead, ResultIsASnapshotAcrossOverwriteAndTruncate) {
  Fixture fx(GetParam());
  const std::string content = trace::mab_content(kFourChunks, 9);
  ASSERT_TRUE(fx.mount.mkdir_p("/s").ok());
  ASSERT_TRUE(fx.mount.write_file("/s/f", content).ok());
  const auto before = fx.mount.read_file("/s/f");
  ASSERT_TRUE(before.ok());

  // A partial write in the middle of the file: the store would update an
  // unshared buffer in place.
  const auto handle = fx.mount.resolve("/s/f");
  ASSERT_TRUE(handle.ok());
  const std::string patch(3000, 'p');
  ASSERT_TRUE(fx.cluster.daemon(0).write(*handle, 70 * 1024, fs::Bytes(patch)).ok());
  std::string patched = content;
  patched.replace(70 * 1024, patch.size(), patch);
  const auto after_patch = fx.mount.read_file("/s/f");
  ASSERT_TRUE(after_patch.ok());
  EXPECT_EQ(after_patch.value(), patched);
  EXPECT_EQ(before.value(), content);

  ASSERT_TRUE(fx.cluster.daemon(0).truncate(*handle, 1000).ok());
  EXPECT_EQ(fx.mount.read_file("/s/f").value(), patched.substr(0, 1000));
  EXPECT_EQ(after_patch.value(), patched);

  ASSERT_TRUE(fx.mount.write_file("/s/f", "replaced").ok());
  EXPECT_EQ(fx.mount.read_file("/s/f").value(), "replaced");
  EXPECT_EQ(before.value(), content);
  EXPECT_EQ(after_patch.value(), patched);
}

TEST(Mount, ShortSessionXidsAndBytesArePinned) {
  // The client sizes its calls arithmetically (encoded_size_*) and takes
  // one xid per RPC. This golden session pins both: the xid after every
  // mount-level op and the bytes charged on the wire. A changed number
  // means DRC keys or message sizes moved.
  Fixture fx;
  std::vector<SessionStep> steps;
  const auto step = [&] {
    steps.push_back({fx.cluster.daemon(0).nfs_client().last_xid(),
                     fx.cluster.network().stats().bytes});
  };
  ASSERT_TRUE(fx.mount.mkdir_p("/golden/dir").ok());
  step();
  ASSERT_TRUE(fx.mount.write_file("/golden/dir/file", std::string(4097, 'g')).ok());
  step();
  ASSERT_EQ(fx.mount.read_file("/golden/dir/file")->size(), 4097u);
  step();
  ASSERT_TRUE(fx.mount.stat("/golden/dir/file").ok());
  step();
  ASSERT_TRUE(fx.mount.rename("/golden/dir/file", "/golden/dir/moved").ok());
  step();
  ASSERT_TRUE(fx.mount.list("/golden/dir").ok());
  step();
  ASSERT_TRUE(fx.mount.remove("/golden/dir/moved").ok());
  step();
  const std::vector<SessionStep> expected = {
      {25, 28300}, {28, 37113}, {29, 41382}, {30, 41542},
      {33, 42182}, {34, 42382}, {36, 42822},
  };
  ASSERT_EQ(steps.size(), expected.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i].last_xid, expected[i].last_xid) << "step " << i;
    EXPECT_EQ(steps[i].net_bytes, expected[i].net_bytes) << "step " << i;
  }
}

}  // namespace
}  // namespace kosha
