// The headline semantic claim (paper §4.1.1): "The semantics of Kosha are
// the same as NFS in the absence of failures." These tests run identical
// operation sequences against a plain NFS mount and a Kosha cluster and
// require the observable namespaces to match.

#include <gtest/gtest.h>

#include <map>

#include "baseline/nfs_mount.hpp"
#include "common/rng.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"

namespace kosha {
namespace {

/// Collect (path -> type:size:content-prefix) for the whole namespace.
template <typename Mount>
std::map<std::string, std::string> snapshot(Mount& mount, const std::string& path = "/") {
  std::map<std::string, std::string> out;
  const auto listing = mount.list(path);
  if (!listing.ok()) return out;
  for (const auto& entry : listing.value()) {
    const std::string child = path == "/" ? "/" + entry.name : path + "/" + entry.name;
    if (entry.type == fs::FileType::kDirectory) {
      out[child] = "dir";
      auto sub = snapshot(mount, child);
      out.insert(sub.begin(), sub.end());
    } else {
      const auto content = mount.read_file(child);
      out[child] = "file:" + std::string(content.ok() ? content->view() : "<unreadable>");
    }
  }
  return out;
}

struct BaselineFixture {
  SimClock clock;
  net::SimNetwork network{{}, &clock};
  net::HostId client = network.add_host();
  net::HostId server_host = network.add_host();
  nfs::NfsServer server{server_host, {}, {}, &clock};
  nfs::ServerDirectory directory;
  baseline::NfsMount mount{&network, &directory, client, server_host};

  BaselineFixture() { directory.add(&server); }
};

class Equivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Equivalence, RandomOperationSequencesAgree) {
  BaselineFixture nfs;
  ClusterConfig config;
  config.nodes = 6;
  config.kosha.distribution_level = 2;
  config.kosha.replicas = 1;
  config.seed = GetParam();
  KoshaCluster cluster(config);
  KoshaMount kosha_mount(&cluster.daemon(0));

  Rng rng(GetParam() * 97 + 13);
  auto random_path = [&](int max_depth) {
    std::string path;
    const int depth = 1 + static_cast<int>(rng.next_below(max_depth));
    for (int d = 0; d < depth; ++d) path += "/n" + std::to_string(rng.next_below(4));
    return path;
  };

  for (int op = 0; op < 80; ++op) {
    const unsigned action = static_cast<unsigned>(rng.next_below(6));
    const std::string path = random_path(4);
    switch (action) {
      case 0:
      case 1: {  // mkdir -p
        const auto a = nfs.mount.mkdir_p(path);
        const auto b = kosha_mount.mkdir_p(path);
        EXPECT_EQ(a.ok(), b.ok()) << "mkdir_p " << path;
        break;
      }
      case 2:
      case 3: {  // write file (parent may not exist / may be a file)
        const std::string file = path + "/f" + std::to_string(rng.next_below(3));
        const std::string content = rng.next_name(20);
        const auto a = nfs.mount.write_file(file, content);
        const auto b = kosha_mount.write_file(file, content);
        EXPECT_EQ(a.ok(), b.ok()) << "write " << file;
        break;
      }
      case 4: {  // remove (may fail identically)
        const auto a = nfs.mount.remove(path);
        const auto b = kosha_mount.remove(path);
        EXPECT_EQ(a.ok(), b.ok()) << "remove " << path;
        break;
      }
      case 5: {  // rmdir
        const auto a = nfs.mount.rmdir(path);
        const auto b = kosha_mount.rmdir(path);
        EXPECT_EQ(a.ok(), b.ok()) << "rmdir " << path;
        break;
      }
      default:
        break;
    }
  }

  EXPECT_EQ(snapshot(nfs.mount), snapshot(kosha_mount));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Equivalence, ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(BaselineNfsMount, BasicRoundTrip) {
  BaselineFixture fx;
  ASSERT_TRUE(fx.mount.mkdir_p("/home/u").ok());
  ASSERT_TRUE(fx.mount.write_file("/home/u/f", "nfs data").ok());
  EXPECT_EQ(fx.mount.read_file("/home/u/f").value(), "nfs data");
  EXPECT_TRUE(fx.mount.exists("/home/u"));
  EXPECT_EQ(fx.mount.list("/home")->size(), 1u);
  ASSERT_TRUE(fx.mount.rename("/home/u/f", "/home/u/g").ok());
  EXPECT_FALSE(fx.mount.exists("/home/u/f"));
  EXPECT_EQ(fx.mount.read_file("/home/u/g").value(), "nfs data");
  ASSERT_TRUE(fx.mount.remove_all("/home").ok());
  EXPECT_FALSE(fx.mount.exists("/home"));
}

TEST(BaselineNfsMount, ServerDownIsVisible) {
  BaselineFixture fx;
  ASSERT_TRUE(fx.mount.write_file("/f", "x").ok());
  fx.network.set_up(fx.server_host, false);
  // Unlike Kosha, plain NFS has no replicas to fail over to.
  EXPECT_FALSE(fx.mount.read_file("/f").ok());
}

}  // namespace
}  // namespace kosha
