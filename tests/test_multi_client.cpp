// Multi-client semantics: every host's koshad sees one shared namespace
// (paper §4.1.1: "every user sees the same instance of a file").

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"

namespace kosha {
namespace {

TEST(MultiClient, WritesVisibleEverywhereImmediately) {
  ClusterConfig config;
  config.nodes = 6;
  config.kosha.distribution_level = 1;
  config.seed = 51;
  KoshaCluster cluster(config);
  std::vector<std::unique_ptr<KoshaMount>> mounts;
  for (const auto host : cluster.live_hosts()) {
    mounts.push_back(std::make_unique<KoshaMount>(&cluster.daemon(host)));
  }

  ASSERT_TRUE(mounts[0]->mkdir_p("/shared").ok());
  for (std::size_t writer = 0; writer < mounts.size(); ++writer) {
    const std::string path = std::string("/shared/from").append(std::to_string(writer));
    const std::string content = std::string("w").append(std::to_string(writer));
    ASSERT_TRUE(mounts[writer]->write_file(path, content).ok());
    for (std::size_t reader = 0; reader < mounts.size(); ++reader) {
      const auto read = mounts[reader]->read_file(path);
      ASSERT_TRUE(read.ok()) << writer << "->" << reader;
      EXPECT_EQ(read.value(), content);
    }
  }
}

TEST(MultiClient, LastWriterWins) {
  ClusterConfig config;
  config.nodes = 4;
  config.seed = 52;
  KoshaCluster cluster(config);
  KoshaMount a(&cluster.daemon(0));
  KoshaMount b(&cluster.daemon(1));
  ASSERT_TRUE(a.write_file("/f", "from-a").ok());
  ASSERT_TRUE(b.write_file("/f", "from-b").ok());
  EXPECT_EQ(a.read_file("/f").value(), "from-b");
  EXPECT_EQ(b.read_file("/f").value(), "from-b");
}

TEST(MultiClient, RemoveByOneClientStalesOthersHandles) {
  ClusterConfig config;
  config.nodes = 4;
  config.seed = 53;
  KoshaCluster cluster(config);
  KoshaMount a(&cluster.daemon(0));
  KoshaMount b(&cluster.daemon(1));
  ASSERT_TRUE(a.write_file("/gone", "x").ok());
  const auto vh = b.resolve("/gone");
  ASSERT_TRUE(vh.ok());
  ASSERT_TRUE(a.remove("/gone").ok());
  // b's cached handle must not resurrect the file.
  const auto read = cluster.daemon(1).read(*vh, 0, 10);
  EXPECT_FALSE(read.ok());
  EXPECT_FALSE(b.exists("/gone"));
}

TEST(MultiClient, InterleavedDirectoryCreation) {
  ClusterConfig config;
  config.nodes = 6;
  config.kosha.distribution_level = 2;
  config.seed = 54;
  KoshaCluster cluster(config);
  Rng rng(99);
  std::vector<std::unique_ptr<KoshaMount>> mounts;
  for (const auto host : cluster.live_hosts()) {
    mounts.push_back(std::make_unique<KoshaMount>(&cluster.daemon(host)));
  }
  // Two clients race to create the same tree; exactly one mkdir wins each
  // directory, and both end up with identical views.
  for (int round = 0; round < 20; ++round) {
    const std::string dir = "/race/d" + std::to_string(rng.next_below(5));
    auto& first = *mounts[rng.next_below(mounts.size())];
    auto& second = *mounts[rng.next_below(mounts.size())];
    (void)first.mkdir_p(dir);
    (void)second.mkdir_p(dir);  // idempotent from the namespace's view
    EXPECT_TRUE(first.exists(dir));
    EXPECT_TRUE(second.exists(dir));
  }
  const auto l0 = mounts[0]->list("/race");
  const auto l1 = mounts.back()->list("/race");
  ASSERT_TRUE(l0.ok());
  ASSERT_TRUE(l1.ok());
  EXPECT_EQ(l0->size(), l1->size());
}

TEST(MultiClient, CreateConflictSurfacesAsExist) {
  ClusterConfig config;
  config.nodes = 4;
  config.seed = 55;
  KoshaCluster cluster(config);
  auto& da = cluster.daemon(0);
  auto& db = cluster.daemon(1);
  const auto ra = da.root();
  const auto rb = db.root();
  ASSERT_TRUE(da.create(*ra, "same").ok());
  EXPECT_EQ(db.create(*rb, "same").error(), nfs::NfsStat::kExist);
}

}  // namespace
}  // namespace kosha
