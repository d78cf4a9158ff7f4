// Virtual-handle table tests (paper §4.1.2).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/profile.hpp"
#include "kosha/virtual_handles.hpp"

namespace kosha {
namespace {

nfs::FileHandle handle(net::HostId host, fs::InodeId inode) { return {host, inode, 1}; }

TEST(VirtualHandles, BindAndFind) {
  VirtualHandleTable table;
  const VirtualHandle vh = table.bind("/a/f", "/.a/a/a/f", handle(2, 10), fs::FileType::kFile);
  EXPECT_TRUE(vh.valid());
  const VhEntry* entry = table.find(vh);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->path, "/a/f");
  EXPECT_EQ(entry->stored_path, "/.a/a/a/f");
  EXPECT_EQ(entry->real.server, 2u);
  EXPECT_EQ(table.find_by_path("/a/f"), vh);
}

TEST(VirtualHandles, RebindingSamePathKeepsHandle) {
  VirtualHandleTable table;
  const VirtualHandle vh = table.bind("/a", "/s1", handle(1, 1), fs::FileType::kDirectory);
  const VirtualHandle again = table.bind("/a", "/s2", handle(3, 9), fs::FileType::kDirectory);
  EXPECT_EQ(vh, again);
  EXPECT_EQ(table.find(vh)->real.server, 3u);
  EXPECT_EQ(table.find(vh)->stored_path, "/s2");
  EXPECT_EQ(table.size(), 1u);
}

TEST(VirtualHandles, InvalidLookups) {
  VirtualHandleTable table;
  EXPECT_EQ(table.find(VirtualHandle{77}), nullptr);
  EXPECT_FALSE(table.find_by_path("/nope").has_value());
  EXPECT_FALSE(table.rebind(VirtualHandle{77}, "/x", handle(1, 1)));
}

TEST(VirtualHandles, RebindSwapsRealHandleTransparently) {
  VirtualHandleTable table;
  const VirtualHandle vh = table.bind("/a/f", "/s", handle(1, 5), fs::FileType::kFile);
  EXPECT_TRUE(table.rebind(vh, "/s2", handle(4, 6)));
  EXPECT_EQ(table.find(vh)->real.server, 4u);
  EXPECT_EQ(table.find(vh)->path, "/a/f");  // virtual identity preserved
}

TEST(VirtualHandles, DropSingle) {
  VirtualHandleTable table;
  const VirtualHandle vh = table.bind("/a", "/s", handle(1, 1), fs::FileType::kDirectory);
  table.drop(vh);
  EXPECT_EQ(table.find(vh), nullptr);
  EXPECT_FALSE(table.find_by_path("/a").has_value());
  table.drop(vh);  // idempotent
}

TEST(VirtualHandles, DropSubtree) {
  VirtualHandleTable table;
  const auto keep = table.bind("/ax", "/s0", handle(1, 1), fs::FileType::kDirectory);
  const auto root = table.bind("/a", "/s1", handle(1, 2), fs::FileType::kDirectory);
  const auto child = table.bind("/a/b", "/s2", handle(1, 3), fs::FileType::kDirectory);
  const auto grand = table.bind("/a/b/c", "/s3", handle(1, 4), fs::FileType::kFile);
  table.drop_subtree("/a");
  EXPECT_EQ(table.find(root), nullptr);
  EXPECT_EQ(table.find(child), nullptr);
  EXPECT_EQ(table.find(grand), nullptr);
  EXPECT_NE(table.find(keep), nullptr);  // "/ax" is not inside "/a"
}

TEST(VirtualHandles, HandlesAreNeverReusedAcrossPaths) {
  VirtualHandleTable table;
  const auto a = table.bind("/a", "/s", handle(1, 1), fs::FileType::kFile);
  table.drop(a);
  const auto b = table.bind("/b", "/s", handle(1, 2), fs::FileType::kFile);
  EXPECT_NE(a, b);
}

TEST(VirtualHandles, HandlesAreIssuedInOrderAndSurviveRefreshes) {
  VirtualHandleTable table;
  std::vector<VirtualHandle> issued;
  for (int i = 0; i < 100; ++i) {
    issued.push_back(table.bind("/d/" + std::to_string(i), "/s", handle(1, 1),
                                fs::FileType::kFile));
    EXPECT_EQ(issued.back().value, static_cast<std::uint64_t>(i + 1));
  }
  // Refreshing every path (the caller's strings are temporaries) keeps
  // every handle, and each entry still reads back its own path.
  for (int i = 99; i >= 0; --i) {
    const std::string path = "/d/" + std::to_string(i);
    EXPECT_EQ(table.bind(path, "/t", handle(2, 3), fs::FileType::kDirectory),
              issued[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(table.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    const VhEntry* entry = table.find(issued[static_cast<std::size_t>(i)]);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->path, "/d/" + std::to_string(i));
    EXPECT_EQ(entry->stored_path, "/t");
    EXPECT_EQ(entry->type, fs::FileType::kDirectory);
    EXPECT_EQ(table.find_by_path(entry->path), issued[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(table.find(VirtualHandle{}), nullptr);
  EXPECT_EQ(table.find(VirtualHandle{101}), nullptr);
}

TEST(VirtualHandles, PathIndexSurvivesTenThousandBindsAndDrops) {
  VirtualHandleTable table;
  std::vector<VirtualHandle> live(100);
  std::uint64_t next = 1;
  for (int i = 0; i < 10000; ++i) {
    const std::size_t slot = static_cast<std::size_t>(i) % live.size();
    const std::string path = "/p" + std::to_string(slot);
    if (live[slot].valid()) {
      // Every other lap drops by handle, the rest by subtree.
      if ((i / 100) % 2 == 0) {
        table.drop(live[slot]);
      } else {
        table.drop_subtree(path);
      }
      EXPECT_EQ(table.find(live[slot]), nullptr);
      EXPECT_FALSE(table.find_by_path(path).has_value());
    }
    live[slot] = table.bind(path, "/s", handle(1, 1), fs::FileType::kFile);
    EXPECT_EQ(live[slot].value, next++);  // a dropped path comes back as a new handle
  }
  EXPECT_EQ(table.size(), live.size());
  for (std::size_t slot = 0; slot < live.size(); ++slot) {
    const std::string path = "/p" + std::to_string(slot);
    EXPECT_EQ(table.find_by_path(path), live[slot]);
    EXPECT_EQ(table.find(live[slot])->path, path);
  }
}

TEST(VirtualHandles, DropSubtreeKeepsEverythingOutside) {
  VirtualHandleTable table;
  const auto a = table.bind("/a", "/s", handle(1, 1), fs::FileType::kDirectory);
  const auto ab = table.bind("/a/b", "/s", handle(1, 2), fs::FileType::kDirectory);
  const auto b = table.bind("/b", "/s", handle(1, 3), fs::FileType::kDirectory);
  const auto abc = table.bind("/a/b/c", "/s", handle(1, 4), fs::FileType::kFile);
  const auto ac = table.bind("/a/c", "/s", handle(1, 5), fs::FileType::kFile);
  table.drop_subtree("/a/b");
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.find(ab), nullptr);
  EXPECT_EQ(table.find(abc), nullptr);
  EXPECT_EQ(table.find_by_path("/a"), a);
  EXPECT_EQ(table.find_by_path("/b"), b);
  EXPECT_EQ(table.find_by_path("/a/c"), ac);
  // A rebound subtree gets fresh handles; the survivors keep theirs.
  EXPECT_EQ(table.bind("/a/b", "/s", handle(1, 6), fs::FileType::kDirectory).value, 6u);
  table.drop_subtree("/");
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.find_by_path("/a").has_value());
}

TEST(VirtualHandles, RebindKeepsPathAndType) {
  VirtualHandleTable table;
  const auto vh = table.bind("/a/d", "/s1", handle(1, 5), fs::FileType::kDirectory);
  const auto other = table.bind("/a/e", "/s9", handle(1, 9), fs::FileType::kFile);
  EXPECT_TRUE(table.rebind(vh, "/s2", handle(3, 7)));
  const VhEntry* entry = table.find(vh);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->path, "/a/d");
  EXPECT_EQ(entry->stored_path, "/s2");
  EXPECT_EQ(entry->real, handle(3, 7));
  EXPECT_EQ(entry->type, fs::FileType::kDirectory);
  EXPECT_EQ(table.find_by_path("/a/d"), vh);
  EXPECT_EQ(table.find(other)->stored_path, "/s9");
  table.drop(vh);
  EXPECT_FALSE(table.rebind(vh, "/s3", handle(3, 8)));
  EXPECT_FALSE(table.find_by_path("/a/d").has_value());
}

/// koshad drops a subtree on every remove, rmdir and rename, and handles
/// are never reused, so a create-and-remove loop leaves a dropped slot per
/// cycle. drop_subtree must cost what the live entries cost: after 38,000
/// cycles a batch takes about as long as the first batches did. A sweep
/// over every slot ever issued makes the last batches some 20 times
/// slower. Each side takes the faster of two batches to shed noise.
TEST(VirtualHandles, DropSubtreeCostFollowsLiveEntriesNotHandlesIssued) {
  VirtualHandleTable table;
  const auto keep = table.bind("/keep", "/s", handle(1, 1), fs::FileType::kDirectory);
  constexpr int kBatches = 20;
  constexpr int kCycles = 2000;
  std::vector<std::uint64_t> batch_ns;
  std::uint64_t n = 0;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t start = SimProfiler::wall_now_ns();
    for (int c = 0; c < kCycles; ++c) {
      const std::string path = std::string("/tmp/f").append(std::to_string(n++));
      table.bind(path, path, handle(1, 2), fs::FileType::kFile);
      table.drop_subtree(path);
    }
    batch_ns.push_back(SimProfiler::wall_now_ns() - start);
  }
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find_by_path("/keep"), keep);
  const std::uint64_t early = std::min(batch_ns[0], batch_ns[1]);
  const std::uint64_t late = std::min(batch_ns[kBatches - 2], batch_ns[kBatches - 1]);
  EXPECT_LT(late, 4 * early) << "first batches " << batch_ns[0] << ", " << batch_ns[1]
                             << " ns; last " << batch_ns[kBatches - 2] << ", "
                             << batch_ns[kBatches - 1] << " ns";
}

}  // namespace
}  // namespace kosha
