// LocalFs tests: namespace operations, data operations, capacity
// accounting, generation/staleness, the path helpers, and the shared
// copy-on-write content buffers (fs/bytes.hpp).

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "fs/bytes.hpp"
#include "fs/local_fs.hpp"

namespace kosha::fs {
namespace {

TEST(LocalFs, RootExists) {
  LocalFs store;
  const auto attr = store.getattr(store.root());
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->type, FileType::kDirectory);
  EXPECT_EQ(store.live_inode_count(), 1u);
}

TEST(LocalFs, CreateLookupRoundTrip) {
  LocalFs store;
  const auto file = store.create(store.root(), "hello.txt", 0640, 7);
  ASSERT_TRUE(file.ok());
  const auto found = store.lookup(store.root(), "hello.txt");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), file.value());
  const auto attr = store.getattr(*file);
  EXPECT_EQ(attr->mode, 0640u);
  EXPECT_EQ(attr->uid, 7u);
  EXPECT_EQ(attr->size, 0u);
}

TEST(LocalFs, CreateErrors) {
  LocalFs store;
  EXPECT_EQ(store.create(store.root(), "").error(), FsStatus::kInval);
  EXPECT_EQ(store.create(store.root(), ".").error(), FsStatus::kInval);
  EXPECT_EQ(store.create(store.root(), "..").error(), FsStatus::kInval);
  EXPECT_EQ(store.create(store.root(), "a/b").error(), FsStatus::kInval);
  ASSERT_TRUE(store.create(store.root(), "x").ok());
  EXPECT_EQ(store.create(store.root(), "x").error(), FsStatus::kExist);
  EXPECT_EQ(store.create(999, "y").error(), FsStatus::kStale);
  const auto file = store.lookup(store.root(), "x");
  EXPECT_EQ(store.create(*file, "y").error(), FsStatus::kNotDir);
}

TEST(LocalFs, LookupErrors) {
  LocalFs store;
  EXPECT_EQ(store.lookup(store.root(), "nope").error(), FsStatus::kNoEnt);
  const auto file = store.create(store.root(), "f");
  EXPECT_EQ(store.lookup(*file, "x").error(), FsStatus::kNotDir);
}

TEST(LocalFs, WriteReadRoundTrip) {
  LocalFs store;
  const auto file = store.create(store.root(), "data");
  ASSERT_TRUE(store.write(*file, 0, "hello world").ok());
  const auto text = store.read(*file, 0, 100);
  EXPECT_EQ(text.value(), "hello world");
  EXPECT_EQ(store.read(*file, 6, 5).value(), "world");
  EXPECT_EQ(store.read(*file, 100, 5).value(), "");
  EXPECT_EQ(store.used_bytes(), 11u);
}

TEST(LocalFs, SparseWriteZeroFills) {
  LocalFs store;
  const auto file = store.create(store.root(), "sparse");
  ASSERT_TRUE(store.write(*file, 5, "x").ok());
  const auto data = store.read(*file, 0, 10);
  EXPECT_EQ(data->size(), 6u);
  EXPECT_EQ((*data)[0], '\0');
  EXPECT_EQ((*data)[5], 'x');
}

TEST(LocalFs, OverwriteDoesNotGrow) {
  LocalFs store;
  const auto file = store.create(store.root(), "f");
  (void)store.write(*file, 0, "aaaa");
  (void)store.write(*file, 1, "bb");
  EXPECT_EQ(store.read(*file, 0, 10).value(), "abba");
  EXPECT_EQ(store.used_bytes(), 4u);
}

TEST(LocalFs, TruncateGrowsAndShrinks) {
  LocalFs store;
  const auto file = store.create(store.root(), "f");
  (void)store.write(*file, 0, "abcdef");
  ASSERT_TRUE(store.truncate(*file, 3).ok());
  EXPECT_EQ(store.read(*file, 0, 10).value(), "abc");
  EXPECT_EQ(store.used_bytes(), 3u);
  ASSERT_TRUE(store.truncate(*file, 5).ok());
  EXPECT_EQ(store.used_bytes(), 5u);
  EXPECT_EQ(store.getattr(*file)->size, 5u);
  const auto dir = store.mkdir(store.root(), "d");
  EXPECT_EQ(store.truncate(*dir, 0).error(), FsStatus::kIsDir);
}

TEST(LocalFs, CapacityEnforced) {
  FsConfig config;
  config.capacity_bytes = 100;
  LocalFs store(config);
  const auto file = store.create(store.root(), "f");
  EXPECT_TRUE(store.write(*file, 0, std::string(100, 'x')).ok());
  EXPECT_EQ(store.write(*file, 100, "y").error(), FsStatus::kNoSpace);
  EXPECT_EQ(store.utilization(), 1.0);
  EXPECT_TRUE(store.would_exceed(1));
  EXPECT_FALSE(store.would_exceed(0));
  // Shrinking frees space.
  ASSERT_TRUE(store.truncate(*file, 50).ok());
  EXPECT_TRUE(store.write(*file, 50, std::string(50, 'z')).ok());
}

TEST(LocalFs, UtilizationThreshold) {
  FsConfig config;
  config.capacity_bytes = 100;
  config.utilization_threshold = 0.5;
  LocalFs store(config);
  const auto file = store.create(store.root(), "f");
  EXPECT_TRUE(store.write(*file, 0, std::string(50, 'x')).ok());
  EXPECT_EQ(store.write(*file, 50, "y").error(), FsStatus::kNoSpace);
}

TEST(LocalFs, RemoveFile) {
  LocalFs store;
  const auto file = store.create(store.root(), "f");
  (void)store.write(*file, 0, "abc");
  ASSERT_TRUE(store.remove(store.root(), "f").ok());
  EXPECT_EQ(store.used_bytes(), 0u);
  EXPECT_EQ(store.lookup(store.root(), "f").error(), FsStatus::kNoEnt);
  EXPECT_EQ(store.remove(store.root(), "f").error(), FsStatus::kNoEnt);
  const auto dir = store.mkdir(store.root(), "d");
  (void)dir;
  EXPECT_EQ(store.remove(store.root(), "d").error(), FsStatus::kIsDir);
}

TEST(LocalFs, RmdirOnlyEmptyDirectories) {
  LocalFs store;
  const auto dir = store.mkdir(store.root(), "d");
  (void)store.create(*dir, "f");
  EXPECT_EQ(store.rmdir(store.root(), "d").error(), FsStatus::kNotEmpty);
  ASSERT_TRUE(store.remove(*dir, "f").ok());
  EXPECT_TRUE(store.rmdir(store.root(), "d").ok());
  const auto file = store.create(store.root(), "f");
  (void)file;
  EXPECT_EQ(store.rmdir(store.root(), "f").error(), FsStatus::kNotDir);
}

TEST(LocalFs, StaleHandleAfterRemove) {
  LocalFs store;
  const auto file = store.create(store.root(), "f");
  const auto gen = store.getattr(*file)->generation;
  ASSERT_TRUE(store.remove(store.root(), "f").ok());
  EXPECT_EQ(store.getattr(*file).error(), FsStatus::kStale);
  // Recreating reuses the inode slot with a bumped generation.
  const auto again = store.create(store.root(), "f2");
  if (again.value() == file.value()) {
    EXPECT_GT(store.getattr(*again)->generation, gen);
  }
}

TEST(LocalFs, RenameWithinAndAcrossDirs) {
  LocalFs store;
  const auto d1 = store.mkdir(store.root(), "d1");
  const auto d2 = store.mkdir(store.root(), "d2");
  const auto file = store.create(*d1, "f");
  (void)store.write(*file, 0, "content");
  ASSERT_TRUE(store.rename(*d1, "f", *d2, "g").ok());
  EXPECT_EQ(store.lookup(*d1, "f").error(), FsStatus::kNoEnt);
  const auto moved = store.lookup(*d2, "g");
  EXPECT_EQ(store.read(*moved, 0, 100).value(), "content");
}

TEST(LocalFs, RenameReplacesFileTarget) {
  LocalFs store;
  const auto a = store.create(store.root(), "a");
  (void)store.write(*a, 0, "aaa");
  const auto b = store.create(store.root(), "b");
  (void)store.write(*b, 0, "bb");
  ASSERT_TRUE(store.rename(store.root(), "a", store.root(), "b").ok());
  EXPECT_EQ(store.read(*store.lookup(store.root(), "b"), 0, 10).value(), "aaa");
  EXPECT_EQ(store.used_bytes(), 3u);
}

TEST(LocalFs, RenameRefusesDirectoryTarget) {
  LocalFs store;
  (void)store.create(store.root(), "a");
  (void)store.mkdir(store.root(), "d");
  EXPECT_EQ(store.rename(store.root(), "a", store.root(), "d").error(), FsStatus::kIsDir);
}

TEST(LocalFs, RenameMovesDirectories) {
  LocalFs store;
  const auto d1 = store.mkdir(store.root(), "d1");
  const auto sub = store.mkdir(*d1, "sub");
  (void)store.create(*sub, "f");
  const auto d2 = store.mkdir(store.root(), "d2");
  ASSERT_TRUE(store.rename(*d1, "sub", *d2, "moved").ok());
  EXPECT_TRUE(store.resolve("/d2/moved/f").ok());
}

TEST(LocalFs, RenameNoopOntoItself) {
  LocalFs store;
  (void)store.create(store.root(), "a");
  EXPECT_TRUE(store.rename(store.root(), "a", store.root(), "a").ok());
  EXPECT_TRUE(store.lookup(store.root(), "a").ok());
}

TEST(LocalFs, SymlinkRoundTrip) {
  LocalFs store;
  const auto link = store.symlink(store.root(), "l", "target#1");
  ASSERT_TRUE(link.ok());
  EXPECT_EQ(store.readlink(*link).value(), "target#1");
  EXPECT_EQ(store.getattr(*link)->type, FileType::kSymlink);
  const auto file = store.create(store.root(), "f");
  EXPECT_EQ(store.readlink(*file).error(), FsStatus::kInval);
  // Symlinks are removed with remove(), like files.
  EXPECT_TRUE(store.remove(store.root(), "l").ok());
}

TEST(LocalFs, ReaddirListsSorted) {
  LocalFs store;
  (void)store.create(store.root(), "b");
  (void)store.mkdir(store.root(), "a");
  (void)store.symlink(store.root(), "c", "t");
  const auto entries = store.readdir(store.root());
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0].name, "a");
  EXPECT_EQ((*entries)[0].type, FileType::kDirectory);
  EXPECT_EQ((*entries)[1].name, "b");
  EXPECT_EQ((*entries)[1].type, FileType::kFile);
  EXPECT_EQ((*entries)[2].name, "c");
  EXPECT_EQ((*entries)[2].type, FileType::kSymlink);
}

TEST(LocalFs, ResolveAndMkdirP) {
  LocalFs store;
  const auto deep = store.mkdir_p("/a/b/c");
  ASSERT_TRUE(deep.ok());
  EXPECT_EQ(store.resolve("/a/b/c").value(), deep.value());
  EXPECT_EQ(store.resolve("/").value(), store.root());
  EXPECT_EQ(store.resolve("/a/x").error(), FsStatus::kNoEnt);
  // mkdir_p over an existing chain is a no-op.
  EXPECT_EQ(store.mkdir_p("/a/b/c").value(), deep.value());
  // mkdir_p refuses to treat a file as a directory.
  (void)store.create(*deep, "f");
  EXPECT_EQ(store.mkdir_p("/a/b/c/f/g").error(), FsStatus::kNotDir);
}

TEST(LocalFs, RemoveRecursive) {
  LocalFs store;
  (void)store.mkdir_p("/a/b/c");
  const auto c = store.resolve("/a/b/c");
  (void)store.write(*store.create(*c, "f1"), 0, "xx");
  (void)store.write(*store.create(*store.resolve("/a"), "f2"), 0, "yy");
  ASSERT_TRUE(store.remove_recursive(store.root(), "a").ok());
  EXPECT_EQ(store.resolve("/a").error(), FsStatus::kNoEnt);
  EXPECT_EQ(store.used_bytes(), 0u);
  EXPECT_EQ(store.live_inode_count(), 1u);
}

TEST(LocalFs, SubtreeAccounting) {
  LocalFs store;
  (void)store.mkdir_p("/a/b");
  (void)store.write(*store.create(*store.resolve("/a"), "f1"), 0, "123");
  (void)store.write(*store.create(*store.resolve("/a/b"), "f2"), 0, "4567");
  (void)store.symlink(*store.resolve("/a"), "l", "t");
  EXPECT_EQ(store.subtree_bytes(*store.resolve("/a")), 7u);
  EXPECT_EQ(store.subtree_file_count(*store.resolve("/a")), 2u);
  EXPECT_EQ(store.subtree_bytes(*store.resolve("/a/b/f2")), 4u);
}

TEST(LocalFs, PurgeResetsEverythingAndStalesHandles) {
  LocalFs store;
  (void)store.mkdir_p("/a/b");
  const auto file = store.create(*store.resolve("/a"), "f");
  (void)store.write(*file, 0, "data");
  store.purge();
  EXPECT_EQ(store.used_bytes(), 0u);
  EXPECT_EQ(store.live_inode_count(), 1u);
  EXPECT_EQ(store.getattr(*file).error(), FsStatus::kStale);
  EXPECT_TRUE(store.readdir(store.root())->empty());
  // Still usable after purge.
  EXPECT_TRUE(store.create(store.root(), "fresh").ok());
}

TEST(LocalFs, InodeReuseStress) {
  LocalFs store;
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::string> names;
    for (int i = 0; i < 20; ++i) {
      const std::string name = std::string("f").append(std::to_string(i));
      ASSERT_TRUE(store.create(store.root(), name).ok());
      names.push_back(name);
    }
    for (const auto& name : names) ASSERT_TRUE(store.remove(store.root(), name).ok());
    EXPECT_EQ(store.live_inode_count(), 1u);
  }
}

TEST(LocalFs, FreedInodesAreReusedLastFreedFirst) {
  LocalFs store;
  const InodeId a = *store.create(store.root(), "a");
  const InodeId b = *store.create(store.root(), "b");
  const InodeId c = *store.mkdir(store.root(), "c");
  EXPECT_EQ(a, 2u);
  EXPECT_EQ(b, 3u);
  EXPECT_EQ(c, 4u);
  ASSERT_TRUE(store.remove(store.root(), "b").ok());
  ASSERT_TRUE(store.remove(store.root(), "a").ok());
  const InodeId x = *store.mkdir(store.root(), "x");
  const InodeId y = *store.symlink(store.root(), "y", "/t");
  const InodeId z = *store.create(store.root(), "z");
  EXPECT_EQ(x, a);
  EXPECT_EQ(y, b);
  EXPECT_EQ(z, 5u);
  // Each reuse bumps the slot's generation, so the old handles are stale.
  EXPECT_EQ(store.getattr(x)->generation, 2u);
  EXPECT_EQ(store.getattr(y)->generation, 2u);
  EXPECT_EQ(store.getattr(z)->generation, 1u);
  EXPECT_EQ(store.live_inode_count(), 5u);
}

TEST(LocalFs, AReusedInodeCarriesNoPayloadOfItsPastLife) {
  LocalFs store;
  // A file with content becomes a directory: it holds no bytes ...
  const InodeId f = *store.create(store.root(), "f");
  ASSERT_TRUE(store.write(f, 0, "some content").ok());
  ASSERT_TRUE(store.remove(store.root(), "f").ok());
  const InodeId d = *store.mkdir(store.root(), "d");
  ASSERT_EQ(d, f);
  EXPECT_EQ(store.getattr(d)->size, 0u);
  EXPECT_TRUE(store.readdir(d)->empty());
  EXPECT_EQ(store.read(d, 0, 100).error(), FsStatus::kIsDir);
  EXPECT_EQ(store.used_bytes(), 0u);
  // ... and a directory that held entries becomes a file with none.
  ASSERT_TRUE(store.create(d, "child").ok());
  ASSERT_TRUE(store.remove(d, "child").ok());
  ASSERT_TRUE(store.rmdir(store.root(), "d").ok());
  const InodeId g = *store.create(store.root(), "g");
  ASSERT_EQ(g, d);
  EXPECT_EQ(store.getattr(g)->size, 0u);
  EXPECT_EQ(store.read(g, 0, 100)->size(), 0u);
  EXPECT_EQ(store.readdir(g).error(), FsStatus::kNotDir);
  EXPECT_EQ(store.lookup(g, "child").error(), FsStatus::kNotDir);
  // A symlink reads back only its own target.
  ASSERT_TRUE(store.write(g, 0, "0123456789").ok());
  ASSERT_TRUE(store.remove(store.root(), "g").ok());
  const InodeId l = *store.symlink(store.root(), "l", "/x");
  ASSERT_EQ(l, g);
  EXPECT_EQ(store.readlink(l).value(), "/x");
  EXPECT_EQ(store.getattr(l)->size, 2u);
  EXPECT_EQ(store.read(l, 0, 100).error(), FsStatus::kIsDir);
  EXPECT_EQ(store.readdir(l).error(), FsStatus::kNotDir);
  EXPECT_EQ(store.used_bytes(), 0u);
}

TEST(LocalFs, PurgeKeepsGenerationsMonotonic) {
  LocalFs store;
  const InodeId dir = *store.mkdir(store.root(), "d");
  const InodeId f1 = *store.create(dir, "f1");
  const InodeId f2 = *store.create(dir, "f2");
  ASSERT_TRUE(store.write(f2, 0, "payload").ok());
  ASSERT_TRUE(store.remove(dir, "f1").ok());
  const InodeId again = *store.create(dir, "f3");  // generation 2 in f1's slot
  ASSERT_EQ(again, f1);
  store.purge();
  EXPECT_EQ(store.getattr(store.root())->generation, 2u);
  EXPECT_TRUE(store.readdir(store.root())->empty());
  // The freed slots come back highest id first, each one generation past
  // anything a handle from before the purge could name.
  const InodeId n1 = *store.create(store.root(), "n1");
  const InodeId n2 = *store.mkdir(store.root(), "n2");
  const InodeId n3 = *store.create(store.root(), "n3");
  const InodeId n4 = *store.create(store.root(), "n4");
  EXPECT_EQ(n1, f2);
  EXPECT_EQ(n2, f1);
  EXPECT_EQ(n3, dir);
  EXPECT_EQ(n4, 5u);
  EXPECT_EQ(store.getattr(n1)->generation, 3u);
  EXPECT_EQ(store.getattr(n2)->generation, 4u);
  EXPECT_EQ(store.getattr(n3)->generation, 3u);
  EXPECT_EQ(store.getattr(n4)->generation, 1u);
  EXPECT_EQ(store.getattr(n1)->size, 0u);
  EXPECT_TRUE(store.readdir(n2)->empty());
}

TEST(LocalFs, NamesAreLookedUpByView) {
  // Names reach the store as views into longer paths; the directory map
  // compares them without building strings, so nothing past the view may
  // leak into the comparison.
  LocalFs store;
  const std::string_view path = "abc/def";
  const auto made = store.create(store.root(), path.substr(0, 3));
  ASSERT_TRUE(made.ok());
  EXPECT_EQ(store.lookup(store.root(), "abc").value(), *made);
  EXPECT_EQ(store.lookup(store.root(), path.substr(0, 2)).error(), FsStatus::kNoEnt);
  EXPECT_EQ(store.create(store.root(), path.substr(0, 3)).error(), FsStatus::kExist);
  ASSERT_TRUE(store.rename(store.root(), path.substr(0, 3), store.root(), path.substr(4)).ok());
  EXPECT_TRUE(store.lookup(store.root(), "def").ok());
  EXPECT_EQ(store.resolve("//def/").value(), *made);
  EXPECT_TRUE(store.remove(store.root(), path.substr(4)).ok());
}

// ---------------------------------------------------------------------------
// Shared content buffers: one copy where bytes enter, copy-on-write after.
// ---------------------------------------------------------------------------

/// Two single-file stores that both took `payload` at offset 0.
struct SharedPair {
  LocalFs a;
  LocalFs b;
  InodeId fa = kInvalidInode;
  InodeId fb = kInvalidInode;

  explicit SharedPair(const Bytes& payload) {
    fa = *a.create(a.root(), "f");
    fb = *b.create(b.root(), "f");
    EXPECT_TRUE(a.write(fa, 0, payload).ok());
    EXPECT_TRUE(b.write(fb, 0, payload).ok());
  }
  [[nodiscard]] Bytes content_a() const { return *a.read(fa, 0, 1 << 30); }
  [[nodiscard]] Bytes content_b() const { return *b.read(fb, 0, 1 << 30); }
};

TEST(LocalFsSharing, WriteIntoEmptyFileAdoptsTheBuffer) {
  const Bytes payload(std::string(1000, 'x'));
  SharedPair pair(payload);
  EXPECT_TRUE(pair.content_a().shares_buffer_with(payload));
  EXPECT_TRUE(pair.content_a().shares_buffer_with(pair.content_b()));
  // Accounting is logical: each store counts the bytes it holds.
  EXPECT_EQ(pair.a.used_bytes(), 1000u);
  EXPECT_EQ(pair.b.used_bytes(), 1000u);
  EXPECT_EQ(pair.a.subtree_bytes(pair.a.root()), pair.a.used_bytes());
  EXPECT_EQ(pair.a.stats().shared_copy_bytes, 0u);
}

TEST(LocalFsSharing, SliceOfALargerBufferIsCopiedNotPinned) {
  const Bytes big(std::string(4096, 'b'));
  LocalFs store;
  const auto file = *store.create(store.root(), "small");
  ASSERT_TRUE(store.write(file, 0, big.slice(10, 16)).ok());
  const Bytes held = *store.read(file, 0, 100);
  EXPECT_EQ(held, std::string(16, 'b'));
  EXPECT_FALSE(held.shares_buffer_with(big));
}

/// One mutation applied through `store` to `file`.
using Mutation = void (*)(LocalFs& store, InodeId file);

void overwrite_middle(LocalFs& store, InodeId file) {
  ASSERT_TRUE(store.write(file, 2, "MID").ok());
}
void append_tail(LocalFs& store, InodeId file) {
  const auto size = store.getattr(file)->size;
  ASSERT_TRUE(store.write(file, size, "TAIL").ok());
}
void truncate_shorter(LocalFs& store, InodeId file) { ASSERT_TRUE(store.truncate(file, 3).ok()); }
void truncate_longer(LocalFs& store, InodeId file) { ASSERT_TRUE(store.truncate(file, 40).ok()); }
void truncate_empty(LocalFs& store, InodeId file) { ASSERT_TRUE(store.truncate(file, 0).ok()); }

TEST(LocalFsSharing, MutationThroughOneHolderNeverReachesAnother) {
  const std::string original = "0123456789abcdef";
  for (const Mutation mutate :
       {&overwrite_middle, &append_tail, &truncate_shorter, &truncate_longer, &truncate_empty}) {
    for (const bool through_a : {true, false}) {
      const Bytes payload(original);
      SharedPair pair(payload);
      const Bytes slice = *pair.a.read(pair.fa, 4, 8);  // an outstanding read
      LocalFs& mutated = through_a ? pair.a : pair.b;
      mutate(mutated, through_a ? pair.fa : pair.fb);
      const Bytes other = through_a ? pair.content_b() : pair.content_a();
      EXPECT_EQ(other, original);
      EXPECT_EQ(slice, original.substr(4, 8));
      EXPECT_EQ(payload, original);
      // The mutated side changed and its accounting followed its size.
      const Bytes mine = through_a ? pair.content_a() : pair.content_b();
      EXPECT_NE(mine, original);
      EXPECT_EQ(mutated.used_bytes(), mine.size());
      EXPECT_EQ(mutated.subtree_bytes(mutated.root()), mutated.used_bytes());
    }
  }
}

TEST(LocalFsSharing, SharedBufferIsCopiedOnceThenMutatedInPlace) {
  const Bytes payload(std::string(100, 'p'));
  SharedPair pair(payload);
  ASSERT_TRUE(pair.a.write(pair.fa, 100, "q").ok());
  EXPECT_EQ(pair.a.stats().shared_copy_bytes, 100u);  // a's view left payload's buffer
  ASSERT_TRUE(pair.a.write(pair.fa, 101, "r").ok());
  EXPECT_EQ(pair.a.stats().shared_copy_bytes, 100u);  // now private: in place
  EXPECT_EQ(pair.content_a(), std::string(100, 'p') + "qr");
  EXPECT_EQ(pair.content_b(), std::string(100, 'p'));
  // A truncate copies only the bytes it keeps, and only while shared.
  ASSERT_TRUE(pair.b.truncate(pair.fb, 40).ok());
  EXPECT_EQ(pair.b.stats().shared_copy_bytes, 40u);
  ASSERT_TRUE(pair.b.truncate(pair.fb, 30).ok());
  EXPECT_EQ(pair.b.stats().shared_copy_bytes, 40u);
  EXPECT_EQ(payload, std::string(100, 'p'));
}

TEST(LocalFsSharing, ChunkedAppendsToAnUnsharedFileRunInPlace) {
  // The shape of koshad's copy_tree: a 4 MB source read in 64 KB slices
  // and appended to a fresh file. Each append must extend the file where
  // it lies instead of copying everything written so far.
  constexpr std::size_t kFile = 4u << 20;
  constexpr std::size_t kChunk = 64u << 10;
  std::string text(kFile, '\0');
  Rng rng(5);
  for (char& c : text) c = static_cast<char>('a' + rng.next_below(26));
  LocalFs store;
  const auto src = *store.create(store.root(), "src");
  const auto dst = *store.create(store.root(), "dst");
  ASSERT_TRUE(store.write(src, 0, Bytes(text)).ok());
  for (std::size_t offset = 0; offset < kFile; offset += kChunk) {
    const Bytes chunk = *store.read(src, offset, kChunk);
    ASSERT_TRUE(chunk.shares_buffer_with(*store.read(src, 0, 1)));
    ASSERT_TRUE(store.write(dst, offset, chunk).ok());
  }
  EXPECT_EQ(store.stats().shared_copy_bytes, 0u);
  EXPECT_EQ(*store.read(dst, 0, kFile), text);
  EXPECT_EQ(store.used_bytes(), 2 * kFile);

  // An outstanding slice of the destination makes the next append copy
  // once, and the slice keeps the bytes it was handed.
  const Bytes held = *store.read(dst, kFile - 4, 4);
  ASSERT_TRUE(store.write(dst, kFile - 2, "ZZZZ").ok());
  EXPECT_EQ(store.stats().shared_copy_bytes, kFile);
  EXPECT_EQ(held, text.substr(kFile - 4));
  EXPECT_EQ(store.read(dst, kFile - 4, 8).value(), text.substr(kFile - 4, 2) + "ZZZZ");
}

TEST(LocalFsSharing, WritingAFilesOwnSliceBackIntoItIsSafe) {
  LocalFs store;
  const auto file = *store.create(store.root(), "self");
  ASSERT_TRUE(store.write(file, 0, "abcdef").ok());
  const Bytes head = *store.read(file, 0, 3);
  ASSERT_TRUE(store.write(file, 4, head).ok());
  EXPECT_EQ(store.read(file, 0, 100).value(), "abcdabc");
  EXPECT_EQ(head, "abc");
  const Bytes whole = *store.read(file, 0, 100);
  ASSERT_TRUE(store.write(file, 7, whole).ok());
  EXPECT_EQ(store.read(file, 0, 100).value(), "abcdabcabcdabc");
}

TEST(Bytes, ValueSemantics) {
  Bytes empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty, "");
  EXPECT_NE(empty.data(), nullptr);
  EXPECT_FALSE(empty.shares_buffer_with(empty));
  // Long enough to live on the heap, so adoption is observable.
  std::string text = "adopted, not copied";
  const char* before = text.data();
  const Bytes adopted(std::move(text));
  EXPECT_EQ(adopted.data(), before);
  Bytes copy = adopted;
  EXPECT_TRUE(copy.shares_buffer_with(adopted));
  EXPECT_EQ(copy.write(0, "A"), adopted.size());
  EXPECT_EQ(copy, "Adopted, not copied");
  EXPECT_EQ(adopted, "adopted, not copied");
  EXPECT_EQ(adopted.slice(2, 3), "opt");
  EXPECT_EQ(adopted.slice(16, 100), "ied");
  EXPECT_TRUE(adopted.slice(19, 1).empty());
  EXPECT_EQ(copy.resize(21), 0u);
  EXPECT_EQ(copy.view(), std::string_view("Adopted, not copied\0\0", 21));
  // Writing an object into itself must read the bytes before it reshapes
  // the buffer they live in.
  Bytes self(std::string("0123456789abcdefghij"));
  self.write(15, self);
  EXPECT_EQ(self, "0123456789abcde0123456789abcdefghij");
}

TEST(Bytes, AppendWidensAdjacentSlicesOfOneBuffer) {
  const Bytes file(std::string("0123456789abcdefghij"));
  Bytes out;
  EXPECT_EQ(out.append(file.slice(0, 8)), 0u);
  EXPECT_EQ(out.append(file.slice(8, 8)), 0u);
  EXPECT_EQ(out.append(file.slice(16, 8)), 0u);
  EXPECT_EQ(out, "0123456789abcdefghij");
  EXPECT_TRUE(out.shares_buffer_with(file));
  EXPECT_EQ(out.data(), file.data());
  // Adjacency is by position in the buffer, not by whole-file offsets.
  Bytes mid = file.slice(4, 4);
  EXPECT_EQ(mid.append(file.slice(8, 2)), 0u);
  EXPECT_EQ(mid, "456789");
  EXPECT_TRUE(mid.shares_buffer_with(file));
}

TEST(Bytes, AppendCopiesAcrossAGapOrAnotherBuffer) {
  const Bytes file(std::string("0123456789abcdefghij"));
  Bytes gap = file.slice(0, 4);
  EXPECT_EQ(gap.append(file.slice(5, 3)), 4u);  // the shared head is copied out
  EXPECT_EQ(gap, "0123567");
  EXPECT_FALSE(gap.shares_buffer_with(file));
  // Now private: further appends, from any buffer, run in place.
  const Bytes other(std::string("KLMNOPQRSTUVWXYZ"));
  EXPECT_EQ(gap.append(other.slice(0, 3)), 0u);
  EXPECT_EQ(gap, "0123567KLM");
  EXPECT_FALSE(gap.shares_buffer_with(other));
  // A slice of another buffer is copied even where its offset lines up.
  Bytes lined_up = file.slice(0, 4);
  lined_up.append(other.slice(4, 3));
  EXPECT_EQ(lined_up, "0123OPQ");
  // Chunks that each arrive in a fresh buffer (a CAS read) concatenate.
  Bytes chunks;
  for (const char* chunk : {"first chunk, ", "second chunk, ", "third"}) {
    chunks.append(Bytes(std::string(chunk)));
  }
  EXPECT_EQ(chunks, "first chunk, second chunk, third");
  // A slice of the same buffer that does not start where the view ends is
  // copied too.
  Bytes before = file.slice(0, 4);
  before.append(file.slice(0, 4));
  EXPECT_EQ(before, "01230123");
  EXPECT_EQ(file, "0123456789abcdefghij");
}

TEST(Bytes, AppendNeverChangesWhatOtherHoldersSee) {
  const Bytes file(std::string("0123456789abcdefghij"));
  const Bytes held = file.slice(0, 10);
  Bytes grown = held;
  grown.append(Bytes(std::string("XYZ")));
  EXPECT_EQ(grown, "0123456789XYZ");
  EXPECT_EQ(held, "0123456789");
  EXPECT_EQ(file, "0123456789abcdefghij");
  // Widening over the buffer another holder views leaves that view as is.
  Bytes wide = held;
  wide.append(file.slice(10, 5));
  EXPECT_EQ(wide, "0123456789abcde");
  EXPECT_EQ(held, "0123456789");
  EXPECT_TRUE(wide.shares_buffer_with(held));
  // A widened view is still copy-on-write.
  EXPECT_EQ(wide.write(0, "W"), wide.size());
  EXPECT_EQ(wide, "W123456789abcde");
  EXPECT_EQ(file, "0123456789abcdefghij");
  // Appending an object to itself reads the bytes before reshaping them.
  Bytes self(std::string("abc"));
  self.append(self);
  EXPECT_EQ(self, "abcabc");
}

TEST(Bytes, AppendWithAnEmptySide) {
  const Bytes file(std::string("0123456789abcdefghij"));
  Bytes out;
  EXPECT_EQ(out.append(Bytes{}), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(out.shares_buffer_with(file));
  // An empty object shares whatever it is handed, even a slice.
  EXPECT_EQ(out.append(file.slice(3, 4)), 0u);
  EXPECT_EQ(out, "3456");
  EXPECT_TRUE(out.shares_buffer_with(file));
  // Appending nothing leaves the view and its buffer alone.
  EXPECT_EQ(out.append(Bytes{}), 0u);
  EXPECT_EQ(out.append(file.slice(100, 4)), 0u);
  EXPECT_EQ(out, "3456");
  EXPECT_TRUE(out.shares_buffer_with(file));
}

}  // namespace
}  // namespace kosha::fs
