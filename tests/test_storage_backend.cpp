// Storage backend seam: the flat and content-addressed stores must be
// observably identical through the StorageBackend interface (same op
// results, same attributes, same accounting), while the CAS backend alone
// dedups physical bytes, detects corrupted blocks on read, and feeds the
// self-healing ladder: a corrupt replica block is repaired by the
// anti-entropy scrub, a corrupt primary read degrades to a replica copy.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "fs/storage_backend.hpp"
#include "kosha/audit.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "nfs/nfs_server.hpp"

namespace kosha::fs {
namespace {

StorageConfig config_of(BackendKind backend, std::uint64_t chunk_bytes = 8) {
  StorageConfig config;
  config.backend = backend;
  config.chunk_bytes = chunk_bytes;
  return config;
}

// ---------------------------------------------------------------------------
// Parity: the test_local_fs_model operation stream applied to both backends
// side by side; every operation must report the same status and every
// checkpoint must show the same observable tree.
// ---------------------------------------------------------------------------

/// Deep-compare the two stores' trees: entry names/types, file content,
/// symlink targets, and the attribute fields NFS exposes.
void expect_same_tree(StorageBackend& a, StorageBackend& b, InodeId dir_a, InodeId dir_b,
                      const std::string& where) {
  const auto ea = a.readdir(dir_a);
  const auto eb = b.readdir(dir_b);
  ASSERT_EQ(ea.ok(), eb.ok()) << where;
  if (!ea.ok()) return;
  ASSERT_EQ(ea->size(), eb->size()) << where;
  for (std::size_t i = 0; i < ea->size(); ++i) {
    const DirEntry& da = ea.value()[i];
    const DirEntry& db = eb.value()[i];
    const std::string path = where + "/" + da.name;
    ASSERT_EQ(da.name, db.name) << path;
    ASSERT_EQ(da.type, db.type) << path;
    const auto aa = a.getattr(da.inode);
    const auto ab = b.getattr(db.inode);
    ASSERT_TRUE(aa.ok() && ab.ok()) << path;
    EXPECT_EQ(aa->size, ab->size) << path;
    EXPECT_EQ(aa->mode, ab->mode) << path;
    EXPECT_EQ(aa->uid, ab->uid) << path;
    EXPECT_EQ(aa->gid, ab->gid) << path;
    EXPECT_EQ(aa->mtime, ab->mtime) << path;
    if (da.type == FileType::kFile) {
      const auto ca = a.read(da.inode, 0, 1 << 20);
      const auto cb = b.read(db.inode, 0, 1 << 20);
      ASSERT_TRUE(ca.ok() && cb.ok()) << path;
      EXPECT_EQ(ca.value(), cb.value()) << path;
    } else if (da.type == FileType::kSymlink) {
      EXPECT_EQ(a.readlink(da.inode).value(), b.readlink(db.inode).value()) << path;
    } else {
      expect_same_tree(a, b, da.inode, db.inode, path);
    }
  }
}

class StorageParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StorageParity, RandomOperationStreamsAgreeAcrossBackends) {
  const auto flat = make_backend(config_of(BackendKind::kFlat));
  const auto cas = make_backend(config_of(BackendKind::kCas, /*chunk_bytes=*/8));
  Rng rng(GetParam());

  std::vector<std::vector<std::string>> dirs{{}};
  auto resolve_dir = [](StorageBackend& fs, const std::vector<std::string>& parts) {
    InodeId cur = fs.root();
    for (const auto& p : parts) {
      const auto next = fs.lookup(cur, p);
      if (!next.ok()) return kInvalidInode;
      cur = next.value();
    }
    return cur;
  };

  for (int op = 0; op < 600; ++op) {
    const auto& parts = dirs[rng.next_below(dirs.size())];
    const InodeId fdir = resolve_dir(*flat, parts);
    const InodeId cdir = resolve_dir(*cas, parts);
    ASSERT_EQ(fdir == kInvalidInode, cdir == kInvalidInode);
    if (fdir == kInvalidInode) continue;
    if (flat->getattr(fdir)->type != FileType::kDirectory) continue;
    const std::string name = std::string("n").append(std::to_string(rng.next_below(5)));
    const unsigned action = static_cast<unsigned>(rng.next_below(8));

    switch (action) {
      case 0: {
        const auto a = flat->create(fdir, name, 0640, 3, 5);
        const auto b = cas->create(cdir, name, 0640, 3, 5);
        ASSERT_EQ(a.ok(), b.ok()) << name;
        break;
      }
      case 1: {
        const auto a = flat->mkdir(fdir, name);
        const auto b = cas->mkdir(cdir, name);
        ASSERT_EQ(a.ok(), b.ok()) << name;
        if (a.ok()) {
          auto path = parts;
          path.push_back(name);
          dirs.push_back(std::move(path));
        }
        break;
      }
      case 2: {
        const auto a = flat->symlink(fdir, name, "target" + name);
        const auto b = cas->symlink(cdir, name, "target" + name);
        ASSERT_EQ(a.ok(), b.ok()) << name;
        break;
      }
      case 3: {  // write
        const auto fi = flat->lookup(fdir, name);
        const auto ci = cas->lookup(cdir, name);
        ASSERT_EQ(fi.ok(), ci.ok()) << name;
        if (!fi.ok() || flat->getattr(*fi)->type != FileType::kFile) break;
        const std::uint64_t offset = rng.next_below(20);
        const std::string data = rng.next_name(1 + rng.next_below(30));
        const auto a = flat->write(*fi, offset, data);
        const auto b = cas->write(*ci, offset, data);
        ASSERT_EQ(a.ok(), b.ok()) << name;
        if (a.ok()) {
          EXPECT_EQ(a.value(), b.value());
        }
        break;
      }
      case 4: {  // truncate
        const auto fi = flat->lookup(fdir, name);
        const auto ci = cas->lookup(cdir, name);
        ASSERT_EQ(fi.ok(), ci.ok()) << name;
        if (!fi.ok() || flat->getattr(*fi)->type != FileType::kFile) break;
        const std::uint64_t size = rng.next_below(40);
        ASSERT_EQ(flat->truncate(*fi, size).ok(), cas->truncate(*ci, size).ok());
        break;
      }
      case 5: {
        ASSERT_EQ(flat->remove(fdir, name).ok(), cas->remove(cdir, name).ok()) << name;
        break;
      }
      case 6: {
        ASSERT_EQ(flat->rmdir(fdir, name).ok(), cas->rmdir(cdir, name).ok()) << name;
        break;
      }
      case 7: {
        const std::string to = std::string("n").append(std::to_string(rng.next_below(5)));
        ASSERT_EQ(flat->rename(fdir, name, fdir, to).ok(),
                  cas->rename(cdir, name, cdir, to).ok())
            << name << "->" << to;
        break;
      }
      default:
        break;
    }

    if (op % 100 == 99) {
      expect_same_tree(*flat, *cas, flat->root(), cas->root(), "");
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_EQ(flat->used_bytes(), cas->used_bytes());
    }
  }
  expect_same_tree(*flat, *cas, flat->root(), cas->root(), "");
  EXPECT_EQ(flat->used_bytes(), cas->used_bytes());
  // Logical accounting agrees; only the physical footprint may differ.
  EXPECT_EQ(cas->stats().verify_failures, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageParity,
                         ::testing::Values(1, 7, 42, 99, 12345, 777, 31337));

// Shared payloads: the same Bytes objects land in several files of both
// stores (the flat store adopts them, CAS chunks them), files are copied
// into each other through read slices, and outstanding slices are held
// across later mutations. Every step must agree across backends, keep
// accounting logical, and leave every held slice as it was handed out.
TEST_P(StorageParity, SharedPayloadsAgreeAcrossBackends) {
  const auto flat = make_backend(config_of(BackendKind::kFlat));
  const auto cas = make_backend(config_of(BackendKind::kCas, /*chunk_bytes=*/8));
  Rng rng(GetParam());
  constexpr std::size_t kFiles = 6;
  std::vector<InodeId> fi;
  std::vector<InodeId> ci;
  for (std::size_t i = 0; i < kFiles; ++i) {
    fi.push_back(*flat->create(flat->root(), std::string("f").append(std::to_string(i))));
    ci.push_back(*cas->create(cas->root(), std::string("f").append(std::to_string(i))));
  }
  std::vector<Bytes> payloads;
  for (int i = 0; i < 4; ++i) payloads.emplace_back(rng.next_name(1 + rng.next_below(60)));
  std::vector<std::pair<Bytes, std::string>> held;  // slice, its bytes when taken

  for (int op = 0; op < 400; ++op) {
    const std::size_t f = rng.next_below(kFiles);
    switch (rng.next_below(6)) {
      case 0: {  // whole-file write of a shared payload
        const Bytes& payload = payloads[rng.next_below(payloads.size())];
        ASSERT_TRUE(flat->truncate(fi[f], 0).ok() && cas->truncate(ci[f], 0).ok());
        ASSERT_TRUE(flat->write(fi[f], 0, payload).ok() && cas->write(ci[f], 0, payload).ok());
        break;
      }
      case 1: {  // copy another file in through its read slice
        const std::size_t from = rng.next_below(kFiles);
        const Bytes a = *flat->read(fi[from], 0, 1 << 20);
        const Bytes b = *cas->read(ci[from], 0, 1 << 20);
        ASSERT_TRUE(flat->truncate(fi[f], 0).ok() && cas->truncate(ci[f], 0).ok());
        ASSERT_TRUE(flat->write(fi[f], 0, a).ok() && cas->write(ci[f], 0, b).ok());
        break;
      }
      case 2: {  // partial overwrite or append
        const std::uint64_t offset = rng.next_below(80);
        const std::string data = rng.next_name(1 + rng.next_below(20));
        ASSERT_TRUE(flat->write(fi[f], offset, data).ok() && cas->write(ci[f], offset, data).ok());
        break;
      }
      case 3: {  // truncate
        const std::uint64_t size = rng.next_below(90);
        ASSERT_TRUE(flat->truncate(fi[f], size).ok() && cas->truncate(ci[f], size).ok());
        break;
      }
      case 4: {  // take a slice and keep it
        const std::uint64_t offset = rng.next_below(40);
        const auto count = static_cast<std::uint32_t>(rng.next_below(40));
        const Bytes slice = *flat->read(fi[f], offset, count);
        EXPECT_EQ(slice, cas->read(ci[f], offset, count).value());
        held.emplace_back(slice, std::string(slice.view()));
        break;
      }
      default:  // drop a held slice
        if (!held.empty()) {
          held.erase(held.begin() + static_cast<std::ptrdiff_t>(rng.next_below(held.size())));
        }
        break;
    }
    for (std::size_t i = 0; i < kFiles; ++i) {
      ASSERT_EQ(flat->read(fi[i], 0, 1 << 20).value(), cas->read(ci[i], 0, 1 << 20).value())
          << "op " << op << " file " << i;
    }
    ASSERT_EQ(flat->used_bytes(), cas->used_bytes()) << "op " << op;
    ASSERT_EQ(flat->subtree_bytes(flat->root()), flat->used_bytes()) << "op " << op;
    ASSERT_EQ(cas->subtree_bytes(cas->root()), cas->used_bytes()) << "op " << op;
    for (const auto& [slice, bytes] : held) ASSERT_EQ(slice, bytes) << "op " << op;
  }
  EXPECT_EQ(cas->stats().shared_copy_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Interface basics shared by both backends.
// ---------------------------------------------------------------------------

class StorageBackendOps : public ::testing::TestWithParam<BackendKind> {};

TEST_P(StorageBackendOps, CreateCarriesOwnership) {
  const auto store = make_backend(config_of(GetParam()));
  const auto file = store->create(store->root(), "f", 0600, 17, 23);
  ASSERT_TRUE(file.ok());
  const auto attr = store->getattr(file.value());
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->mode, 0600u);
  EXPECT_EQ(attr->uid, 17u);
  EXPECT_EQ(attr->gid, 23u);

  const auto dir = store->mkdir(store->root(), "d", 0700, 4, 9);
  ASSERT_TRUE(dir.ok());
  const auto dattr = store->getattr(dir.value());
  ASSERT_TRUE(dattr.ok());
  EXPECT_EQ(dattr->uid, 4u);
  EXPECT_EQ(dattr->gid, 9u);
}

TEST_P(StorageBackendOps, CapacityIsLogicalBytes) {
  StorageConfig config = config_of(GetParam());
  config.fs.capacity_bytes = 100;
  const auto store = make_backend(config);
  const auto file = store->create(store->root(), "f");
  ASSERT_TRUE(file.ok());
  const std::string payload(60, 'x');
  ASSERT_TRUE(store->write(*file, 0, payload).ok());
  // A second identical file dedups physically on cas, but the capacity
  // model stays logical: the write must hit kNoSpace on both backends.
  const auto twin = store->create(store->root(), "g");
  ASSERT_TRUE(twin.ok());
  const auto result = store->write(*twin, 0, payload);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), FsStatus::kNoSpace);
}

INSTANTIATE_TEST_SUITE_P(Backends, StorageBackendOps,
                         ::testing::Values(BackendKind::kFlat, BackendKind::kCas),
                         [](const auto& info) { return std::string(to_string(info.param)); });

// ---------------------------------------------------------------------------
// CAS-specific behaviour: dedup accounting, block refcounts, verified reads.
// ---------------------------------------------------------------------------

TEST(CasFs, IdenticalContentDedups) {
  const auto store = make_backend(config_of(BackendKind::kCas, 16));
  const std::string payload(64, 'a');  // 4 blocks, all distinct? no: all 'a'
  const auto f1 = store->create(store->root(), "f1");
  const auto f2 = store->create(store->root(), "f2");
  ASSERT_TRUE(store->write(*f1, 0, payload).ok());
  ASSERT_TRUE(store->write(*f2, 0, payload).ok());
  // 64 identical bytes chunked at 16 → a single distinct block, shared by
  // all 8 manifest slots across both files.
  EXPECT_EQ(store->used_bytes(), 128u);
  EXPECT_EQ(store->stats().blocks_live, 1u);
  EXPECT_EQ(store->stats().dedup_bytes, 128u - 16u);
  ASSERT_EQ(store->file_blocks(*f1).size(), 4u);
  EXPECT_EQ(store->file_blocks(*f1)[0].id, store->file_blocks(*f2)[3].id);
}

TEST(CasFs, RefcountsReleaseBlocksWithTheLastFile) {
  const auto store = make_backend(config_of(BackendKind::kCas, 8));
  const std::string payload = "0123456789abcdef";  // 2 distinct blocks
  const auto f1 = store->create(store->root(), "f1");
  const auto f2 = store->create(store->root(), "f2");
  ASSERT_TRUE(store->write(*f1, 0, payload).ok());
  ASSERT_TRUE(store->write(*f2, 0, payload).ok());
  EXPECT_EQ(store->stats().blocks_live, 2u);
  ASSERT_TRUE(store->remove(store->root(), "f1").ok());
  EXPECT_EQ(store->stats().blocks_live, 2u);  // still referenced by f2
  ASSERT_TRUE(store->remove(store->root(), "f2").ok());
  EXPECT_EQ(store->stats().blocks_live, 0u);
  EXPECT_EQ(store->used_bytes(), 0u);
  EXPECT_EQ(store->stats().dedup_bytes, 0u);
}

TEST(CasFs, TruncateAndOverwriteDropUnreferencedBlocks) {
  const auto store = make_backend(config_of(BackendKind::kCas, 4));
  const auto file = store->create(store->root(), "f");
  ASSERT_TRUE(store->write(*file, 0, "AAAABBBBCCCC").ok());
  EXPECT_EQ(store->stats().blocks_live, 3u);
  ASSERT_TRUE(store->truncate(*file, 4).ok());
  EXPECT_EQ(store->stats().blocks_live, 1u);
  ASSERT_TRUE(store->truncate(*file, 0).ok());
  EXPECT_EQ(store->stats().blocks_live, 0u);
  EXPECT_EQ(store->used_bytes(), 0u);
}

TEST(CasFs, VerifiedReadDetectsCorruptBlock) {
  const auto store = make_backend(config_of(BackendKind::kCas, 4));
  const auto file = store->create(store->root(), "f");
  ASSERT_TRUE(store->write(*file, 0, "AAAABBBBCCCC").ok());
  ASSERT_TRUE(store->corrupt_file_block(*file, 1));

  // Reads that miss the corrupt chunk still verify clean.
  EXPECT_EQ(store->read(*file, 0, 4).value(), "AAAA");
  // Reads touching it fail with kCorrupt and bump the failure gauge.
  const auto bad = store->read(*file, 0, 12);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), FsStatus::kCorrupt);
  EXPECT_EQ(store->stats().verify_failures, 1u);
  // The sweep probe counts exactly the one damaged chunk ...
  EXPECT_EQ(store->verify_subtree("/"), 1u);
  // ... and the damaged block no longer counts as held for delta
  // transfers, so a re-push will ship (and heal) it.
  EXPECT_FALSE(store->has_block(store->file_blocks(*file)[1].id));

  // Rewriting the same content heals the block in place.
  ASSERT_TRUE(store->write(*file, 4, "BBBB").ok());
  EXPECT_EQ(store->read(*file, 0, 12).value(), "AAAABBBBCCCC");
  EXPECT_EQ(store->verify_subtree("/"), 0u);
}

TEST(CasFs, UnverifiedReadsServeCorruptBytes) {
  StorageConfig config = config_of(BackendKind::kCas, 4);
  config.verify_reads = false;
  const auto store = make_backend(config);
  const auto file = store->create(store->root(), "f");
  ASSERT_TRUE(store->write(*file, 0, "AAAABBBB").ok());
  ASSERT_TRUE(store->corrupt_file_block(*file, 0));
  const auto data = store->read(*file, 0, 8);
  ASSERT_TRUE(data.ok());  // verification off: garbage flows through
  EXPECT_NE(data.value(), "AAAABBBB");
  EXPECT_EQ(store->stats().verify_failures, 0u);
  // The offline sweep still notices.
  EXPECT_EQ(store->verify_subtree("/"), 1u);
}

TEST(CasFs, PurgeResetsBlockStore) {
  const auto store = make_backend(config_of(BackendKind::kCas, 8));
  const auto file = store->create(store->root(), "f");
  ASSERT_TRUE(store->write(*file, 0, "some content here").ok());
  ASSERT_GT(store->stats().blocks_live, 0u);
  store->purge();
  EXPECT_EQ(store->stats().blocks_live, 0u);
  EXPECT_EQ(store->stats().dedup_bytes, 0u);
  EXPECT_EQ(store->used_bytes(), 0u);
}

TEST(FlatFs, BlockHooksAreInert) {
  const auto store = make_backend(config_of(BackendKind::kFlat));
  const auto file = store->create(store->root(), "f");
  ASSERT_TRUE(store->write(*file, 0, "payload").ok());
  EXPECT_EQ(store->kind(), BackendKind::kFlat);
  EXPECT_TRUE(store->file_blocks(*file).empty());
  EXPECT_FALSE(store->corrupt_file_block(*file, 0));
  EXPECT_EQ(store->verify_subtree("/"), 0u);
  EXPECT_EQ(store->stats().dedup_bytes, 0u);
  EXPECT_EQ(store->stats().blocks_live, 0u);
}

// ---------------------------------------------------------------------------
// Fault plan: corruption healed through the replica machinery.
// ---------------------------------------------------------------------------

std::string find_path(const StorageBackend& store, InodeId dir, const std::string& prefix,
                      const std::string& content) {
  const auto entries = store.readdir(dir);
  if (!entries.ok()) return {};
  for (const auto& entry : entries.value()) {
    const std::string path = prefix + "/" + entry.name;
    if (entry.type == FileType::kDirectory) {
      if (auto found = find_path(store, entry.inode, path, content); !found.empty()) {
        return found;
      }
    } else if (entry.type == FileType::kFile) {
      const auto data = store.read(entry.inode, 0, 1 << 20);
      if (data.ok() && data.value() == content) return path;
    }
  }
  return {};
}

/// Flip one stored block of the copy of `content` on `host`; returns false
/// if no copy lives there.
bool corrupt_copy(KoshaCluster& cluster, net::HostId host, const std::string& content) {
  StorageBackend& store = cluster.server(host).store();
  const std::string path = find_path(store, store.root(), "", content);
  if (path.empty()) return false;
  const auto inode = store.resolve(path);
  if (!inode.ok()) return false;
  return store.corrupt_file_block(inode.value(), 0);
}

ClusterConfig cas_cluster_config(std::uint64_t seed) {
  ClusterConfig config;
  config.nodes = 8;
  config.kosha.replicas = 2;
  config.kosha.distribution_level = 2;
  config.kosha.storage.backend = BackendKind::kCas;
  config.kosha.storage.chunk_bytes = 8;
  config.seed = seed;
  return config;
}

TEST(CasCluster, ScrubRepairsCorruptReplicaBlock) {
  ClusterConfig config = cas_cluster_config(81);
  config.self_heal.enabled = true;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/sb/a").ok());
  const std::string content = "corrupt-scrub-81-padding-to-span-blocks";
  ASSERT_TRUE(mount.write_file("/sb/a/f", content).ok());

  const auto vh = mount.resolve("/sb/a/f");
  ASSERT_TRUE(vh.ok());
  const net::HostId primary = cluster.daemon(0).handle_table().find(*vh)->real.server;
  // Damage one block of a *replica* copy (out-of-band bit rot: no RPC, no
  // replica bookkeeping).
  net::HostId victim = net::kInvalidHost;
  for (const net::HostId host : cluster.live_hosts()) {
    if (host != primary && corrupt_copy(cluster, host, content)) {
      victim = host;
      break;
    }
  }
  ASSERT_NE(victim, net::kInvalidHost);
  const StorageBackend& damaged = cluster.server(victim).store();
  ASSERT_GT(damaged.verify_subtree("/"), 0u);

  // No membership change happens — only the integrity probe of the
  // anti-entropy audit can notice the rot and re-push the anchor.
  cluster.loop().run_until_time(cluster.clock().now() + SimDuration::seconds(3));
  EXPECT_EQ(damaged.verify_subtree("/"), 0u);
  const auto audit = audit_cluster(cluster);
  EXPECT_TRUE(audit.clean()) << audit.to_string();
}

TEST(CasCluster, CorruptPrimaryReadDegradesToReplica) {
  ClusterConfig config = cas_cluster_config(42);
  config.kosha.read_from_replicas = true;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/sb/b").ok());
  const std::string content = "degraded-read-42-padding-to-span-blocks";
  ASSERT_TRUE(mount.write_file("/sb/b/f", content).ok());

  const auto vh = mount.resolve("/sb/b/f");
  ASSERT_TRUE(vh.ok());
  const net::HostId primary = cluster.daemon(0).handle_table().find(*vh)->real.server;
  ASSERT_TRUE(corrupt_copy(cluster, primary, content));

  // Every read must still return the true bytes: whichever round-robin
  // turn hits the primary sees kCorrupt from the hash check and degrades
  // to a replica copy instead of surfacing the error.
  for (int i = 0; i < 8; ++i) {
    const auto data = mount.read_file("/sb/b/f");
    ASSERT_TRUE(data.ok()) << "read " << i;
    EXPECT_EQ(data.value(), content) << "read " << i;
  }
  EXPECT_GT(cluster.server(primary).store().stats().verify_failures, 0u);
}

}  // namespace
}  // namespace kosha::fs
