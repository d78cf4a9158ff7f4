#pragma once

// Storage backend seam — the abstract operation vocabulary of a node's
// /kosha_store partition.
//
// The paper treats each node's contributed partition as an opaque local
// disk (§5); this interface makes that opacity real in the code. Every
// layer above the store (nfs_server, replication, audit, repair, cluster)
// speaks StorageBackend; the concrete representation is chosen per cluster
// via StorageConfig and constructed through make_backend():
//
//   kFlat  LocalFs      — inode table holding each file's content as a
//                         shared copy-on-write buffer (fs/bytes.hpp); the
//                         deterministic baseline.
//   kCas   CasFs        — same namespace, but file content is chunked into
//                         SHA-1-addressed blocks held in a refcounted
//                         store with a per-file Merkle-style manifest:
//                         cross-file/cross-replica dedup plus hash-verified
//                         reads (corruption surfaces as FsStatus::kCorrupt).
//
// The block-level hooks (file_blocks/has_block/verify_subtree) default to
// "no blocks" so flat stores answer them trivially; replication uses them
// to transfer only missing blocks between CAS stores and to probe replica
// integrity during anti-entropy sweeps.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "fs/bytes.hpp"

namespace kosha::fs {

/// errno-like status codes (subset of the NFSv3 error vocabulary).
enum class FsStatus {
  kOk,
  kNoEnt,     // no such file or directory
  kExist,     // entry already exists
  kNotDir,    // component is not a directory
  kIsDir,     // operation needs a non-directory
  kNotEmpty,  // directory not empty
  kNoSpace,   // capacity exceeded
  kInval,     // invalid argument (bad name, bad offset)
  kStale,     // inode no longer exists (stale handle)
  kCorrupt,   // stored block failed hash verification (CAS backends)
};

[[nodiscard]] const char* to_string(FsStatus status);

/// Inode number; 0 is invalid, 1 is the root directory.
using InodeId = std::uint64_t;
inline constexpr InodeId kInvalidInode = 0;

enum class FileType : std::uint8_t { kFile, kDirectory, kSymlink };

/// Subset of NFS fattr3.
struct Attr {
  FileType type = FileType::kFile;
  std::uint32_t mode = 0644;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;
  std::uint64_t size = 0;
  std::uint64_t mtime = 0;  // logical modification counter
  InodeId inode = kInvalidInode;
  std::uint64_t generation = 0;
};

struct DirEntry {
  std::string name;
  InodeId inode = kInvalidInode;
  FileType type = FileType::kFile;
};

struct FsConfig {
  /// Contributed partition size in bytes.
  std::uint64_t capacity_bytes = 35ull << 30;
  /// Fraction of capacity above which new allocations are refused — the
  /// "pre-specified utilization" that triggers Kosha redirection (§3.3).
  double utilization_threshold = 1.0;
};

template <typename T>
using FsResult = Result<T, FsStatus>;

/// Which concrete store representation backs a node's partition.
enum class BackendKind : std::uint8_t {
  kFlat,  // inode table with per-inode content buffers (LocalFs)
  kCas,   // content-addressed chunked blocks with dedup (CasFs)
};

[[nodiscard]] const char* to_string(BackendKind kind);
/// Parse "flat"/"cas"; returns false (leaving *out untouched) otherwise.
[[nodiscard]] bool parse_backend(std::string_view text, BackendKind* out);

/// Per-cluster storage selection (KoshaConfig::storage). chunk_bytes and
/// verify_reads only matter for kCas.
struct StorageConfig {
  BackendKind backend = BackendKind::kFlat;
  /// CAS chunk size: file content is split into blocks of this many bytes
  /// (last block short). Smaller chunks dedup better and cost more hashes.
  std::uint64_t chunk_bytes = 64 * 1024;
  /// Re-hash every block a read touches and fail the read with kCorrupt on
  /// mismatch (integrity by hash, the Merkle-DAG property).
  bool verify_reads = true;
  FsConfig fs;
};

/// SHA-1 content address of one block.
using BlockId = std::array<std::uint8_t, 20>;

/// One entry of a file's manifest, as exposed to replication: the block's
/// address and its length in bytes.
struct BlockRef {
  BlockId id{};
  std::uint32_t bytes = 0;
};

/// Dedup/integrity observability (the first three are zero for flat
/// stores, the last is zero for CAS stores).
struct StorageStats {
  /// Logical bytes minus physical block bytes: what dedup saved.
  std::uint64_t dedup_bytes = 0;
  /// Distinct blocks currently referenced.
  std::uint64_t blocks_live = 0;
  /// Reads that failed hash verification since construction/purge.
  std::uint64_t verify_failures = 0;
  /// Bytes copied because a mutation hit content shared with another file,
  /// a replica or an outstanding read (see fs/bytes.hpp); zero while every
  /// mutation ran in place.
  std::uint64_t shared_copy_bytes = 0;
};

/// Abstract per-node store. Capacity accounting is LOGICAL everywhere —
/// used_bytes() sums file sizes as written, not deduplicated block bytes —
/// so placement, redirection and the audit invariant
/// (subtree_bytes(root) == used_bytes) behave identically on every
/// backend; dedup savings are reported separately via stats().
class StorageBackend {
 public:
  StorageBackend() = default;
  virtual ~StorageBackend() = default;
  StorageBackend(const StorageBackend&) = delete;
  StorageBackend& operator=(const StorageBackend&) = delete;

  [[nodiscard]] virtual BackendKind kind() const = 0;
  [[nodiscard]] virtual InodeId root() const = 0;

  // --- name-space operations (all take a directory inode + name) ---
  [[nodiscard]] virtual FsResult<InodeId> lookup(InodeId dir, std::string_view name) const = 0;
  [[nodiscard]] virtual FsResult<InodeId> create(InodeId dir, std::string_view name,
                                                 std::uint32_t mode = 0644,
                                                 std::uint32_t uid = 0,
                                                 std::uint32_t gid = 0) = 0;
  [[nodiscard]] virtual FsResult<InodeId> mkdir(InodeId dir, std::string_view name,
                                                std::uint32_t mode = 0755,
                                                std::uint32_t uid = 0,
                                                std::uint32_t gid = 0) = 0;
  [[nodiscard]] virtual FsResult<InodeId> symlink(InodeId dir, std::string_view name,
                                                  std::string_view target) = 0;
  [[nodiscard]] virtual FsResult<Unit> remove(InodeId dir, std::string_view name) = 0;
  [[nodiscard]] virtual FsResult<Unit> rmdir(InodeId dir, std::string_view name) = 0;
  [[nodiscard]] virtual FsResult<Unit> rename(InodeId from_dir, std::string_view from_name,
                                              InodeId to_dir, std::string_view to_name) = 0;
  [[nodiscard]] virtual FsResult<std::vector<DirEntry>> readdir(InodeId dir) const = 0;

  // --- inode operations ---
  [[nodiscard]] virtual FsResult<Attr> getattr(InodeId inode) const = 0;
  [[nodiscard]] virtual FsResult<Unit> set_mode(InodeId inode, std::uint32_t mode) = 0;
  [[nodiscard]] virtual FsResult<Unit> truncate(InodeId inode, std::uint64_t size) = 0;
  /// Store `data` at `offset`. A flat store shares `data`'s buffer when
  /// the write replaces the file's whole content (see fs/bytes.hpp).
  [[nodiscard]] virtual FsResult<std::uint32_t> write(InodeId inode, std::uint64_t offset,
                                                      const Bytes& data) = 0;
  /// Up to `count` bytes from `offset`; a flat store returns a slice that
  /// shares the file's buffer.
  [[nodiscard]] virtual FsResult<Bytes> read(InodeId inode, std::uint64_t offset,
                                             std::uint32_t count) const = 0;
  [[nodiscard]] virtual FsResult<std::string> readlink(InodeId inode) const = 0;

  // --- path conveniences (absolute paths within this store) ---
  [[nodiscard]] virtual FsResult<InodeId> resolve(std::string_view path) const = 0;
  /// mkdir -p; returns the deepest directory's inode.
  [[nodiscard]] virtual FsResult<InodeId> mkdir_p(std::string_view path) = 0;
  /// Remove an entry and, for directories, its whole subtree.
  [[nodiscard]] virtual FsResult<Unit> remove_recursive(InodeId dir, std::string_view name) = 0;

  // --- capacity (logical bytes; see class comment) ---
  [[nodiscard]] virtual std::uint64_t capacity_bytes() const = 0;
  [[nodiscard]] virtual std::uint64_t used_bytes() const = 0;
  [[nodiscard]] virtual double utilization() const = 0;
  /// True when storing `extra` more bytes would cross the threshold.
  [[nodiscard]] virtual bool would_exceed(std::uint64_t extra) const = 0;

  /// Total bytes of all files under an inode (the inode's own data for
  /// files, recursive for directories).
  [[nodiscard]] virtual std::uint64_t subtree_bytes(InodeId inode) const = 0;
  /// Number of regular files under an inode (recursive).
  [[nodiscard]] virtual std::uint64_t subtree_file_count(InodeId inode) const = 0;

  /// Drop everything (paper §4.3: a revived node purges all Kosha data).
  virtual void purge() = 0;

  [[nodiscard]] virtual std::size_t live_inode_count() const = 0;

  // --- block-level hooks (inert on flat stores) ---
  /// Dedup/integrity gauges; all zero unless the backend dedups.
  [[nodiscard]] virtual StorageStats stats() const { return {}; }
  /// The file's manifest, or empty when the backend has no block notion
  /// (also empty for an empty or non-file inode).
  [[nodiscard]] virtual std::vector<BlockRef> file_blocks(InodeId inode) const {
    (void)inode;
    return {};
  }
  /// Whether this store already holds the block (so a replica transfer can
  /// skip its bytes).
  [[nodiscard]] virtual bool has_block(const BlockId& id) const {
    (void)id;
    return false;
  }
  /// Re-hash every block of every file under `path` and return how many
  /// chunks fail verification (0 on flat stores and on resolve failure).
  /// Anti-entropy treats a non-zero answer like a missing replica.
  [[nodiscard]] virtual std::uint64_t verify_subtree(std::string_view path) const {
    (void)path;
    return 0;
  }
  /// Test hook: flip a byte in the stored block holding chunk
  /// `chunk_index` of `inode`. Returns false when there is no such block
  /// (flat store, bad inode, out-of-range chunk).
  virtual bool corrupt_file_block(InodeId inode, std::size_t chunk_index) {
    (void)inode;
    (void)chunk_index;
    return false;
  }
};

/// Construct the configured backend. The FsConfig inside `config` sizes
/// the partition exactly as the old LocalFs(FsConfig) constructor did.
[[nodiscard]] std::unique_ptr<StorageBackend> make_backend(const StorageConfig& config);

}  // namespace kosha::fs
