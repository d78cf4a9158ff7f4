#pragma once

// Content-addressed storage backend (kCas).
//
// Same namespace, inode and attribute semantics as the flat store — CasFs
// inherits LocalFs's directory machinery wholesale — but regular-file
// content lives in a refcounted block store keyed by SHA-1 of the block's
// bytes, with a Merkle-style manifest per file (ordered list of block
// addresses + logical size). Identical content, wherever it appears —
// two users' copies of the same file, or a replica pushed from another
// node's primary — resolves to the same blocks, so the physical footprint
// dedups across files and replicas (the IPFS/Merkle-DAG idea applied to
// the paper's per-node /kosha_store partition).
//
// Integrity by hash: when verify_reads is on, every block a read touches
// is re-hashed against its address; a mismatch fails the read with
// FsStatus::kCorrupt, which the failover ladder treats as a degraded read
// (serve from a replica) and the anti-entropy sweep treats as a hole
// (re-push from the primary). verify_subtree() is the sweep's probe.
//
// Accounting stays LOGICAL (see storage_backend.hpp): used_bytes() moves
// exactly as the flat store's would, and the dedup saving is reported
// separately as stats().dedup_bytes = logical - physical.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "fs/local_fs.hpp"
#include "fs/storage_backend.hpp"

namespace kosha::fs {

class CasFs : public LocalFs {
 public:
  explicit CasFs(const StorageConfig& config);

  [[nodiscard]] BackendKind kind() const override { return BackendKind::kCas; }

  [[nodiscard]] FsResult<Unit> truncate(InodeId inode, std::uint64_t size) override;
  [[nodiscard]] FsResult<std::uint32_t> write(InodeId inode, std::uint64_t offset,
                                              const Bytes& data) override;
  [[nodiscard]] FsResult<Bytes> read(InodeId inode, std::uint64_t offset,
                                     std::uint32_t count) const override;

  void purge() override;

  [[nodiscard]] StorageStats stats() const override;
  [[nodiscard]] std::vector<BlockRef> file_blocks(InodeId inode) const override;
  [[nodiscard]] bool has_block(const BlockId& id) const override;
  [[nodiscard]] std::uint64_t verify_subtree(std::string_view path) const override;
  bool corrupt_file_block(InodeId inode, std::size_t chunk_index) override;

 protected:
  /// The namespace is letting go of an inode (remove/rename-over/
  /// recursive removal): drop its manifest before the base frees it.
  void release(InodeId id) override;
  /// Files answer getattr/subtree_bytes from the manifest, not the
  /// (always empty) inode data.
  [[nodiscard]] std::uint64_t file_content_bytes(InodeId id) const override;

 private:
  struct Block {
    std::string bytes;
    std::uint64_t refs = 0;
  };
  struct Manifest {
    std::uint64_t size = 0;          // logical file size
    std::vector<BlockId> blocks;     // chunk i covers [i*chunk, ...)
  };

  /// Reassemble a file's full logical content (no verification — this is
  /// the internal read-modify-write path; verified reads go through
  /// read()).
  [[nodiscard]] std::string materialize(const Manifest& manifest) const;
  /// Replace a file's content: chunk, store blocks (new refs first, so
  /// blocks shared with the old manifest never hit refcount zero), drop
  /// the old manifest, and move used_bytes by the size delta.
  void set_content(InodeId id, const std::string& content);
  /// Drop every block reference of the file's manifest (if any) and the
  /// logical bytes it accounted for.
  void drop_manifest(InodeId id);
  void ref_block(const BlockId& id, std::string_view bytes);
  void unref_block(const BlockId& id);
  /// Corrupt-chunk count for one file inode.
  [[nodiscard]] std::uint64_t verify_inode(InodeId id) const;
  /// Recursive corrupt-chunk count under an inode.
  [[nodiscard]] std::uint64_t verify_walk(InodeId id) const;

  std::uint64_t chunk_bytes_;
  bool verify_reads_;
  std::map<BlockId, Block> blocks_;
  std::map<InodeId, Manifest> manifests_;
  std::uint64_t physical_bytes_ = 0;
  /// Mutable: read() is logically const but counts verification failures.
  mutable std::uint64_t verify_failures_ = 0;
};

}  // namespace kosha::fs
