#pragma once

// Per-node local file system — the node's /kosha_store partition.
//
// The kFlat StorageBackend: an in-memory, inode-based hierarchical file
// system with the operation vocabulary NFS needs (lookup/create/read/
// write/remove/rename/readdir/symlink) plus byte-capacity accounting,
// file content held in each inode as a shared, copy-on-write buffer
// (fs/bytes.hpp). Each Kosha node dedicates one store instance as its
// contributed storage (paper §5: "A local disk partition is created and
// used for space contribution"); capacity and the utilization threshold
// drive the redirection mechanism of §3.3.
//
// The internals are protected rather than private: CasFs (cas_fs.hpp)
// reuses the namespace/inode machinery wholesale and overrides only the
// file-content operations, so both backends share one set of name-space,
// mtime and generation semantics — which is what makes backend parity
// testable op-for-op.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.hpp"
#include "fs/storage_backend.hpp"

namespace kosha::fs {

class LocalFs : public StorageBackend {
 public:
  explicit LocalFs(FsConfig config = {});

  [[nodiscard]] BackendKind kind() const override { return BackendKind::kFlat; }
  [[nodiscard]] InodeId root() const override { return kRootInode; }

  // --- name-space operations (all take a directory inode + name) ---
  [[nodiscard]] FsResult<InodeId> lookup(InodeId dir, std::string_view name) const override;
  [[nodiscard]] FsResult<InodeId> create(InodeId dir, std::string_view name,
                                         std::uint32_t mode = 0644, std::uint32_t uid = 0,
                                         std::uint32_t gid = 0) override;
  [[nodiscard]] FsResult<InodeId> mkdir(InodeId dir, std::string_view name,
                                        std::uint32_t mode = 0755, std::uint32_t uid = 0,
                                        std::uint32_t gid = 0) override;
  [[nodiscard]] FsResult<InodeId> symlink(InodeId dir, std::string_view name,
                                          std::string_view target) override;
  [[nodiscard]] FsResult<Unit> remove(InodeId dir, std::string_view name) override;
  [[nodiscard]] FsResult<Unit> rmdir(InodeId dir, std::string_view name) override;
  [[nodiscard]] FsResult<Unit> rename(InodeId from_dir, std::string_view from_name,
                                      InodeId to_dir, std::string_view to_name) override;
  [[nodiscard]] FsResult<std::vector<DirEntry>> readdir(InodeId dir) const override;

  // --- inode operations ---
  [[nodiscard]] FsResult<Attr> getattr(InodeId inode) const override;
  [[nodiscard]] FsResult<Unit> set_mode(InodeId inode, std::uint32_t mode) override;
  [[nodiscard]] FsResult<Unit> truncate(InodeId inode, std::uint64_t size) override;
  [[nodiscard]] FsResult<std::uint32_t> write(InodeId inode, std::uint64_t offset,
                                              const Bytes& data) override;
  [[nodiscard]] FsResult<Bytes> read(InodeId inode, std::uint64_t offset,
                                     std::uint32_t count) const override;
  [[nodiscard]] FsResult<std::string> readlink(InodeId inode) const override;

  // --- path conveniences (absolute paths within this store) ---
  [[nodiscard]] FsResult<InodeId> resolve(std::string_view path) const override;
  /// mkdir -p; returns the deepest directory's inode.
  [[nodiscard]] FsResult<InodeId> mkdir_p(std::string_view path) override;
  /// Remove an entry and, for directories, its whole subtree.
  [[nodiscard]] FsResult<Unit> remove_recursive(InodeId dir, std::string_view name) override;

  // --- capacity ---
  [[nodiscard]] std::uint64_t capacity_bytes() const override { return config_.capacity_bytes; }
  [[nodiscard]] std::uint64_t used_bytes() const override { return used_bytes_; }
  [[nodiscard]] double utilization() const override {
    return config_.capacity_bytes == 0
               ? 1.0
               : static_cast<double>(used_bytes_) / static_cast<double>(config_.capacity_bytes);
  }
  /// True when storing `extra` more bytes would cross the threshold.
  [[nodiscard]] bool would_exceed(std::uint64_t extra) const override;

  /// Total bytes of all files under an inode (the inode's own data for
  /// files, recursive for directories).
  [[nodiscard]] std::uint64_t subtree_bytes(InodeId inode) const override;
  /// Number of regular files under an inode (recursive).
  [[nodiscard]] std::uint64_t subtree_file_count(InodeId inode) const override;

  /// Drop everything (paper §4.3: a revived node purges all Kosha data).
  void purge() override;

  [[nodiscard]] std::size_t live_inode_count() const override { return live_inodes_; }

  [[nodiscard]] StorageStats stats() const override {
    StorageStats stats;
    stats.shared_copy_bytes = shared_copy_bytes_;
    return stats;
  }

 protected:
  static constexpr InodeId kRootInode = 1;

  /// Directory children; the transparent comparator looks names up as
  /// string_views without building a string.
  using Entries = std::map<std::string, InodeId, std::less<>>;

  /// One slot of the inode table. It holds the one payload its type uses:
  /// a directory's entries, or a file's content or a symlink's target. A
  /// free slot keeps only its generation (and an empty payload), so a
  /// slot costs 88 bytes whatever it held.
  struct Inode {
    bool allocated = false;
    FileType type = FileType::kFile;
    std::uint32_t mode = 0;
    std::uint32_t uid = 0;
    std::uint32_t gid = 0;
    std::uint64_t mtime = 0;
    std::uint64_t generation = 0;
    std::variant<Bytes, Entries> payload;

    [[nodiscard]] Bytes& data() { return std::get<Bytes>(payload); }
    [[nodiscard]] const Bytes& data() const { return std::get<Bytes>(payload); }
    [[nodiscard]] Entries& entries() { return std::get<Entries>(payload); }
    [[nodiscard]] const Entries& entries() const { return std::get<Entries>(payload); }
  };

  [[nodiscard]] const Inode* get(InodeId id) const;
  [[nodiscard]] Inode* get(InodeId id);
  [[nodiscard]] InodeId allocate(FileType type, std::uint32_t mode, std::uint32_t uid,
                                 std::uint32_t gid);
  /// Free one inode (never the root). CasFs hooks this to drop the file's
  /// block manifest whenever the namespace lets go of an inode — remove,
  /// rename-over, recursive removal all funnel through here.
  virtual void release(InodeId id);
  /// Logical byte size of a regular file's content. The flat store keeps
  /// content in the inode; CasFs answers from the manifest. getattr and
  /// subtree_bytes report through this hook so both agree per backend.
  [[nodiscard]] virtual std::uint64_t file_content_bytes(InodeId id) const;
  [[nodiscard]] static bool valid_name(std::string_view name);
  /// Bump and return the logical mtime counter (shared by CasFs so the
  /// attr timeline is identical across backends).
  std::uint64_t next_mtime() { return ++mtime_counter_; }
  void add_used_bytes(std::uint64_t bytes) { used_bytes_ += bytes; }
  void sub_used_bytes(std::uint64_t bytes) { used_bytes_ -= bytes; }

 private:
  FsConfig config_;
  std::vector<Inode> inodes_;  // index = InodeId - 1
  std::vector<InodeId> free_list_;
  std::uint64_t used_bytes_ = 0;
  std::uint64_t shared_copy_bytes_ = 0;
  std::uint64_t mtime_counter_ = 0;
  std::size_t live_inodes_ = 0;
};

}  // namespace kosha::fs
