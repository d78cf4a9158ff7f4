#pragma once

// Virtual file handle table (paper §4.1.2).
//
// NFS handles are opaque, so koshad hands the kernel *virtual* handles and
// keeps the mapping virtual handle -> (real handle, full virtual path).
// The full path is stored with every entry — it is what makes transparent
// failover possible: when the primary dies, the entry is dropped and the
// path is re-resolved to a replica. The table is deliberately not
// persistent: if koshad crashes the whole machine crashed (§4.4).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "nfs/nfs_types.hpp"

namespace kosha {

/// Opaque identifier handed to clients of koshad.
struct VirtualHandle {
  std::uint64_t value = 0;

  [[nodiscard]] bool valid() const { return value != 0; }
  friend bool operator==(const VirtualHandle&, const VirtualHandle&) = default;
};

/// What a virtual handle stands for.
struct VhEntry {
  std::string path;         // full virtual path (e.g. "/alice/src/main.c")
  std::string stored_path;  // path within the storage node's /kosha_store
  nfs::FileHandle real;     // current real handle on the storage node
  fs::FileType type = fs::FileType::kFile;
};

/// Handles are issued densely (1, 2, 3, ...) and never reused, so the
/// table is a vector indexed by handle; a dropped handle leaves an empty
/// 8-byte slot. Only bind and find touch slots by handle; drop_subtree
/// sweeps the path index, so its cost follows the live entries, not the
/// handles ever issued. Each entry is boxed: a pointer from find() stays valid across
/// bind() and rebind() of any handle, and only a drop or drop_subtree
/// that removes that entry ends it. A caller that may drop (directly, or
/// through a failover that re-resolves) copies what it needs first.
class VirtualHandleTable {
 public:
  /// Insert or refresh the mapping for `path`; returns its virtual handle
  /// (stable across refreshes of the same path).
  VirtualHandle bind(const std::string& path, const std::string& stored_path,
                     const nfs::FileHandle& real, fs::FileType type);

  [[nodiscard]] const VhEntry* find(VirtualHandle vh) const;
  [[nodiscard]] std::optional<VirtualHandle> find_by_path(std::string_view path) const;

  /// Drop one handle (e.g. after an RPC error, before re-resolution).
  void drop(VirtualHandle vh);
  /// Drop every handle under `path` (inclusive) — used after removes,
  /// renames and failovers that invalidate a subtree.
  void drop_subtree(const std::string& path);

  /// Rebind an existing handle to a new real handle (transparent failover:
  /// the client's virtual handle survives).
  bool rebind(VirtualHandle vh, const std::string& stored_path, const nfs::FileHandle& real);

  [[nodiscard]] std::size_t size() const { return by_path_.size(); }

 private:
  /// Slots reserved by the first bind: doubling from one would reallocate
  /// more often than the hash maps this table replaced.
  static constexpr std::size_t kFirstSlots = 64;

  [[nodiscard]] VhEntry* slot(VirtualHandle vh) const;

  /// entries_[h - 1] holds handle h's entry, null once dropped.
  std::vector<std::unique_ptr<VhEntry>> entries_;
  /// Live handles by path. Each key views its own entry's path, which is
  /// set once and lives in the box, so the key never outlives it: drop
  /// erases the key before it frees the entry.
  std::unordered_map<std::string_view, std::uint64_t> by_path_;
};

}  // namespace kosha
