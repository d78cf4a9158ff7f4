#pragma once

// KoshaMount — path-level convenience wrapper over a koshad daemon.
//
// Applications see /kosha as an ordinary file system; this wrapper speaks
// absolute virtual paths and drives the daemon's handle-based NFS
// interface underneath (the way the kernel's NFS client would).

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fs/bytes.hpp"
#include "kosha/koshad.hpp"

namespace kosha {

class Histogram;

class KoshaMount {
 public:
  explicit KoshaMount(Koshad* daemon) : daemon_(daemon) {}

  /// Resolve a path to its virtual handle (lookup walk from the root).
  /// Handles are cached per path, as the kernel's NFS client would cache
  /// its dentries; virtual handles stay valid across failovers, and stale
  /// ones self-heal through the daemon's re-resolution.
  [[nodiscard]] nfs::NfsResult<VirtualHandle> resolve(std::string_view path);

  /// Create all missing directories along `path`.
  [[nodiscard]] nfs::NfsResult<VirtualHandle> mkdir_p(std::string_view path);

  /// Write a whole file (created if missing, truncated otherwise).
  [[nodiscard]] nfs::NfsResult<Unit> write_file(std::string_view path,
                                                std::string_view content);

  /// Read a whole file. On the flat backend, when every READ is served
  /// by one replica, the result shares that replica's buffer; otherwise
  /// the slices are copied together. Either way it is a snapshot: a later
  /// write copies rather than mutating a shared buffer.
  [[nodiscard]] nfs::NfsResult<fs::Bytes> read_file(std::string_view path);

  [[nodiscard]] nfs::NfsResult<fs::Attr> stat(std::string_view path);
  [[nodiscard]] bool exists(std::string_view path);

  [[nodiscard]] nfs::NfsResult<std::vector<fs::DirEntry>> list(std::string_view path);

  [[nodiscard]] nfs::NfsResult<Unit> remove(std::string_view path);  // files only
  [[nodiscard]] nfs::NfsResult<Unit> rmdir(std::string_view path);   // empty dirs
  [[nodiscard]] nfs::NfsResult<Unit> remove_all(std::string_view path);
  [[nodiscard]] nfs::NfsResult<Unit> rename(std::string_view from, std::string_view to);

  [[nodiscard]] Koshad& daemon() { return *daemon_; }

 private:
  /// Resolve the parent directory of `path`; returns (parent vh, leaf name).
  [[nodiscard]] nfs::NfsResult<std::pair<VirtualHandle, std::string>> parent_of(
      std::string_view path);
  void invalidate(std::string_view path);

  // The instrumented operations; each indexes Op::kNames in mount.cpp and
  // a slot of op_latency_.
  enum class OpKind : std::size_t {
    kResolve, kMkdirP, kWriteFile, kReadFile, kStat,
    kList, kRemove, kRmdir, kRemoveAll, kRename, kCount,
  };
  /// Per-operation span and latency histogram around a public wrapper.
  struct Op;

  // Uninstrumented bodies; the public wrappers add the per-operation span
  // and latency histogram (see Op in mount.cpp).
  [[nodiscard]] nfs::NfsResult<VirtualHandle> mkdir_p_impl(std::string_view path);
  [[nodiscard]] nfs::NfsResult<Unit> write_file_impl(std::string_view path,
                                                     std::string_view content);
  [[nodiscard]] nfs::NfsResult<fs::Bytes> read_file_impl(std::string_view path);
  [[nodiscard]] nfs::NfsResult<fs::Attr> stat_impl(std::string_view path);

  Koshad* daemon_;
  std::unordered_map<std::string, VirtualHandle> handle_cache_;
  /// `<op>.latency_us` per OpKind, looked up in the registry on the op's
  /// first run with metrics on: later runs skip the name and the search,
  /// and an op this mount never ran never registers a histogram.
  std::array<Histogram*, static_cast<std::size_t>(OpKind::kCount)> op_latency_{};
};

}  // namespace kosha
