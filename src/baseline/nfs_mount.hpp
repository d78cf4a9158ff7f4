#pragma once

// Unmodified-NFS baseline: one client host cross-mounting one central NFS
// server over the same simulated network and cost model Kosha uses. This
// is the comparison point for Tables 1 and 2 (paper §6.1: "The NFS
// configuration consists of two nodes with one running as a client, and
// the other running as a server").

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fs/bytes.hpp"
#include "nfs/nfs_client.hpp"

namespace kosha::baseline {

/// Path-level wrapper over a plain NFS client/server pair. Mirrors the
/// KoshaMount interface so the same benchmark driver runs both. Handles
/// are cached per path, as the kernel's NFS client would.
class NfsMount {
 public:
  NfsMount(net::SimNetwork* network, const nfs::ServerDirectory* directory,
           net::HostId client, net::HostId server);

  [[nodiscard]] nfs::NfsResult<nfs::FileHandle> resolve(std::string_view path);
  [[nodiscard]] nfs::NfsResult<nfs::FileHandle> mkdir_p(std::string_view path);
  [[nodiscard]] nfs::NfsResult<Unit> write_file(std::string_view path,
                                                std::string_view content);
  [[nodiscard]] nfs::NfsResult<fs::Bytes> read_file(std::string_view path);
  [[nodiscard]] nfs::NfsResult<fs::Attr> stat(std::string_view path);
  [[nodiscard]] bool exists(std::string_view path);
  [[nodiscard]] nfs::NfsResult<std::vector<fs::DirEntry>> list(std::string_view path);
  [[nodiscard]] nfs::NfsResult<Unit> remove(std::string_view path);
  [[nodiscard]] nfs::NfsResult<Unit> rmdir(std::string_view path);
  [[nodiscard]] nfs::NfsResult<Unit> remove_all(std::string_view path);
  [[nodiscard]] nfs::NfsResult<Unit> rename(std::string_view from, std::string_view to);

 private:
  [[nodiscard]] nfs::NfsResult<nfs::FileHandle> lookup_cached(const std::string& path);
  void invalidate(const std::string& path);

  nfs::NfsClient client_;
  net::HostId server_;
  std::unordered_map<std::string, nfs::FileHandle> handle_cache_;
};

}  // namespace kosha::baseline
