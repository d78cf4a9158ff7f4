#pragma once

// koshad — the Kosha loopback daemon (paper §4, §5).
//
// One koshad runs per participating host. It exposes the NFS RPC
// vocabulary against the virtual /kosha namespace: it locates the storage
// node for each path (directory-name hashing through Pastry, following
// special links for distributed/redirected directories), forwards the RPC
// to that node's NFS server, mirrors mutations to the primary's replicas,
// and hands clients *virtual* handles so failures can be masked by
// re-resolving the stored path on a promoted replica.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "kosha/replication.hpp"
#include "kosha/runtime.hpp"
#include "kosha/virtual_handles.hpp"
#include "nfs/nfs_client.hpp"

namespace kosha {

class Histogram;

/// Reply carrying a virtual handle plus attributes (LOOKUP/CREATE/MKDIR).
struct VhReply {
  VirtualHandle handle;
  fs::Attr attr;
};

/// Daemon-level counters (drive the §6.1.2 overhead-model comparison and
/// the chaos-soak determinism guard).
struct KoshadStats {
  std::uint64_t rpcs_forwarded = 0;  // NFS RPCs sent to storage nodes
  std::uint64_t dht_lookups = 0;     // overlay routes performed
  std::uint64_t dht_hops = 0;        // total overlay hops across routes
  std::uint64_t remote_rpcs = 0;     // RPCs whose storage node != this host
  std::uint64_t failovers = 0;       // re-resolve rounds after retryable errors
  std::uint64_t failed_failovers = 0;  // ladders exhausted without recovery
  std::uint64_t redirects = 0;       // capacity redirections performed
  std::uint64_t replica_reads = 0;   // reads served by a replica node
  std::uint64_t degraded_reads = 0;  // reads a replica served because the
                                     // primary was unreachable
  std::uint64_t mirror_rpcs = 0;     // replica mirror messages this daemon's
                                     // mutations fanned out
  std::uint64_t ladder_deadline_aborts = 0;  // failover rounds skipped because
                                             // the op's deadline had passed

  friend bool operator==(const KoshadStats&, const KoshadStats&) = default;
};

class Koshad {
 public:
  /// `boot` identifies this daemon incarnation (see RpcContext::boot): a
  /// host revived after a crash must get a value it never used before, or
  /// its restarted xid counter could match servers' duplicate-request
  /// cache entries from its previous life.
  Koshad(Runtime* runtime, net::HostId host, std::uint64_t boot = 0);

  [[nodiscard]] net::HostId host() const { return host_; }

  // --- the virtual NFS interface ------------------------------------------
  [[nodiscard]] nfs::NfsResult<VirtualHandle> root();
  [[nodiscard]] nfs::NfsResult<VhReply> lookup(VirtualHandle dir, std::string_view name);
  [[nodiscard]] nfs::NfsResult<fs::Attr> getattr(VirtualHandle obj);
  [[nodiscard]] nfs::NfsResult<fs::Attr> set_mode(VirtualHandle obj, std::uint32_t mode);
  [[nodiscard]] nfs::NfsResult<fs::Attr> truncate(VirtualHandle obj, std::uint64_t size);
  [[nodiscard]] nfs::NfsResult<nfs::ReadReply> read(VirtualHandle file, std::uint64_t offset,
                                                    std::uint32_t count);
  /// `data` reaches the primary and every mirror by reference count
  /// (fs/bytes.hpp).
  [[nodiscard]] nfs::NfsResult<std::uint32_t> write(VirtualHandle file, std::uint64_t offset,
                                                    const fs::Bytes& data);
  [[nodiscard]] nfs::NfsResult<VhReply> create(VirtualHandle dir, std::string_view name,
                                               std::uint32_t mode = 0644,
                                               std::uint32_t uid = 0,
                                               std::uint32_t gid = 0);
  [[nodiscard]] nfs::NfsResult<VhReply> mkdir(VirtualHandle dir, std::string_view name,
                                              std::uint32_t mode = 0755,
                                              std::uint32_t uid = 0,
                                              std::uint32_t gid = 0);
  [[nodiscard]] nfs::NfsResult<Unit> remove(VirtualHandle dir, std::string_view name);
  [[nodiscard]] nfs::NfsResult<Unit> rmdir(VirtualHandle dir, std::string_view name);
  [[nodiscard]] nfs::NfsResult<Unit> rename(VirtualHandle from_dir, std::string_view from_name,
                                            VirtualHandle to_dir, std::string_view to_name);
  [[nodiscard]] nfs::NfsResult<nfs::ReaddirReply> readdir(VirtualHandle dir);

  /// Recursive delete through the virtual interface (convenience; also the
  /// delete half of distributed-directory renames).
  [[nodiscard]] nfs::NfsResult<Unit> remove_tree(VirtualHandle dir, std::string_view name);
  /// Recursive copy through the virtual interface (paper §4.1.4: renaming
  /// distributed subdirectories is "a copy ... followed by a delete").
  [[nodiscard]] nfs::NfsResult<Unit> copy_tree(VirtualHandle src_dir, std::string_view src_name,
                                               VirtualHandle dst_dir,
                                               std::string_view dst_name);

  [[nodiscard]] const KoshadStats& stats() const { return stats_; }
  [[nodiscard]] const VirtualHandleTable& handle_table() const { return vht_; }
  [[nodiscard]] Runtime& runtime() const { return *runtime_; }
  /// This daemon's NFS client — read-only, for aggregating its
  /// overload-control counters into the cluster's overload.* gauges.
  [[nodiscard]] const nfs::NfsClient& nfs_client() const { return client_; }

 private:
  /// A virtual path resolved to its storage node.
  struct Resolved {
    net::HostId host = net::kInvalidHost;
    nfs::FileHandle handle;
    std::string stored_path;
    fs::FileType type = fs::FileType::kDirectory;
    fs::Attr attr{};
  };

  /// Run `fn(resolved)` against the cached handle; on a retryable error
  /// (unreachable/timed-out/stale) re-resolve the path from scratch,
  /// rebind the virtual handle, and retry — the paper's transparent fault
  /// handling (§4.4) widened into a bounded ladder. `fn` may be invoked
  /// several times: closures wrapping a non-idempotent RPC must remember a
  /// kTimedOut from that RPC (it may have executed with its reply lost)
  /// and adopt the already-applied result on a later invocation instead of
  /// surfacing a spurious kExist/kNoEnt. Rounds run back-to-back on this
  /// thread, so nothing else can touch the target path between them.
  ///
  /// Thin type-erasure shim (defined at the bottom of this header) over
  /// failover_ladder, which owns the retry policy.
  template <typename Fn>
  auto with_handle(VirtualHandle vh, Fn&& fn);

  /// The type-erased core of with_handle (koshad_failover.cpp): drives
  /// `attempt` through the bounded re-resolve ladder and returns the final
  /// status. `attempt` reports kOk or the operation's error status; any
  /// non-status payload stays on the with_handle side.
  [[nodiscard]] nfs::NfsStat failover_ladder(
      VirtualHandle vh, const std::function<nfs::NfsStat(const Resolved&)>& attempt);

  /// Resolve a virtual path; `fresh` bypasses (and repopulates) the cache —
  /// used on the failover path after an RPC error.
  [[nodiscard]] nfs::NfsResult<Resolved> resolve_path(const std::string& path, bool fresh);
  /// Resolve one child entry of an already-resolved parent directory.
  [[nodiscard]] nfs::NfsResult<Resolved> resolve_entry(const Resolved& parent,
                                                       const std::string& path,
                                                       std::string_view name, bool fresh);

  /// Route a key through the overlay, updating daemon statistics.
  [[nodiscard]] pastry::RouteResult route(pastry::Key key);
  /// Storage host of an overlay node.
  [[nodiscard]] net::HostId host_of(pastry::NodeId node) const;

  /// Walk `stored_path` component by component on `host` (lookup RPCs).
  [[nodiscard]] nfs::NfsResult<nfs::HandleReply> remote_lookup_path(
      net::HostId host, const std::string& stored_path);
  /// mkdir -p over RPC on `host`; returns the deepest directory's handle.
  /// `leaf_mode`/`leaf_uid`/`leaf_gid` apply to the final component only.
  [[nodiscard]] nfs::NfsResult<nfs::HandleReply> remote_mkdir_p(net::HostId host,
                                                                const std::string& stored_path,
                                                                std::uint32_t leaf_mode = 0755,
                                                                std::uint32_t leaf_uid = 0,
                                                                std::uint32_t leaf_gid = 0);

  /// Remove now-empty scaffolding directories bottom-up starting at
  /// `cursor`, stopping at a non-empty directory or /.a itself (paper
  /// §4.1.5). `rm` (may be null) mirrors each removal to the replicas.
  void prune_scaffolding(net::HostId host, std::string cursor, ReplicaManager* rm);

  /// Pick the storage node for a new distributed directory, applying
  /// capacity redirection (paper §3.3). Returns the chosen node and the
  /// effective (possibly salted) name.
  [[nodiscard]] nfs::NfsResult<std::pair<pastry::NodeId, std::string>> place_directory(
      std::string_view name);

  /// Optional read path via a replica copy (the §4.2 future-work
  /// optimization). Returns nullopt when the primary should serve the read
  /// (its round-robin turn, no replicas, or the replica copy unreadable).
  [[nodiscard]] std::optional<nfs::NfsResult<nfs::ReadReply>> try_replica_read(
      const Resolved& resolved, std::uint64_t offset, std::uint32_t count);

  /// Degraded read: the primary copy is unreachable (retryable error) but
  /// still owns the key; serve the read from any reachable replica copy.
  /// Returns nullopt when no replica could serve it.
  [[nodiscard]] std::optional<nfs::NfsResult<nfs::ReadReply>> degraded_replica_read(
      const Resolved& resolved, std::uint64_t offset, std::uint32_t count);

  [[nodiscard]] ReplicaManager* manager_of(net::HostId host) const {
    return runtime_->replica_manager(host);
  }

  /// Record an RPC destined for `host` in the remote/local statistics.
  void note_forward(net::HostId host);
  /// Charge the fixed loopback interposition cost of one client RPC.
  void charge_interposition();

  [[nodiscard]] static bool is_error_retryable(nfs::NfsStat status) {
    // kCorrupt rides the same ladder: a hash-verify failure on the primary
    // copy is a degraded read served from a replica, exactly like an
    // unreachable primary (the anti-entropy sweep repairs it later).
    // kOverloaded is retryable the same way: the shed attempt certainly
    // did not execute, but an *earlier* attempt under the same xid may
    // have — so the ladder keeps its maybe-executed (adoption) rules.
    return status == nfs::NfsStat::kUnreachable || status == nfs::NfsStat::kTimedOut ||
           status == nfs::NfsStat::kStale || status == nfs::NfsStat::kCorrupt ||
           status == nfs::NfsStat::kOverloaded;
  }
  [[nodiscard]] static bool valid_user_name(std::string_view name);

  /// Cluster tracer (null when tracing is off).
  [[nodiscard]] Tracer* tracer() const { return runtime_->tracer; }

  Runtime* runtime_;
  net::HostId host_;
  nfs::NfsClient client_;
  VirtualHandleTable vht_;
  KoshadStats stats_;
  /// Round-robin cursor and handle cache for replica reads.
  std::uint64_t replica_read_cursor_ = 0;
  std::unordered_map<std::string, nfs::FileHandle> replica_handle_cache_;
  /// Resolved once at construction (null when metrics are off).
  Histogram* route_hops_hist_ = nullptr;
  Histogram* failover_depth_hist_ = nullptr;
};

template <typename Fn>
auto Koshad::with_handle(VirtualHandle vh, Fn&& fn) {
  using Ret = std::invoke_result_t<Fn, const Resolved&>;
  // Failed attempts carry only a status, so the ladder can run type-erased;
  // `last` keeps the one payload that matters — the successful attempt's.
  std::optional<Ret> last;
  const nfs::NfsStat status = failover_ladder(vh, [&](const Resolved& r) {
    last.emplace(fn(r));
    return last->ok() ? nfs::NfsStat::kOk : last->error();
  });
  if (status == nfs::NfsStat::kOk) return *std::move(last);
  return Ret(status);
}

}  // namespace kosha
