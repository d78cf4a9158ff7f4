#pragma once

// NFS server: exports one storage backend over opaque handles.
//
// Each Kosha node runs one of these on its /kosha_store partition (paper
// §4: "The nodes are assumed to run NFS servers, so that their contributed
// disk space can be accessed via NFS"). Server-side service times (CPU +
// disk) are charged on the shared virtual clock through a cost model so the
// Table 1/2 experiments measure stable, host-independent numbers.

#include <cstddef>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/sim_clock.hpp"
#include "nfs/nfs_types.hpp"

namespace kosha {
class Counter;
class MetricsRegistry;
class Tracer;
}  // namespace kosha

namespace kosha::nfs {

/// Virtual-time cost of server-side RPC processing. Values approximate a
/// 2 GHz P4 with a 7200 RPM disk and an in-kernel NFS server; Tables 1-2
/// only depend on their ratios to the network costs.
struct NfsCostModel {
  /// Fixed per-RPC server CPU cost (decode, handle lookup, reply).
  SimDuration rpc_base = SimDuration::micros(60);
  /// Metadata mutation (create/mkdir/remove/rename/symlink/setattr).
  SimDuration metadata_op = SimDuration::micros(400);
  /// Attribute or directory read.
  SimDuration read_meta = SimDuration::micros(80);
  /// Data transfer cost per KiB moved from/to the store.
  SimDuration data_per_kib = SimDuration::micros(25);
};

/// Duplicate-request cache accounting (tests assert on these).
struct DrcStats {
  std::uint64_t hits = 0;    // retransmissions answered from the cache
  std::uint64_t stores = 0;  // replies recorded
};

class NfsServer {
 public:
  /// The store is built through make_backend(storage): which representation
  /// backs this node's partition is a per-cluster configuration choice.
  NfsServer(net::HostId host, fs::StorageConfig storage, NfsCostModel costs, SimClock* clock);

  [[nodiscard]] net::HostId host() const { return host_; }
  [[nodiscard]] fs::StorageBackend& store() { return *store_; }
  [[nodiscard]] const fs::StorageBackend& store() const { return *store_; }

  /// Handle of the exported root directory.
  [[nodiscard]] FileHandle root_handle() const;

  // --- RPC procedures (server-side; network costs are the client's) ---
  [[nodiscard]] NfsResult<HandleReply> lookup(FileHandle dir, std::string_view name);
  [[nodiscard]] NfsResult<fs::Attr> getattr(FileHandle obj);
  // SETATTR-class procedures are non-idempotent on the wire (NFSv3 treats
  // them so: guarded SETATTR races, size-changing truncates) and therefore
  // take the caller's RpcContext like the other mutators below.
  [[nodiscard]] NfsResult<fs::Attr> set_mode(FileHandle obj, std::uint32_t mode,
                                             RpcContext ctx = {});
  [[nodiscard]] NfsResult<fs::Attr> truncate(FileHandle obj, std::uint64_t size,
                                             RpcContext ctx = {});
  [[nodiscard]] NfsResult<ReadReply> read(FileHandle file, std::uint64_t offset,
                                          std::uint32_t count);
  [[nodiscard]] NfsResult<std::uint32_t> write(FileHandle file, std::uint64_t offset,
                                               const fs::Bytes& data);
  // Non-idempotent procedures take the caller's RpcContext: a valid
  // context engages the duplicate-request cache, so a retransmission of an
  // already-executed request returns the original reply instead of
  // re-executing (and spuriously failing with kExist/kNoEnt).
  [[nodiscard]] NfsResult<HandleReply> create(FileHandle dir, std::string_view name,
                                              std::uint32_t mode, std::uint32_t uid,
                                              std::uint32_t gid = 0, RpcContext ctx = {});
  [[nodiscard]] NfsResult<HandleReply> mkdir(FileHandle dir, std::string_view name,
                                             std::uint32_t mode, std::uint32_t uid,
                                             std::uint32_t gid = 0, RpcContext ctx = {});
  [[nodiscard]] NfsResult<HandleReply> symlink(FileHandle dir, std::string_view name,
                                               std::string_view target, RpcContext ctx = {});
  [[nodiscard]] NfsResult<std::string> readlink(FileHandle link);
  [[nodiscard]] NfsResult<Unit> remove(FileHandle dir, std::string_view name,
                                       RpcContext ctx = {});
  [[nodiscard]] NfsResult<Unit> rmdir(FileHandle dir, std::string_view name,
                                      RpcContext ctx = {});
  [[nodiscard]] NfsResult<Unit> rename(FileHandle from_dir, std::string_view from_name,
                                       FileHandle to_dir, std::string_view to_name,
                                       RpcContext ctx = {});
  [[nodiscard]] NfsResult<ReaddirReply> readdir(FileHandle dir);
  [[nodiscard]] NfsResult<FsstatReply> fsstat();

  [[nodiscard]] std::uint64_t rpc_count() const { return rpc_count_; }
  [[nodiscard]] const DrcStats& drc_stats() const { return drc_stats_; }
  /// Non-idempotent requests bounced with kOverloaded because their
  /// propagated deadline (RpcContext::deadline) had already passed on
  /// arrival. Always zero while overload control is disabled.
  [[nodiscard]] std::uint64_t deadline_rejects() const { return deadline_rejects_; }

  /// Attach the cluster's observability sinks (nullptr = off). Procedures
  /// then run under server-side spans — parented by the trace context the
  /// RPC carried — and the DRC feeds hit/miss/store counters.
  void set_observability(MetricsRegistry* metrics, Tracer* tracer);

  /// Forget all cached replies. The DRC is volatile server state: a crash
  /// loses it, so revival must not resurrect replies from the previous
  /// incarnation (their handles point into the purged store).
  void clear_drc();

 private:
  /// The cached procedure's reply shape. Checked on lookup so a (client,
  /// xid) collision across procedures never yields a reply of the wrong
  /// type.
  enum class ReplyShape { kHandle, kUnit, kAttr };

  /// One remembered reply, flattened: its status, and on success the
  /// fields its shape returns (a handle and attributes, attributes, or
  /// nothing). The entry only answers requests from the same client
  /// incarnation (`boot`).
  struct DrcEntry {
    NfsStat status = NfsStat::kOk;
    ReplyShape shape = ReplyShape::kUnit;
    std::uint64_t boot = 0;
    FileHandle handle{};  // kHandle replies
    fs::Attr attr{};      // kHandle and kAttr replies

    [[nodiscard]] static DrcEntry of(const NfsResult<HandleReply>& reply);
    [[nodiscard]] static DrcEntry of(const NfsResult<fs::Attr>& reply);
    [[nodiscard]] static DrcEntry of(const NfsResult<Unit>& reply);
    [[nodiscard]] NfsResult<HandleReply> handle_reply() const;
    [[nodiscard]] NfsResult<fs::Attr> attr_reply() const;
    [[nodiscard]] NfsResult<Unit> unit_reply() const;
  };

  /// Replies remembered per (client, xid); FIFO-bounded like a real
  /// server's fixed-size DRC. Boot verifier and reply shape are checked on
  /// lookup, so a key match alone never yields a foreign reply.
  static constexpr std::size_t kDrcCapacity = 512;
  /// The ring's first allocation: one 512-byte block, what a deque block
  /// costs, so a server that caches replies allocates no more often than
  /// a deque FIFO did.
  static constexpr std::size_t kDrcFirstKeys = 64;

  [[nodiscard]] static std::uint64_t drc_key(RpcContext ctx) {
    return (static_cast<std::uint64_t>(ctx.client) << 32) | ctx.xid;
  }
  [[nodiscard]] const DrcEntry* drc_find(RpcContext ctx, ReplyShape want);
  void drc_store(RpcContext ctx, DrcEntry entry);
  /// True iff the request's propagated op deadline has already passed —
  /// the client gave up, so executing (or even caching a reply) is dead
  /// work. Non-idempotent handlers MUST call this before their drc_store
  /// (lint rule P3): rejecting after the store would poison the DRC with
  /// a kOverloaded reply that a later retransmission of the same xid
  /// would then be served instead of executing.
  [[nodiscard]] bool reject_expired(RpcContext ctx);
  [[nodiscard]] NfsResult<fs::InodeId> resolve(FileHandle handle) const;
  [[nodiscard]] FileHandle handle_for(fs::InodeId inode) const;
  void charge(SimDuration cost);
  void charge_data(std::size_t bytes);

  net::HostId host_;
  std::unique_ptr<fs::StorageBackend> store_;
  NfsCostModel costs_;
  SimClock* clock_;
  std::uint64_t rpc_count_ = 0;
  std::uint64_t deadline_rejects_ = 0;
  std::unordered_map<std::uint64_t, DrcEntry> drc_;
  /// The cached keys in store order, as a ring: unallocated until the
  /// first store, it grows to kDrcCapacity and then each new key
  /// overwrites the oldest, at drc_oldest_, and takes over its map node.
  /// A replaced entry keeps its place. (No std::deque: libstdc++'s allocates when constructed, and
  /// at 10,000 nodes most servers never store a reply.)
  std::vector<std::uint64_t> drc_order_;
  std::size_t drc_oldest_ = 0;
  DrcStats drc_stats_;
  Tracer* tracer_ = nullptr;
  Counter* drc_hit_ = nullptr;
  Counter* drc_miss_ = nullptr;
  Counter* drc_store_ = nullptr;
};

}  // namespace kosha::nfs
