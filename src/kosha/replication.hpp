#pragma once

// Replica management (paper §4.2-§4.4).
//
// Each node's primary content (the anchor subtrees it owns) is replicated
// on its K closest leaf-set neighbors. Replicas live in a hidden area of
// the replica node's store (/.r/<primary-id>/...), inaccessible through
// koshad, and count against the node's capacity. The primary:
//   * mirrors every mutation to its replicas asynchronously, off the
//     client's critical path: the traffic is counted, the foreground op is
//     not delayed,
//   * re-establishes replicas when its leaf set changes,
//   * migrates anchors whose key space moved to a newly joined node,
//   * and is replaced on failure by the neighbor that now owns its keys,
//     which promotes its hidden copy to live state (transparent fault
//     handling; incomplete copies are detected via MIGRATION_NOT_COMPLETE
//     and repaired from a complete replica).
// All of it is background work, whoever calls it (a join, a verdict, a
// repair pass, a foreground mutation): copies count their messages with
// SimNetwork::count_message, and the routes that find an anchor's owner
// ignore the cost PastryOverlay::route returns, so the clock never moves.

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "kosha/runtime.hpp"

namespace kosha {

class Counter;

/// Name of the in-band flag guarding content migration (paper §4.4).
inline constexpr const char* kMigrationFlag = "MIGRATION_NOT_COMPLETE";
/// Reserved top-level directory holding replica copies on each node.
inline constexpr const char* kReplicaArea = ".r";

/// Stored anchor path -> effective (possibly salted) directory name. The
/// transparent comparator lets a std::string_view prefix be looked up
/// without building a string; the order is std::less<std::string>'s.
using AnchorMap = std::map<std::string, std::string, std::less<>>;

/// Deepest anchor in `anchors` that equals or contains `stored_path`, or
/// nullptr when none does: the longest key `k` with
/// path_is_within(stored_path, k). Walks the path's own prefixes deepest
/// first, one map lookup each, so it costs O(path depth * log anchors)
/// and allocates nothing. Exact when every key is canonical
/// (normalize_path(k) == k) and `stored_path` is canonical as well. The
/// result points at the map's key and lives until that entry is erased.
[[nodiscard]] const std::string* deepest_anchor(const AnchorMap& anchors,
                                                std::string_view stored_path);

/// Per-primary mirroring counters.
struct MirrorStats {
  std::uint64_t rpcs = 0;     // individual mirror messages sent
  std::uint64_t batches = 0;  // mutations that fanned out (>=1 live target)
  /// Mirror applications that failed on a target (typically NOSPC): the
  /// replica is stale until the repair daemon's audit re-pushes it.
  std::uint64_t errors = 0;

  friend bool operator==(const MirrorStats&, const MirrorStats&) = default;
};

class ReplicaManager {
 public:
  ReplicaManager(Runtime* runtime, net::HostId host, pastry::NodeId id);

  [[nodiscard]] net::HostId host() const { return host_; }
  [[nodiscard]] pastry::NodeId id() const { return id_; }

  // --- primary registry -------------------------------------------------
  /// Record that this node is primary for an anchor subtree rooted at
  /// `stored_anchor_path` whose DHT name is `effective_name`, and push the
  /// (initially empty) subtree to the current replica targets.
  void register_primary(const std::string& stored_anchor_path,
                        const std::string& effective_name);
  void unregister_primary(const std::string& stored_anchor_path);
  [[nodiscard]] const AnchorMap& primaries() const { return primaries_; }
  [[nodiscard]] const std::vector<pastry::NodeId>& targets() const { return targets_; }

  // --- mutation mirroring (called by koshad after the primary op) -------
  // Each returns the number of mirror messages actually sent (0 when the
  // path is outside any registered anchor or no target is live), so the
  // caller can account the fan-out it triggered.
  std::size_t mirror_mkdir_p(const std::string& stored_path);
  std::size_t mirror_create(const std::string& stored_path, std::uint32_t mode,
                            std::uint32_t uid, std::uint32_t gid);
  std::size_t mirror_write(const std::string& stored_path, std::uint64_t offset,
                           const fs::Bytes& data);
  std::size_t mirror_truncate(const std::string& stored_path, std::uint64_t size);
  std::size_t mirror_set_mode(const std::string& stored_path, std::uint32_t mode);
  std::size_t mirror_symlink(const std::string& stored_path, const std::string& target);
  std::size_t mirror_remove(const std::string& stored_path);
  std::size_t mirror_rmdir(const std::string& stored_path);
  std::size_t mirror_remove_recursive(const std::string& stored_path);
  std::size_t mirror_rename(const std::string& from_path, const std::string& to_path);

  [[nodiscard]] const MirrorStats& mirror_stats() const { return mirror_stats_; }

  // --- membership events (wired to the overlay leaf-set callback) -------
  /// React to a leaf-set change: refresh replica targets, migrate anchors
  /// whose owner changed (node join), and promote replicas whose primary
  /// died (node failure).
  void on_neighbors_changed();

  /// One anti-entropy pass (repair daemon): everything
  /// on_neighbors_changed() does, plus a per-anchor audit that re-pushes
  /// anchors missing or incomplete on a replica target (at most
  /// `max_pushes` re-pushes per pass — the repair rate limit) and
  /// reclaims stale hidden copies whose live primary no longer lists this
  /// node as a target (e.g. a delete_from that could not reach us while
  /// we were down or browned out).
  struct ReconcileReport {
    std::size_t promoted = 0;     // anchors promoted from a dead primary
    std::size_t handed_off = 0;   // anchors copied to their new owner
    std::size_t pushed = 0;       // anchors re-pushed by the audit
    std::size_t dropped = 0;      // stale hidden copies reclaimed
    std::size_t missing = 0;      // (anchor, target) holes observed
  };
  ReconcileReport reconcile(std::size_t max_pushes);

  /// Graceful departure (paper §4.3: nodes may *leave*, not only fail):
  /// hand every primary anchor to the node that will own its key once this
  /// node is gone. Called before the overlay removes the node; loses
  /// nothing even with zero replicas.
  void evacuate();

  // --- replica-holder side ----------------------------------------------
  /// Invoked by a primary when it starts replicating to this node.
  void accept_replica(pastry::NodeId primary, const std::string& stored_anchor_path,
                      const std::string& effective_name);
  /// Invoked by a primary that stops using this node as a replica.
  void drop_replicas_of(pastry::NodeId primary);

  /// Hidden-area root for copies of `primary`'s content on any node.
  [[nodiscard]] static std::string hidden_root(pastry::NodeId primary);

  /// Introspection for tests.
  [[nodiscard]] const std::map<Uint128, std::map<std::string, std::string>>& held() const {
    return replicas_held_;
  }

 private:
  [[nodiscard]] fs::StorageBackend& local_store() const;
  [[nodiscard]] fs::StorageBackend* store_of(net::HostId host) const;
  /// True when a registered anchor equals or contains `stored_path`.
  [[nodiscard]] bool covered_by_anchor(std::string_view stored_path) const {
    return deepest_anchor(primaries_, stored_path) != nullptr;
  }
  /// Live replica target hosts for mirroring.
  [[nodiscard]] std::vector<net::HostId> live_target_hosts() const;
  /// Count + apply one mirror message per live target in the background
  /// (count_message: the clock does not move). `apply` receives the target
  /// host; returns the number of messages sent.
  std::size_t fan_out(std::size_t payload, const std::function<void(net::HostId)>& apply);
  /// fan_out specialised to "apply `op` at the replicated stored path on
  /// every live target" (every mirror op except rename).
  std::size_t for_each_replica(
      const std::string& stored_path, std::size_t payload,
      const std::function<void(fs::StorageBackend&, const std::string&)>& op);

  /// Record a failed mirror application: counted in MirrorStats and the
  /// replica.mirror.errors metric so staleness is visible, never fatal —
  /// the audit pass re-pushes the anchor.
  void note_mirror_error();

  /// Copy one anchor subtree to a target's hidden area (flag-guarded).
  /// Returns false if interrupted by fault injection.
  bool push_anchor_to(pastry::NodeId target, const std::string& stored_anchor_path);
  /// Push all anchors to one target under a single migration flag.
  void push_all_to(pastry::NodeId target);
  void delete_from(pastry::NodeId target);

  /// Take over a dead primary's anchor: move the hidden copy live,
  /// register, and re-replicate. Repairs from a complete replica if this
  /// node's copy carries the migration flag.
  void promote(pastry::NodeId dead_primary,
               const std::map<std::string, std::string>& anchors);
  /// Give a dead primary's anchor to the node that now owns its key but
  /// holds no copy of it (replica-holder-driven promotion). Returns true
  /// when content was actually copied over.
  bool hand_off_replica(pastry::NodeId dead_primary, pastry::NodeId owner,
                        const std::string& anchor, const std::string& name);

  // --- shared membership-reaction stages (on_neighbors_changed and
  // reconcile run the same three, reconcile adds the audit) --------------
  /// Stage 1: promote/hand off/discard anchors of dead primaries.
  /// Returns true when local primary content changed (promotion).
  bool reconcile_dead_primaries(ReconcileReport* report);
  /// Stage 2: re-derive replica targets from the leaf set; tear down
  /// removed targets, push to new ones (all of them if content changed).
  void refresh_targets(bool content_changed, ReconcileReport* report);
  /// Stage 3: migrate anchors whose key space moved to another owner.
  void migrate_moved_anchors();
  /// Audit stage (reconcile only): verify each registered anchor exists,
  /// flag-free, on each live target; re-push at most `max_pushes` holes
  /// and reclaim hidden copies no live primary wants here any more.
  void audit_replicas(std::size_t max_pushes, ReconcileReport* report);
  /// Drop a (stale) hidden copy held for `primary`.
  void discard_replica(pastry::NodeId primary, const std::string& anchor);

  /// Hand an anchor over to `new_owner` (key space moved on join); the
  /// local copy is demoted to a replica (paper §4.3.1).
  void migrate_anchor_to(pastry::NodeId new_owner, const std::string& stored_anchor_path,
                         const std::string& effective_name);

  Runtime* runtime_;
  net::HostId host_;
  pastry::NodeId id_;
  /// hidden_root(id_), built once: every mirrored op prefixes it.
  std::string hidden_root_;

  /// Replication-event counters, resolved once at construction (all null
  /// when metrics are off).
  Counter* mirror_ops_ = nullptr;     // per-target mirrored mutations
  Counter* mirror_errors_ = nullptr;  // mirror applications that failed
  Counter* pushes_ = nullptr;         // anchor subtrees pushed to a target
  Counter* promotions_ = nullptr;     // replicas promoted to primary
  Counter* repairs_ = nullptr;        // incomplete copies repaired from a peer
  Counter* migrations_ = nullptr;     // anchors migrated to a new owner
  Counter* handoffs_ = nullptr;       // dead primaries' anchors handed off

  MirrorStats mirror_stats_;

  /// Anchors this node is primary for. Every key is canonical
  /// (normalize_path(key) == key, as stored_path() and root_stored_path()
  /// produce), which deepest_anchor's prefix walk relies on;
  /// register_primary asserts it.
  AnchorMap primaries_;
  /// Current replica targets (K closest live leaf-set neighbors).
  std::vector<pastry::NodeId> targets_;
  /// Content this node holds *for others*: primary id -> anchors.
  std::map<Uint128, std::map<std::string, std::string>> replicas_held_;
};

/// Copy a subtree between two stores, counting one background message per
/// entry plus payload bytes on the network (SimNetwork::count_message: the
/// clock does not move). Does not follow symlinks (special links are
/// copied as links). When both ends are content-addressed, a file's
/// message counts only the bytes of blocks the destination does not
/// already hold (delta transfer over the Merkle manifest); flat stores
/// count the full file size. Returns false if interrupted by the
/// runtime's fault-injection hook.
bool copy_subtree(Runtime& runtime, fs::StorageBackend& src, const std::string& src_path,
                  fs::StorageBackend& dst, const std::string& dst_path);

}  // namespace kosha
