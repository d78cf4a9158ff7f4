#include "kosha/replication.hpp"

#include <algorithm>
#include <cassert>

#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/path.hpp"
#include "common/tracing.hpp"
#include "kosha/placement.hpp"

namespace kosha {

namespace {

/// Split a stored path into (parent path, leaf name).
std::pair<std::string, std::string> dir_and_name(const std::string& path) {
  return {path_parent(path), path_basename(path)};
}

/// Ensure a file exists at `path` with the given content (overwrite). A
/// flat store shares `content`'s buffer instead of copying it.
void put_file(fs::StorageBackend& store, const std::string& path, const fs::Bytes& content,
              std::uint32_t mode, std::uint32_t uid, std::uint32_t gid) {
  const auto [parent, name] = dir_and_name(path);
  const auto dir = store.mkdir_p(parent);
  if (!dir.ok()) return;
  auto inode = store.lookup(*dir, name);
  if (!inode.ok()) {
    const auto created = store.create(*dir, name, mode, uid, gid);
    if (!created.ok()) return;  // typically NOSPC: replica stays incomplete
    inode = created.value();
  }
  // A failed truncate or short write (NOSPC) leaves the replica copy
  // incomplete, exactly like a failed create above: nothing to do at this
  // layer, the audit pass re-pushes it.
  if (!store.truncate(*inode, 0).ok()) return;
  if (!store.write(*inode, 0, content).ok()) return;
}

}  // namespace

bool copy_subtree(Runtime& runtime, fs::StorageBackend& src, const std::string& src_path,
                  fs::StorageBackend& dst, const std::string& dst_path) {
  const auto root = src.resolve(src_path);
  if (!root.ok()) return true;  // nothing to copy
  const auto attr = src.getattr(*root);
  if (!attr.ok()) return true;

  if (attr->type == fs::FileType::kFile) {
    const auto content = src.read(*root, 0, static_cast<std::uint32_t>(attr->size));
    // An unreadable source (a corrupt block on a verifying CAS store) must
    // not clobber the destination's copy with fabricated content; leave it
    // for the replica path to serve and repair. Flat reads here never fail.
    if (!content.ok()) return true;
    std::uint64_t wire_bytes = attr->size;
    if (const auto blocks = src.file_blocks(*root); !blocks.empty()) {
      // Both ends speak blocks: transfer (count) only what dst lacks.
      std::uint64_t missing = 0;
      bool delta = dst.kind() == src.kind();
      for (const auto& block : blocks) {
        if (!dst.has_block(block.id)) missing += block.bytes;
      }
      if (delta) wire_bytes = missing;
    }
    runtime.network->count_message(wire_bytes);
    put_file(dst, dst_path, content.value(), attr->mode, attr->uid, attr->gid);
    return true;
  }
  if (attr->type == fs::FileType::kSymlink) {
    const auto target = src.readlink(*root);
    runtime.network->count_message(64);
    const auto [parent, name] = dir_and_name(dst_path);
    if (const auto dir = dst.mkdir_p(parent); dir.ok()) {
      // If the stale entry cannot be cleared the new link cannot land;
      // either failure leaves the copy incomplete for the audit to repair.
      if (dst.lookup(*dir, name).ok() && !dst.remove_recursive(*dir, name).ok()) {
        return true;
      }
      if (!dst.symlink(*dir, name, target.ok() ? target.value() : std::string{}).ok()) {
        return true;
      }
    }
    return true;
  }

  // Directory: create it, then copy children depth-first.
  runtime.network->count_message(64);
  if (!dst.mkdir_p(dst_path).ok()) return true;
  const auto entries = src.readdir(*root);
  if (!entries.ok()) return true;
  for (const auto& entry : entries.value()) {
    if (src_path == "/" && entry.name == kReplicaArea) continue;  // never copy replicas
    if (runtime.migration_interrupt && runtime.migration_interrupt()) return false;
    if (!copy_subtree(runtime, src, path_child(src_path, entry.name), dst,
                      path_child(dst_path, entry.name))) {
      return false;
    }
  }
  return true;
}

const std::string* deepest_anchor(const AnchorMap& anchors, std::string_view stored_path) {
  std::string_view prefix = stored_path;
  for (;;) {
    while (!prefix.empty() && prefix.back() == '/') prefix.remove_suffix(1);
    // `prefix` is now empty (the root) or ends in a whole component.
    const auto it = anchors.find(prefix.empty() ? std::string_view("/") : prefix);
    if (it != anchors.end()) return &it->first;
    if (prefix.empty()) return nullptr;
    const std::size_t slash = prefix.rfind('/');
    if (slash == std::string_view::npos) return nullptr;
    prefix = prefix.substr(0, slash);
  }
}

ReplicaManager::ReplicaManager(Runtime* runtime, net::HostId host, pastry::NodeId id)
    : runtime_(runtime), host_(host), id_(id), hidden_root_(hidden_root(id)) {
  assert(runtime_ != nullptr);
  if (MetricsRegistry* m = runtime_->metrics) {
    mirror_ops_ = m->counter("replica.mirror.ops");
    mirror_errors_ = m->counter("replica.mirror.errors");
    pushes_ = m->counter("replica.push.anchors");
    promotions_ = m->counter("replica.promotions");
    repairs_ = m->counter("replica.repairs");
    migrations_ = m->counter("replica.migrations");
    handoffs_ = m->counter("replica.handoffs");
  }
}

std::string ReplicaManager::hidden_root(pastry::NodeId primary) {
  return std::string("/") + kReplicaArea + "/" + primary.to_hex();
}

fs::StorageBackend& ReplicaManager::local_store() const {
  nfs::NfsServer* server = runtime_->servers->find(host_);
  assert(server != nullptr);
  return server->store();
}

fs::StorageBackend* ReplicaManager::store_of(net::HostId host) const {
  nfs::NfsServer* server = runtime_->servers->find(host);
  if (server == nullptr || !runtime_->network->is_up(host)) return nullptr;
  return &server->store();
}

std::vector<net::HostId> ReplicaManager::live_target_hosts() const {
  std::vector<net::HostId> out;
  for (const pastry::NodeId t : targets_) {
    if (!runtime_->overlay->is_live(t)) continue;
    const net::HostId host = runtime_->overlay->host_of(t);
    if (runtime_->network->is_up(host)) out.push_back(host);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Primary registry
// ---------------------------------------------------------------------------

void ReplicaManager::register_primary(const std::string& stored_anchor_path,
                                      const std::string& effective_name) {
  // deepest_anchor() finds only canonical keys; registration is rare.
  assert(normalize_path(stored_anchor_path) == stored_anchor_path);
  primaries_[stored_anchor_path] = effective_name;
  for (const pastry::NodeId t : targets_) {
    if (runtime_->overlay->is_live(t)) (void)push_anchor_to(t, stored_anchor_path);
  }
}

void ReplicaManager::unregister_primary(const std::string& stored_anchor_path) {
  primaries_.erase(stored_anchor_path);
}

// ---------------------------------------------------------------------------
// Mutation mirroring
// ---------------------------------------------------------------------------
// Every mirror op applies the primary-side mutation at the same stored path
// inside the hidden area of each live replica target. Mirroring is
// asynchronous, as in the paper: the fan-out counts its messages with
// count_message, which never advances the clock, so the foreground op is
// never delayed.

std::size_t ReplicaManager::fan_out(std::size_t payload,
                                    const std::function<void(net::HostId)>& apply) {
  const std::vector<net::HostId> targets = live_target_hosts();
  if (targets.empty()) return 0;
  for (const net::HostId host : targets) {
    // One span per replica target: a mutating client op traces as the
    // primary forward plus this fan-out of mirror spans.
    SpanScope span(runtime_->tracer, "replica.mirror", host_);
    if (span.active()) span.tag("target", std::to_string(host));
    if (mirror_ops_ != nullptr) mirror_ops_->inc();
    runtime_->network->count_message(payload);
    apply(host);
  }
  mirror_stats_.rpcs += targets.size();
  mirror_stats_.batches += 1;
  return targets.size();
}

void ReplicaManager::note_mirror_error() {
  ++mirror_stats_.errors;
  if (mirror_errors_ != nullptr) mirror_errors_->inc();
}

std::size_t ReplicaManager::for_each_replica(
    const std::string& stored_path, std::size_t payload,
    const std::function<void(fs::StorageBackend&, const std::string&)>& op) {
  if (!covered_by_anchor(stored_path)) return 0;
  return fan_out(payload, [&](net::HostId host) {
    if (fs::StorageBackend* store = store_of(host)) {
      op(*store, hidden_root_ + stored_path);
    }
  });
}

// Each mirror lambda checks its application and routes failures (and holes:
// a path the replica should have but cannot resolve) to note_mirror_error(),
// so stale replicas are counted instead of silently accumulating until the
// audit pass happens to notice.

std::size_t ReplicaManager::mirror_mkdir_p(const std::string& stored_path) {
  return for_each_replica(stored_path, 96,
                          [this](fs::StorageBackend& store, const std::string& path) {
                            if (!store.mkdir_p(path).ok()) note_mirror_error();
                          });
}

std::size_t ReplicaManager::mirror_create(const std::string& stored_path, std::uint32_t mode,
                                          std::uint32_t uid, std::uint32_t gid) {
  return for_each_replica(
      stored_path, 96,
      [this, mode, uid, gid](fs::StorageBackend& store, const std::string& path) {
        const auto [parent, name] = dir_and_name(path);
        const auto dir = store.mkdir_p(parent);
        if (!dir.ok() || !store.create(*dir, name, mode, uid, gid).ok()) {
          note_mirror_error();
        }
      });
}

std::size_t ReplicaManager::mirror_write(const std::string& stored_path, std::uint64_t offset,
                                         const fs::Bytes& data) {
  return for_each_replica(stored_path, data.size(),
                          [this, offset, &data](fs::StorageBackend& store,
                                                const std::string& path) {
                            const auto inode = store.resolve(path);
                            if (!inode.ok() || !store.write(*inode, offset, data).ok()) {
                              note_mirror_error();
                            }
                          });
}

std::size_t ReplicaManager::mirror_truncate(const std::string& stored_path,
                                            std::uint64_t size) {
  return for_each_replica(stored_path, 96,
                          [this, size](fs::StorageBackend& store, const std::string& path) {
                            const auto inode = store.resolve(path);
                            if (!inode.ok() || !store.truncate(*inode, size).ok()) {
                              note_mirror_error();
                            }
                          });
}

std::size_t ReplicaManager::mirror_set_mode(const std::string& stored_path,
                                            std::uint32_t mode) {
  return for_each_replica(stored_path, 96,
                          [this, mode](fs::StorageBackend& store, const std::string& path) {
                            const auto inode = store.resolve(path);
                            if (!inode.ok() || !store.set_mode(*inode, mode).ok()) {
                              note_mirror_error();
                            }
                          });
}

std::size_t ReplicaManager::mirror_symlink(const std::string& stored_path,
                                           const std::string& target) {
  return for_each_replica(
      stored_path, 96, [this, &target](fs::StorageBackend& store, const std::string& path) {
        const auto [parent, name] = dir_and_name(path);
        const auto dir = store.mkdir_p(parent);
        if (!dir.ok() || !store.symlink(*dir, name, target).ok()) note_mirror_error();
      });
}

// For the removal mirrors, absence is the goal state: an unresolvable
// parent or a kNoEnt from the store means the replica already lacks the
// entry, which is exactly what the mutation wanted. Only other failures
// (kNotEmpty, kStale, ...) leave the replica stale.

std::size_t ReplicaManager::mirror_remove(const std::string& stored_path) {
  return for_each_replica(stored_path, 96,
                          [this](fs::StorageBackend& store, const std::string& path) {
                            const auto [parent, name] = dir_and_name(path);
                            const auto dir = store.resolve(parent);
                            if (!dir.ok()) return;
                            const auto removed = store.remove(*dir, name);
                            if (!removed.ok() && removed.error() != fs::FsStatus::kNoEnt) {
                              note_mirror_error();
                            }
                          });
}

std::size_t ReplicaManager::mirror_rmdir(const std::string& stored_path) {
  return for_each_replica(stored_path, 96,
                          [this](fs::StorageBackend& store, const std::string& path) {
                            const auto [parent, name] = dir_and_name(path);
                            const auto dir = store.resolve(parent);
                            if (!dir.ok()) return;
                            const auto removed = store.rmdir(*dir, name);
                            if (!removed.ok() && removed.error() != fs::FsStatus::kNoEnt) {
                              note_mirror_error();
                            }
                          });
}

std::size_t ReplicaManager::mirror_remove_recursive(const std::string& stored_path) {
  return for_each_replica(stored_path, 96,
                          [this](fs::StorageBackend& store, const std::string& path) {
                            const auto [parent, name] = dir_and_name(path);
                            const auto dir = store.resolve(parent);
                            if (!dir.ok()) return;
                            const auto removed = store.remove_recursive(*dir, name);
                            if (!removed.ok() && removed.error() != fs::FsStatus::kNoEnt) {
                              note_mirror_error();
                            }
                          });
}

std::size_t ReplicaManager::mirror_rename(const std::string& from_path,
                                          const std::string& to_path) {
  if (!covered_by_anchor(from_path)) return 0;
  return fan_out(96, [&](net::HostId host) {
    fs::StorageBackend* store = store_of(host);
    if (store == nullptr) return;
    const auto [from_parent, from_name] = dir_and_name(hidden_root_ + from_path);
    const auto [to_parent, to_name] = dir_and_name(hidden_root_ + to_path);
    const auto fd = store->resolve(from_parent);
    const auto td = store->mkdir_p(to_parent);
    if (!fd.ok() || !td.ok() || !store->rename(*fd, from_name, *td, to_name).ok()) {
      note_mirror_error();
    }
  });
}

// ---------------------------------------------------------------------------
// Replica establishment / teardown
// ---------------------------------------------------------------------------

bool ReplicaManager::push_anchor_to(pastry::NodeId target, const std::string& anchor_path) {
  if (!runtime_->overlay->is_live(target)) return true;
  const net::HostId host = runtime_->overlay->host_of(target);
  fs::StorageBackend* store = store_of(host);
  if (store == nullptr) return true;
  SpanScope span(runtime_->tracer, "replica.push_anchor", host_);
  if (span.active()) span.tag("target", std::to_string(host));
  if (pushes_ != nullptr) pushes_->inc();
  const std::string& root = hidden_root_;

  // MIGRATION_NOT_COMPLETE guards the copy (paper §4.4).
  if (const auto dir = store->mkdir_p(root); dir.ok()) {
    // kosha-lint: allow(ignore-status): kExist means the flag is already up; NOSPC surfaces on the copy itself
    (void)store->create(*dir, kMigrationFlag);
  }
  runtime_->network->count_message(96);
  const bool complete =
      copy_subtree(*runtime_, local_store(), anchor_path, *store, root + anchor_path);
  if (complete) {
    if (const auto dir = store->resolve(root); dir.ok()) {
      // kosha-lint: allow(ignore-status): a surviving flag only keeps the copy marked incomplete; the audit re-pushes it
      (void)store->remove(*dir, kMigrationFlag);
    }
    if (ReplicaManager* rm = runtime_->replica_manager(host)) {
      rm->accept_replica(id_, anchor_path, primaries_.at(anchor_path));
    }
  } else {
    span.status("interrupted");
    KOSHA_LOG_WARN("migration to node %s interrupted; flag left in place",
                   target.to_hex().c_str());
  }
  return complete;
}

void ReplicaManager::push_all_to(pastry::NodeId target) {
  for (const auto& [anchor, name] : primaries_) {
    (void)name;
    if (!push_anchor_to(target, anchor)) return;  // interrupted: flag stays
  }
}

void ReplicaManager::delete_from(pastry::NodeId target) {
  if (!runtime_->overlay->is_live(target)) return;
  const net::HostId host = runtime_->overlay->host_of(target);
  fs::StorageBackend* store = store_of(host);
  if (store == nullptr) return;
  runtime_->network->count_message(96);
  if (const auto area = store->resolve(std::string("/") + kReplicaArea); area.ok()) {
    // kosha-lint: allow(ignore-status): best-effort space reclamation; a leftover stale copy is reclaimed by the next audit
    (void)store->remove_recursive(*area, id_.to_hex());
  }
  if (ReplicaManager* rm = runtime_->replica_manager(host)) rm->drop_replicas_of(id_);
}

void ReplicaManager::accept_replica(pastry::NodeId primary,
                                    const std::string& stored_anchor_path,
                                    const std::string& effective_name) {
  replicas_held_[primary][stored_anchor_path] = effective_name;
  // A fresh copy from a live primary supersedes copies of the same anchor
  // held for primaries that have since died — reclaim their space.
  for (auto it = replicas_held_.begin(); it != replicas_held_.end();) {
    if (it->first != primary && !runtime_->overlay->is_live(it->first) &&
        it->second.count(stored_anchor_path) != 0) {
      it->second.erase(stored_anchor_path);
      fs::StorageBackend& store = local_store();
      const auto [parent, name] = dir_and_name(hidden_root(it->first) + stored_anchor_path);
      if (const auto dir = store.resolve(parent); dir.ok()) {
        // kosha-lint: allow(ignore-status): best-effort space reclamation; a leftover stale copy is reclaimed by the next audit
        (void)store.remove_recursive(*dir, name);
      }
      if (it->second.empty()) {
        it = replicas_held_.erase(it);
        continue;
      }
    }
    ++it;
  }
}

void ReplicaManager::drop_replicas_of(pastry::NodeId primary) {
  replicas_held_.erase(primary);
}

// ---------------------------------------------------------------------------
// Membership changes
// ---------------------------------------------------------------------------

void ReplicaManager::on_neighbors_changed() {
  const bool content_changed = reconcile_dead_primaries(nullptr);
  refresh_targets(content_changed, nullptr);
  migrate_moved_anchors();
}

ReplicaManager::ReconcileReport ReplicaManager::reconcile(std::size_t max_pushes) {
  ReconcileReport report;
  const bool content_changed = reconcile_dead_primaries(&report);
  refresh_targets(content_changed, &report);
  migrate_moved_anchors();
  audit_replicas(max_pushes, &report);
  return report;
}

bool ReplicaManager::reconcile_dead_primaries(ReconcileReport* report) {
  bool content_changed = false;

  // Primaries we held replicas for may have died: promote the anchors
  // whose key space we now own. Anchors owned by another node are handed
  // to it directly if it has neither promoted nor received them —
  // callback ordering must not decide whether data survives.
  const auto held_snapshot = replicas_held_;
  for (const auto& [primary, anchors] : held_snapshot) {
    if (runtime_->overlay->is_live(primary)) continue;
    std::map<std::string, std::string> mine;
    for (const auto& [anchor, name] : anchors) {
      const auto route = runtime_->overlay->route(host_, key_for_name(name));
      if (route.owner == id_) {
        if (primaries_.count(anchor) != 0) {
          // We are already primary (the anchor migrated to us while its old
          // owner was still alive): the hidden copy is stale — discard it
          // rather than promote it over live content.
          discard_replica(primary, anchor);
          if (report != nullptr) ++report->dropped;
        } else {
          mine.emplace(anchor, name);
        }
      } else {
        const bool copied = hand_off_replica(primary, route.owner, anchor, name);
        if (copied && report != nullptr) ++report->handed_off;
      }
    }
    if (!mine.empty()) {
      promote(primary, mine);
      if (report != nullptr) report->promoted += mine.size();
      content_changed = true;
    }
  }
  return content_changed;
}

void ReplicaManager::refresh_targets(bool content_changed, ReconcileReport* report) {
  const std::vector<pastry::NodeId> fresh =
      runtime_->overlay->replica_targets(id_, runtime_->config.replicas);
  for (const pastry::NodeId old : targets_) {
    if (std::find(fresh.begin(), fresh.end(), old) == fresh.end()) delete_from(old);
  }
  for (const pastry::NodeId t : fresh) {
    const bool is_new = std::find(targets_.begin(), targets_.end(), t) == targets_.end();
    if (is_new || content_changed) {
      push_all_to(t);
      if (report != nullptr) report->pushed += primaries_.size();
    }
  }
  targets_ = fresh;
}

void ReplicaManager::migrate_moved_anchors() {
  // A join may have taken over part of our key space: hand over anchors
  // we no longer own (paper §4.3.1).
  const auto primaries_snapshot = primaries_;
  for (const auto& [anchor, name] : primaries_snapshot) {
    const auto route = runtime_->overlay->route(host_, key_for_name(name));
    if (route.owner != id_) migrate_anchor_to(route.owner, anchor, name);
  }
}

void ReplicaManager::audit_replicas(std::size_t max_pushes, ReconcileReport* report) {
  const std::string& root = hidden_root_;
  std::size_t pushes = 0;

  // Placement audit: every registered anchor must exist, flag-free, inside
  // this primary's hidden area on each live target. Holes (a target that
  // crashed before the copy finished, joined after the last membership
  // push, or lost the copy to a purge) are re-pushed, at most `max_pushes`
  // per pass.
  for (const pastry::NodeId t : targets_) {
    if (!runtime_->overlay->is_live(t)) continue;
    const net::HostId target_host = runtime_->overlay->host_of(t);
    fs::StorageBackend* store = store_of(target_host);
    if (store == nullptr) continue;
    // One audit round trip per target: request a manifest of our area.
    runtime_->network->count_message(64);
    runtime_->network->count_message(0);
    const bool flagged = store->resolve(path_child(root, kMigrationFlag)).ok();
    for (const auto& [anchor, name] : primaries_) {
      (void)name;
      // A present, flag-free copy still counts as a hole when any of its
      // blocks fails hash verification (CAS stores; flat stores always
      // verify clean) — the re-push rewrites the damaged content.
      if (!flagged && store->resolve(root + anchor).ok() &&
          store->verify_subtree(root + anchor) == 0) {
        continue;
      }
      if (report != nullptr) ++report->missing;
      if (pushes >= max_pushes) continue;  // rate limit: rest next pass
      if (push_anchor_to(t, anchor)) {
        ++pushes;
        if (report != nullptr) ++report->pushed;
      }
    }
  }

  // Stale-copy reclamation: a hidden copy held for a *live* primary that
  // no longer lists this node as a target is left over from a delete_from
  // that could not reach us (we were down or browned out). Ask the primary
  // and reclaim the space.
  const auto held_snapshot = replicas_held_;
  for (const auto& [primary, anchors] : held_snapshot) {
    if (!runtime_->overlay->is_live(primary)) continue;
    const net::HostId primary_host = runtime_->overlay->host_of(primary);
    if (!runtime_->network->is_up(primary_host)) continue;
    ReplicaManager* prm = runtime_->replica_manager(primary_host);
    if (prm == nullptr) continue;
    runtime_->network->count_message(64);
    runtime_->network->count_message(0);
    const bool still_target =
        std::find(prm->targets_.begin(), prm->targets_.end(), id_) != prm->targets_.end();
    for (const auto& [anchor, name] : anchors) {
      (void)name;
      // Keep the copy only while the primary both targets us and still
      // owns the anchor: a migration that moved the anchor to a new owner
      // leaves the old primary's targets holding copies nobody tracks.
      if (still_target && prm->primaries_.count(anchor) != 0) continue;
      discard_replica(primary, anchor);
      if (report != nullptr) ++report->dropped;
    }
  }
}

void ReplicaManager::discard_replica(pastry::NodeId primary, const std::string& anchor) {
  const auto it = replicas_held_.find(primary);
  if (it == replicas_held_.end()) return;
  it->second.erase(anchor);
  fs::StorageBackend& store = local_store();
  const auto [parent, name] = dir_and_name(hidden_root(primary) + anchor);
  if (const auto dir = store.resolve(parent); dir.ok()) {
    // kosha-lint: allow(ignore-status): best-effort space reclamation; a leftover stale copy is reclaimed by the next audit
    (void)store.remove_recursive(*dir, name);
  }
  if (it->second.empty()) replicas_held_.erase(it);
}

bool ReplicaManager::hand_off_replica(pastry::NodeId dead_primary, pastry::NodeId owner,
                                      const std::string& anchor, const std::string& name) {
  if (!runtime_->overlay->is_live(owner)) return false;
  const net::HostId owner_host = runtime_->overlay->host_of(owner);
  ReplicaManager* owner_rm = runtime_->replica_manager(owner_host);
  fs::StorageBackend* owner_store = store_of(owner_host);
  if (owner_rm == nullptr || owner_store == nullptr) return false;
  // Skip if the owner already promoted its own copy or received a handoff.
  if (owner_rm->primaries_.count(anchor) != 0) return false;
  // Skip if our copy is known-incomplete; a holder with a complete copy
  // will perform the handoff instead.
  fs::StorageBackend& store = local_store();
  const std::string root = hidden_root(dead_primary);
  if (store.resolve(path_child(root, kMigrationFlag)).ok()) return false;
  if (!store.resolve(root + anchor).ok()) return false;

  SpanScope span(runtime_->tracer, "replica.handoff", host_);
  if (span.active()) span.tag("target", std::to_string(owner_host));
  if (handoffs_ != nullptr) handoffs_->inc();
  if (!copy_subtree(*runtime_, store, root + anchor, *owner_store, anchor)) {
    return false;
  }
  owner_rm->register_primary(anchor, name);
  // Our copy of the dead primary's anchor is spent; the new primary pushes
  // fresh replicas to its own targets.
  if (const auto it = replicas_held_.find(dead_primary); it != replicas_held_.end()) {
    it->second.erase(anchor);
    const auto [parent, leaf] = dir_and_name(root + anchor);
    if (const auto dir = store.resolve(parent); dir.ok()) {
      // kosha-lint: allow(ignore-status): best-effort space reclamation; a leftover stale copy is reclaimed by the next audit
      (void)store.remove_recursive(*dir, leaf);
    }
    if (it->second.empty()) replicas_held_.erase(it);
  }
  return true;
}

void ReplicaManager::evacuate() {
  // For each anchor, the post-departure owner is the closest *other* node
  // to the key; hand the content over exactly as a join migration would.
  const auto snapshot = primaries_;
  for (const auto& [anchor, name] : snapshot) {
    const pastry::Key key = key_for_name(name);
    pastry::NodeId successor{};
    bool found = false;
    for (const auto& [candidate, host] : runtime_->overlay->ring().sorted()) {
      (void)host;
      if (candidate == id_ || !runtime_->overlay->is_live(candidate)) continue;
      if (!found || ring_distance(candidate, key) < ring_distance(successor, key) ||
          (ring_distance(candidate, key) == ring_distance(successor, key) &&
           candidate < successor)) {
        successor = candidate;
        found = true;
      }
    }
    if (found) migrate_anchor_to(successor, anchor, name);
  }
}

void ReplicaManager::promote(pastry::NodeId dead_primary,
                             const std::map<std::string, std::string>& anchors) {
  SpanScope span(runtime_->tracer, "replica.promote", host_);
  if (promotions_ != nullptr) promotions_->inc();
  fs::StorageBackend& store = local_store();
  const std::string root = hidden_root(dead_primary);

  // If our copy was mid-migration when the primary died, repair it from a
  // replica that holds a complete copy (paper §4.4).
  const bool incomplete = store.resolve(path_child(root, kMigrationFlag)).ok();
  if (incomplete) {
    for (const auto& [host, rm] : runtime_->replica_managers) {
      if (host == host_ || rm->replicas_held_.count(dead_primary) == 0) continue;
      fs::StorageBackend* peer = store_of(host);
      if (peer == nullptr) continue;
      if (peer->resolve(path_child(root, kMigrationFlag)).ok()) continue;  // also incomplete
      if (repairs_ != nullptr) repairs_->inc();
      for (const auto& [anchor, name] : anchors) {
        (void)name;
        (void)copy_subtree(*runtime_, *peer, root + anchor, store, root + anchor);
      }
      if (const auto dir = store.resolve(root); dir.ok()) {
        // kosha-lint: allow(ignore-status): a surviving flag only keeps the copy marked incomplete; the audit re-pushes it
        (void)store.remove(*dir, kMigrationFlag);
      }
      break;
    }
  }

  for (const auto& [anchor, name] : anchors) {
    const std::string hidden_path = root + anchor;
    if (!store.resolve(hidden_path).ok()) continue;  // no data: lost with the primary
    // Move the hidden copy into the live namespace.
    const auto [live_parent, live_name] = dir_and_name(anchor);
    const auto parent_dir = store.mkdir_p(live_parent);
    if (!parent_dir.ok()) continue;
    if (store.lookup(*parent_dir, live_name).ok()) {
      // kosha-lint: allow(ignore-status): best-effort space reclamation; a leftover stale copy is reclaimed by the next audit
      (void)store.remove_recursive(*parent_dir, live_name);
    }
    const auto [hidden_parent, hidden_name] = dir_and_name(hidden_path);
    const auto hdir = store.resolve(hidden_parent);
    if (!hdir.ok() || !store.rename(*hdir, hidden_name, *parent_dir, live_name).ok()) {
      continue;
    }
    primaries_[anchor] = name;
    replicas_held_[dead_primary].erase(anchor);
  }

  if (const auto it = replicas_held_.find(dead_primary);
      it != replicas_held_.end() && it->second.empty()) {
    replicas_held_.erase(it);
    const auto [parent, name] = dir_and_name(root);
    if (const auto dir = store.resolve(parent); dir.ok()) {
      // kosha-lint: allow(ignore-status): best-effort space reclamation; a leftover stale copy is reclaimed by the next audit
      (void)store.remove_recursive(*dir, name);
    }
  }
}

void ReplicaManager::migrate_anchor_to(pastry::NodeId new_owner,
                                       const std::string& stored_anchor_path,
                                       const std::string& effective_name) {
  if (!runtime_->overlay->is_live(new_owner)) return;
  const net::HostId owner_host = runtime_->overlay->host_of(new_owner);
  fs::StorageBackend* owner_store = store_of(owner_host);
  ReplicaManager* owner_rm = runtime_->replica_manager(owner_host);
  if (owner_store == nullptr || owner_rm == nullptr) return;

  SpanScope span(runtime_->tracer, "replica.migrate", host_);
  if (span.active()) span.tag("target", std::to_string(owner_host));
  if (migrations_ != nullptr) migrations_->inc();
  fs::StorageBackend& store = local_store();
  if (!copy_subtree(*runtime_, store, stored_anchor_path, *owner_store, stored_anchor_path)) {
    return;  // interrupted; retried on the next membership event
  }
  // The new owner takes over as primary; our live copy becomes a replica
  // (paper §4.3.1: "their copy on N becomes one of the replicas").
  primaries_.erase(stored_anchor_path);
  owner_rm->register_primary(stored_anchor_path, effective_name);

  const auto [src_parent, src_name] = dir_and_name(stored_anchor_path);
  const bool keep_as_replica =
      std::find(owner_rm->targets_.begin(), owner_rm->targets_.end(), id_) !=
      owner_rm->targets_.end();
  if (keep_as_replica) {
    // "Their copy on N becomes one of the replicas" (paper §4.3.1).
    const std::string dst = hidden_root(new_owner) + stored_anchor_path;
    const auto [dst_parent, dst_name] = dir_and_name(dst);
    const auto sdir = store.resolve(src_parent);
    const auto ddir = store.mkdir_p(dst_parent);
    if (sdir.ok() && ddir.ok()) {
      if (store.lookup(*ddir, dst_name).ok()) {
        // kosha-lint: allow(ignore-status): best-effort space reclamation; a leftover stale copy is reclaimed by the next audit
        (void)store.remove_recursive(*ddir, dst_name);
      }
      if (store.rename(*sdir, src_name, *ddir, dst_name).ok()) {
        replicas_held_[new_owner][stored_anchor_path] = effective_name;
      }
    }
  } else {
    // Not a replica target of the new owner: reclaim the space.
    if (const auto sdir = store.resolve(src_parent); sdir.ok()) {
      // kosha-lint: allow(ignore-status): best-effort space reclamation; a leftover stale copy is reclaimed by the next audit
      (void)store.remove_recursive(*sdir, src_name);
    }
  }

  // Prune the private scaffolding chain the anchor left behind (it lives
  // entirely inside the anchor container, so nothing else can use it).
  std::string cursor = src_parent;
  while (split_path(cursor).size() >= 2) {  // never remove /.a itself
    const auto inode = store.resolve(cursor);
    if (!inode.ok()) break;
    const auto listing = store.readdir(*inode);
    if (!listing.ok() || !listing->empty()) break;
    const auto [parent, name] = dir_and_name(cursor);
    const auto pdir = store.resolve(parent);
    if (!pdir.ok() || !store.rmdir(*pdir, name).ok()) break;
    cursor = parent;
  }
}


}  // namespace kosha
