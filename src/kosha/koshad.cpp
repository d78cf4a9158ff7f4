// koshad — the Kosha loopback daemon: request handlers (paper §4, §5).
//
// This file holds the virtual NFS interface: every handler charges the
// interposition cost, runs its operation through the failover ladder
// (koshad_failover.cpp) against paths resolved by the resolution layer
// (koshad_resolve.cpp), and mirrors mutations to the primary's replicas.

#include "kosha/koshad.hpp"

#include <algorithm>

#include "common/metrics.hpp"
#include "common/path.hpp"
#include "common/tracing.hpp"
#include "kosha/placement.hpp"

namespace kosha {

namespace {

/// Stamp the operation span with the failing status and pass the result on.
template <typename ResultT>
ResultT finish_span(SpanScope& span, ResultT result) {
  if (!result.ok()) span.status(nfs::to_string(result.error()));
  return result;
}

/// Fail an operation: stamp the span, return the status (converts to any
/// NfsResult<T>).
nfs::NfsStat fail(SpanScope& span, nfs::NfsStat status) {
  span.status(nfs::to_string(status));
  return status;
}

}  // namespace

Koshad::Koshad(Runtime* runtime, net::HostId host, std::uint64_t boot)
    : runtime_(runtime),
      host_(host),
      client_(runtime->network, runtime->servers, host, runtime->config.retry,
              runtime->config.rng_seed, boot) {
  if (runtime_->config.overload.enabled) client_.configure_overload(runtime_->config.overload);
  if (runtime_->metrics != nullptr) {
    route_hops_hist_ =
        runtime_->metrics->histogram("koshad.overlay.route_hops", {0, 1, 2, 3, 4, 6, 8, 12, 16});
    failover_depth_hist_ =
        runtime_->metrics->histogram("koshad.failover.depth", {0, 1, 2, 3, 4, 6, 8});
  }
}

bool Koshad::valid_user_name(std::string_view name) {
  if (name.empty() || name == "." || name == ".." || name == kReplicaArea ||
      name == kAnchorArea || name == kMigrationFlag) {
    return false;
  }
  if (name.find('/') != std::string_view::npos) return false;
  // '#' is reserved as the redirection-salt separator (paper §3.3).
  if (name.find(kSaltSeparator) != std::string_view::npos) return false;
  return true;
}

void Koshad::note_forward(net::HostId host) {
  ++stats_.rpcs_forwarded;
  if (host != host_) ++stats_.remote_rpcs;
}

void Koshad::charge_interposition() {
  runtime_->clock->advance(runtime_->config.interposition_cost);
  // Deadline propagation starts here: every handler charges interposition
  // first, so this stamp gives the whole operation — forwarded RPCs,
  // mirror fan-out, failover rounds — one absolute budget that servers
  // check before executing (and the ladder checks before re-resolving).
  const auto& overload = runtime_->config.overload;
  if (overload.enabled && overload.op_budget.ns > 0) {
    client_.set_op_deadline(runtime_->clock->now() + overload.op_budget);
  }
}

// ---------------------------------------------------------------------------
// The virtual NFS interface
// ---------------------------------------------------------------------------

nfs::NfsResult<VirtualHandle> Koshad::root() {
  SpanScope span(tracer(), "koshad.root", host_);
  charge_interposition();
  const auto resolved = resolve_path("/", false);
  if (!resolved.ok()) return fail(span, resolved.error());
  return *vht_.find_by_path("/");
}

nfs::NfsResult<VhReply> Koshad::lookup(VirtualHandle dir, std::string_view name) {
  SpanScope span(tracer(), "koshad.lookup", host_);
  charge_interposition();
  const VhEntry* entry = vht_.find(dir);
  if (entry == nullptr) return fail(span, nfs::NfsStat::kStale);
  const std::string path = path_child(entry->path, name);
  const std::string name_copy(name);
  return finish_span(
      span, with_handle(dir, [&](const Resolved& parent) -> nfs::NfsResult<VhReply> {
        const auto resolved = resolve_entry(parent, path, name_copy, false);
        if (!resolved.ok()) return resolved.error();
        return VhReply{*vht_.find_by_path(path), resolved->attr};
      }));
}

nfs::NfsResult<fs::Attr> Koshad::getattr(VirtualHandle obj) {
  SpanScope span(tracer(), "koshad.getattr", host_);
  charge_interposition();
  return finish_span(span, with_handle(obj, [&](const Resolved& r) {
                       note_forward(r.host);
                       return client_.getattr(r.handle);
                     }));
}

nfs::NfsResult<fs::Attr> Koshad::set_mode(VirtualHandle obj, std::uint32_t mode) {
  SpanScope span(tracer(), "koshad.set_mode", host_);
  charge_interposition();
  return finish_span(span, with_handle(obj, [&](const Resolved& r) {
                       note_forward(r.host);
                       auto result = client_.set_mode(r.handle, mode);
                       if (result.ok()) {
                         if (ReplicaManager* rm = manager_of(r.host)) {
                           stats_.mirror_rpcs += rm->mirror_set_mode(r.stored_path, mode);
                         }
                       }
                       return result;
                     }));
}

nfs::NfsResult<fs::Attr> Koshad::truncate(VirtualHandle obj, std::uint64_t size) {
  SpanScope span(tracer(), "koshad.truncate", host_);
  charge_interposition();
  return finish_span(span, with_handle(obj, [&](const Resolved& r) {
                       note_forward(r.host);
                       auto result = client_.truncate(r.handle, size);
                       if (result.ok()) {
                         if (ReplicaManager* rm = manager_of(r.host)) {
                           stats_.mirror_rpcs += rm->mirror_truncate(r.stored_path, size);
                         }
                       }
                       return result;
                     }));
}

nfs::NfsResult<nfs::ReadReply> Koshad::read(VirtualHandle file, std::uint64_t offset,
                                            std::uint32_t count) {
  SpanScope span(tracer(), "koshad.read", host_);
  charge_interposition();
  return finish_span(span, with_handle(file, [&](const Resolved& r)
                                                 -> nfs::NfsResult<nfs::ReadReply> {
    if (runtime_->config.read_from_replicas) {
      if (auto reply = try_replica_read(r, offset, count)) return *std::move(reply);
    }
    note_forward(r.host);
    auto primary = client_.read(r.handle, offset, count);
    if (!primary.ok() && is_error_retryable(primary.error()) &&
        runtime_->config.read_from_replicas) {
      // Degraded read (paper §4.2's future-work direction): the primary is
      // unreachable but still owns the key (no promotion yet — e.g. a
      // brownout shorter than failure detection), so serve from any
      // reachable replica copy instead of failing the ladder round.
      if (auto degraded = degraded_replica_read(r, offset, count)) return *std::move(degraded);
    }
    return primary;
  }));
}

nfs::NfsResult<std::uint32_t> Koshad::write(VirtualHandle file, std::uint64_t offset,
                                            const fs::Bytes& data) {
  SpanScope span(tracer(), "koshad.write", host_);
  charge_interposition();
  return finish_span(span, with_handle(file, [&](const Resolved& r) {
                       note_forward(r.host);
                       auto result = client_.write(r.handle, offset, data);
                       if (result.ok()) {
                         if (ReplicaManager* rm = manager_of(r.host)) {
                           stats_.mirror_rpcs += rm->mirror_write(r.stored_path, offset, data);
                         }
                       }
                       return result;
                     }));
}

nfs::NfsResult<VhReply> Koshad::create(VirtualHandle dir, std::string_view name,
                                       std::uint32_t mode, std::uint32_t uid,
                                       std::uint32_t gid) {
  SpanScope span(tracer(), "koshad.create", host_);
  if (span.active()) span.tag("name", name);
  charge_interposition();
  if (!valid_user_name(name)) return fail(span, nfs::NfsStat::kInval);
  const VhEntry* entry = vht_.find(dir);
  if (entry == nullptr) return fail(span, nfs::NfsStat::kStale);
  const std::string path = path_child(entry->path, name);
  const std::string name_copy(name);
  // Set when our CREATE timed out after transmission: it may have executed
  // with the reply lost, so a later ladder round must adopt the existing
  // file instead of surfacing a spurious kExist (ladder rounds run
  // back-to-back — nothing else can have created the name in between).
  bool maybe_created = false;
  auto result = with_handle(dir, [&](const Resolved& parent) -> nfs::NfsResult<VhReply> {
    note_forward(parent.host);
    auto created = client_.create(parent.handle, name_copy, mode, uid, gid);
    if (!created.ok() && created.error() == nfs::NfsStat::kTimedOut) maybe_created = true;
    if (!created.ok() && created.error() == nfs::NfsStat::kExist && maybe_created) {
      note_forward(parent.host);
      const auto adopted = client_.lookup(parent.handle, name_copy);
      if (!adopted.ok()) return adopted.error();
      if (adopted->attr.type != fs::FileType::kFile) return nfs::NfsStat::kExist;
      created = adopted;
    }
    if (!created.ok()) return created.error();
    const std::string stored = path_child(parent.stored_path, name_copy);
    if (ReplicaManager* rm = manager_of(parent.host)) {
      stats_.mirror_rpcs += rm->mirror_create(stored, mode, uid, gid);
    }
    const VirtualHandle vh = vht_.bind(path, stored, created->handle, fs::FileType::kFile);
    return VhReply{vh, created->attr};
  });
  // A retryable give-up after our CREATE timed out must keep saying "may
  // have executed": downgrading to kUnreachable would license a blind
  // re-issue that then misreads our own success as kExist.
  if (!result.ok() && maybe_created && is_error_retryable(result.error())) {
    return fail(span, nfs::NfsStat::kTimedOut);
  }
  return finish_span(span, result);
}

nfs::NfsResult<VhReply> Koshad::mkdir(VirtualHandle dir, std::string_view name,
                                      std::uint32_t mode, std::uint32_t uid,
                                      std::uint32_t gid) {
  SpanScope span(tracer(), "koshad.mkdir", host_);
  if (span.active()) span.tag("name", name);
  charge_interposition();
  if (!valid_user_name(name)) return fail(span, nfs::NfsStat::kInval);
  const VhEntry* entry = vht_.find(dir);
  if (entry == nullptr) return fail(span, nfs::NfsStat::kStale);
  const std::string path = path_child(entry->path, name);
  const std::string name_copy(name);
  const auto depth = static_cast<unsigned>(path_depth(path));

  // Set when our (non-distributed) MKDIR timed out after transmission: a
  // later ladder round finding the directory must adopt it, not report a
  // spurious kExist. The distributed branch needs no flag — every step of
  // it is lookup-first and re-runnable.
  bool maybe_made = false;
  auto result = with_handle(dir, [&](const Resolved& parent) -> nfs::NfsResult<VhReply> {
    note_forward(parent.host);
    const auto existing = client_.lookup(parent.handle, name_copy);
    if (existing.ok()) {
      if (!maybe_made || existing->attr.type != fs::FileType::kDirectory) {
        return nfs::NfsStat::kExist;
      }
      // Our earlier timed-out MKDIR did execute: finish its bookkeeping.
      const std::string stored = path_child(parent.stored_path, name_copy);
      if (ReplicaManager* rm = manager_of(parent.host)) {
        stats_.mirror_rpcs += rm->mirror_mkdir_p(stored);
      }
      const VirtualHandle vh =
          vht_.bind(path, stored, existing->handle, fs::FileType::kDirectory);
      return VhReply{vh, existing->attr};
    }
    if (existing.error() != nfs::NfsStat::kNoEnt) return existing.error();

    if (!is_distributed_depth(runtime_->config.distribution_level, depth)) {
      // Below the distribution level: stored with the parent (paper §3.2).
      note_forward(parent.host);
      const auto made = client_.mkdir(parent.handle, name_copy, mode, uid, gid);
      if (!made.ok()) {
        if (made.error() == nfs::NfsStat::kTimedOut) maybe_made = true;
        return made.error();
      }
      const std::string stored = path_child(parent.stored_path, name_copy);
      if (ReplicaManager* rm = manager_of(parent.host)) {
        stats_.mirror_rpcs += rm->mirror_mkdir_p(stored);
      }
      const VirtualHandle vh = vht_.bind(path, stored, made->handle, fs::FileType::kDirectory);
      return VhReply{vh, made->attr};
    }

    // Distributed directory: pick the node (with capacity redirection),
    // build the scaffolding hierarchy there, and plant the special link in
    // the parent (paper §3.1, §4.1.4).
    const auto placed = place_directory(name_copy);
    if (!placed.ok()) return placed.error();
    const auto& [node, effective] = placed.value();
    const net::HostId host = host_of(node);
    const auto components = split_path(path);
    const std::string stored = stored_path(components, depth, effective);
    const auto made = remote_mkdir_p(host, stored, mode, uid, gid);
    if (!made.ok()) return made.error();
    if (ReplicaManager* rm = manager_of(host)) rm->register_primary(stored, effective);

    // Plant the special link in the parent directory (paper §3.1/§3.3).
    note_forward(parent.host);
    const auto link = client_.symlink(parent.handle, name_copy, effective);
    if (link.ok()) {
      if (ReplicaManager* rm = manager_of(parent.host)) {
        stats_.mirror_rpcs +=
            rm->mirror_symlink(path_child(parent.stored_path, name_copy), effective);
      }
    }
    const VirtualHandle vh = vht_.bind(path, stored, made->handle, fs::FileType::kDirectory);
    return VhReply{vh, made->attr};
  });
  // Preserve the "may have executed" signal across a failed ladder (see
  // create()): the caller must not blindly re-issue and then misread our
  // own success as kExist.
  if (!result.ok() && maybe_made && is_error_retryable(result.error())) {
    return fail(span, nfs::NfsStat::kTimedOut);
  }
  return finish_span(span, result);
}

nfs::NfsResult<Unit> Koshad::remove(VirtualHandle dir, std::string_view name) {
  SpanScope span(tracer(), "koshad.remove", host_);
  if (span.active()) span.tag("name", name);
  charge_interposition();
  const VhEntry* entry = vht_.find(dir);
  if (entry == nullptr) return fail(span, nfs::NfsStat::kStale);
  const std::string path = path_child(entry->path, name);
  const std::string name_copy(name);
  // Set when our REMOVE timed out after transmission: a later ladder round
  // finding the name gone must treat that as our own success, not report a
  // spurious kNoEnt.
  bool maybe_removed = false;
  auto result = with_handle(dir, [&](const Resolved& parent) -> nfs::NfsResult<Unit> {
    note_forward(parent.host);
    const auto looked = client_.lookup(parent.handle, name_copy);
    if (!looked.ok()) {
      if (looked.error() == nfs::NfsStat::kNoEnt) {
        // Run the removal bookkeeping either way. With the flag this is
        // our own timed-out REMOVE succeeding; without it the primary —
        // the authority — says the name is gone, so any lingering replica
        // copy (e.g. left by an earlier caller that gave up mid-ambiguity)
        // is reconciled away. A no-op when everything already agrees.
        if (ReplicaManager* rm = manager_of(parent.host)) {
          stats_.mirror_rpcs +=
              rm->mirror_remove_recursive(path_child(parent.stored_path, name_copy));
        }
        vht_.drop_subtree(path);
        if (maybe_removed) return Unit{};
      }
      return looked.error();
    }
    if (looked->attr.type != fs::FileType::kFile) return nfs::NfsStat::kIsDir;
    note_forward(parent.host);
    const auto removed = client_.remove(parent.handle, name_copy);
    if (!removed.ok()) {
      if (removed.error() == nfs::NfsStat::kTimedOut) maybe_removed = true;
      return removed.error();
    }
    if (ReplicaManager* rm = manager_of(parent.host)) {
      stats_.mirror_rpcs += rm->mirror_remove(path_child(parent.stored_path, name_copy));
    }
    vht_.drop_subtree(path);
    return Unit{};
  });
  // Preserve the "may have executed" signal across a failed ladder (see
  // create()).
  if (!result.ok() && maybe_removed && is_error_retryable(result.error())) {
    return fail(span, nfs::NfsStat::kTimedOut);
  }
  return finish_span(span, result);
}

nfs::NfsResult<Unit> Koshad::rmdir(VirtualHandle dir, std::string_view name) {
  SpanScope span(tracer(), "koshad.rmdir", host_);
  if (span.active()) span.tag("name", name);
  charge_interposition();
  const VhEntry* entry = vht_.find(dir);
  if (entry == nullptr) return fail(span, nfs::NfsStat::kStale);
  const std::string path = path_child(entry->path, name);
  const std::string name_copy(name);
  const auto depth = static_cast<unsigned>(path_depth(path));

  // Set when our RMDIR (of the plain directory, or of a distributed
  // directory's stored container) timed out after transmission: a later
  // ladder round finding it gone must treat that as our own success, not
  // report a spurious kNoEnt.
  bool maybe_removed = false;
  auto result = with_handle(dir, [&](const Resolved& parent) -> nfs::NfsResult<Unit> {
    note_forward(parent.host);
    const auto looked = client_.lookup(parent.handle, name_copy);
    if (!looked.ok()) {
      if (looked.error() == nfs::NfsStat::kNoEnt) {
        // Bookkeeping either way: our own timed-out RMDIR succeeding, or
        // the authoritative primary saying the name is gone — reconcile
        // lingering replica state (no-op when already consistent).
        if (ReplicaManager* rm = manager_of(parent.host)) {
          if (maybe_removed) {
            stats_.mirror_rpcs +=
                rm->mirror_rmdir(path_child(parent.stored_path, name_copy));
          } else {
            stats_.mirror_rpcs +=
                rm->mirror_remove_recursive(path_child(parent.stored_path, name_copy));
          }
        }
        vht_.drop_subtree(path);
        if (maybe_removed) return Unit{};
      }
      return looked.error();
    }
    if (looked->attr.type == fs::FileType::kFile) return nfs::NfsStat::kNotDir;

    // Distributed directories appear in their parent as special links.
    const bool distributed = looked->attr.type == fs::FileType::kSymlink;
    (void)depth;
    if (!distributed) {
      note_forward(parent.host);
      const auto removed = client_.rmdir(parent.handle, name_copy);
      if (!removed.ok()) {
        if (removed.error() == nfs::NfsStat::kTimedOut) maybe_removed = true;
        return removed.error();
      }
      if (ReplicaManager* rm = manager_of(parent.host)) {
        stats_.mirror_rpcs += rm->mirror_rmdir(path_child(parent.stored_path, name_copy));
      }
      vht_.drop_subtree(path);
      return Unit{};
    }

    // Distributed directory (paper §4.1.5): resolve the link target by
    // hand — so a ladder round can still do the bookkeeping when a
    // timed-out removal already deleted the stored directory — verify
    // emptiness at the storage node, remove the stored directory, prune
    // the now-unused empty scaffolding, and finally drop the special link
    // in the parent.
    note_forward(parent.host);
    const auto target = client_.readlink(looked->handle);
    if (!target.ok()) return target.error();
    const auto owner = route(key_for_name(target.value()));
    const net::HostId storage = host_of(owner.owner);
    const auto components = split_path(path);
    const std::string stored =
        stored_path(components, static_cast<unsigned>(components.size()), target.value());
    ReplicaManager* srm = manager_of(storage);

    const auto child = remote_lookup_path(storage, stored);
    if (child.ok()) {
      note_forward(storage);
      const auto listing = client_.readdir(child->handle);
      if (!listing.ok()) return listing.error();
      if (!listing->entries.empty()) return nfs::NfsStat::kNotEmpty;

      const std::string stored_parent = path_parent(stored);
      const auto stored_dir = remote_lookup_path(storage, stored_parent);
      if (stored_dir.ok()) {
        note_forward(storage);
        const auto removed = client_.rmdir(stored_dir->handle, path_basename(stored));
        if (!removed.ok()) {
          if (removed.error() == nfs::NfsStat::kTimedOut) maybe_removed = true;
          return removed.error();
        }
        if (srm != nullptr) {
          stats_.mirror_rpcs += srm->mirror_rmdir(stored);
          srm->unregister_primary(stored);
        }
        prune_scaffolding(storage, stored_parent, srm);
      }
    } else if (child.error() == nfs::NfsStat::kNoEnt && maybe_removed) {
      // Our earlier timed-out RMDIR already removed the stored directory:
      // finish its bookkeeping and continue to the link cleanup.
      if (srm != nullptr) {
        stats_.mirror_rpcs += srm->mirror_rmdir(stored);
        srm->unregister_primary(stored);
      }
      prune_scaffolding(storage, path_parent(stored), srm);
    } else {
      return child.error();
    }

    // Remove the special link (absent in the directly-visible case, where
    // the stored-directory removal above already deleted the entry).
    note_forward(parent.host);
    const auto link = client_.lookup(parent.handle, name_copy);
    if (link.ok() && link->attr.type == fs::FileType::kSymlink) {
      note_forward(parent.host);
      // kosha-lint: allow(ignore-status): link confirmed present just above; a racing removal reaching absence is the goal state
      (void)client_.remove(parent.handle, name_copy);
      if (ReplicaManager* rm = manager_of(parent.host)) {
        stats_.mirror_rpcs += rm->mirror_remove(path_child(parent.stored_path, name_copy));
      }
    }
    vht_.drop_subtree(path);
    return Unit{};
  });
  // Preserve the "may have executed" signal across a failed ladder (see
  // create()).
  if (!result.ok() && maybe_removed && is_error_retryable(result.error())) {
    return fail(span, nfs::NfsStat::kTimedOut);
  }
  return finish_span(span, result);
}

nfs::NfsResult<nfs::ReaddirReply> Koshad::readdir(VirtualHandle dir) {
  SpanScope span(tracer(), "koshad.readdir", host_);
  charge_interposition();
  return finish_span(
      span, with_handle(dir, [&](const Resolved& r) -> nfs::NfsResult<nfs::ReaddirReply> {
        note_forward(r.host);
        auto listing = client_.readdir(r.handle);
        if (!listing.ok()) return listing;
        nfs::ReaddirReply filtered;
        for (auto& e : listing->entries) {
          // Hide the replica area, migration flags, and raw salted
          // directories; present special links as the directories they
          // stand for.
          if (e.name == kReplicaArea || e.name == kMigrationFlag) continue;
          if (e.name.find(kSaltSeparator) != std::string::npos) continue;
          if (e.type == fs::FileType::kSymlink) e.type = fs::FileType::kDirectory;
          filtered.entries.push_back(std::move(e));
        }
        return filtered;
      }));
}

nfs::NfsResult<Unit> Koshad::rename(VirtualHandle from_dir, std::string_view from_name,
                                    VirtualHandle to_dir, std::string_view to_name) {
  SpanScope span(tracer(), "koshad.rename", host_);
  if (span.active()) span.tag("name", from_name);
  charge_interposition();
  if (!valid_user_name(to_name)) return fail(span, nfs::NfsStat::kInval);
  const VhEntry* from_entry = vht_.find(from_dir);
  const VhEntry* to_entry = vht_.find(to_dir);
  if (from_entry == nullptr || to_entry == nullptr) return fail(span, nfs::NfsStat::kStale);
  const std::string from_path = path_child(from_entry->path, from_name);
  const std::string to_path = path_child(to_entry->path, to_name);
  if (path_is_within(to_path, from_path)) return fail(span, nfs::NfsStat::kInval);
  if (from_path == to_path) return Unit{};
  const std::string to_parent_path = to_entry->path;
  const bool same_parent = from_entry->path == to_entry->path;
  const std::string from_copy(from_name);
  const std::string to_copy(to_name);

  // maybe_renamed: our direct RENAME RPC timed out after transmission — a
  // later ladder round finding the source gone and the destination present
  // must adopt that as our success (with the mirror bookkeeping the lost
  // reply would have triggered), not surface kNoEnt. copy_started: the
  // copy+delete path began materialising the destination — later rounds
  // must not mistake that partial copy for a pre-existing destination.
  bool maybe_renamed = false;
  bool copy_started = false;
  auto result = with_handle(from_dir, [&](const Resolved& from_parent) -> nfs::NfsResult<Unit> {
    const auto to_parent = resolve_path(to_parent_path, false);
    if (!to_parent.ok()) return to_parent.error();

    note_forward(from_parent.host);
    const auto looked = client_.lookup(from_parent.handle, from_copy);
    if (!looked.ok()) {
      if (looked.error() == nfs::NfsStat::kNoEnt) {
        if (maybe_renamed || copy_started) {
          // The move may already be complete: confirm the entry now lives
          // at the destination, then finish the bookkeeping.
          note_forward(to_parent->host);
          const auto moved = client_.lookup(to_parent->handle, to_copy);
          if (moved.ok()) {
            if (maybe_renamed) {
              // Direct rename: the constituent mirror update never ran.
              // (Copy+delete mirrors through its per-op bookkeeping.)
              if (ReplicaManager* rm = manager_of(from_parent.host)) {
                stats_.mirror_rpcs +=
                    rm->mirror_rename(path_child(from_parent.stored_path, from_copy),
                                      path_child(to_parent->stored_path, to_copy));
              }
            }
            vht_.drop_subtree(from_path);
            return Unit{};
          }
        }
        // Not adopted: the authoritative primary says the source is gone,
        // so reconcile any lingering replica copy of it (no-op when
        // already consistent) before surfacing kNoEnt.
        if (ReplicaManager* rm = manager_of(from_parent.host)) {
          stats_.mirror_rpcs +=
              rm->mirror_remove_recursive(path_child(from_parent.stored_path, from_copy));
        }
        vht_.drop_subtree(from_path);
      }
      return looked.error();
    }
    note_forward(to_parent->host);
    const auto existing = client_.lookup(to_parent->handle, to_copy);
    if (existing.ok() && !copy_started) return nfs::NfsStat::kExist;
    if (!existing.ok() && existing.error() != nfs::NfsStat::kNoEnt) return existing.error();

    const bool is_link = looked->attr.type == fs::FileType::kSymlink;

    if (is_link && same_parent) {
      // The cheap case from §4.1.4: rename only the link; the stored
      // directory keeps its (hashed) name, so DHT(hash(target)) still
      // holds and nothing moves.
      note_forward(from_parent.host);
      const auto renamed =
          client_.rename(from_parent.handle, from_copy, from_parent.handle, to_copy);
      if (!renamed.ok()) {
        if (renamed.error() == nfs::NfsStat::kTimedOut) maybe_renamed = true;
        return renamed.error();
      }
      if (ReplicaManager* rm = manager_of(from_parent.host)) {
        stats_.mirror_rpcs +=
            rm->mirror_rename(path_child(from_parent.stored_path, from_copy),
                              path_child(from_parent.stored_path, to_copy));
      }
      vht_.drop_subtree(from_path);
      return Unit{};
    }

    if (is_link) {
      // Moving a distributed directory across directories: copy to the new
      // location, then delete the old (paper §4.1.4).
      copy_started = true;
      if (const auto copied = copy_tree(from_dir, from_copy, to_dir, to_copy); !copied.ok()) {
        return copied.error();
      }
      return remove_tree(from_dir, from_copy);
    }

    if (from_parent.host == to_parent->host) {
      // Plain same-node rename (files and non-distributed directories).
      note_forward(from_parent.host);
      const auto renamed =
          client_.rename(from_parent.handle, from_copy, to_parent->handle, to_copy);
      if (!renamed.ok()) {
        if (renamed.error() == nfs::NfsStat::kTimedOut) maybe_renamed = true;
        return renamed.error();
      }
      if (ReplicaManager* rm = manager_of(from_parent.host)) {
        stats_.mirror_rpcs +=
            rm->mirror_rename(path_child(from_parent.stored_path, from_copy),
                              path_child(to_parent->stored_path, to_copy));
      }
      vht_.drop_subtree(from_path);
      return Unit{};
    }

    // Cross-node move: copy + delete.
    copy_started = true;
    if (const auto copied = copy_tree(from_dir, from_copy, to_dir, to_copy); !copied.ok()) {
      return copied.error();
    }
    if (looked->attr.type == fs::FileType::kFile) return remove(from_dir, from_copy);
    return remove_tree(from_dir, from_copy);
  });
  // Preserve the "may (partially) have executed" signal across a failed
  // ladder (see create()): a direct rename may have applied with its reply
  // lost, and an interrupted copy+delete has certainly materialised state.
  if (!result.ok() && (maybe_renamed || copy_started) && is_error_retryable(result.error())) {
    return fail(span, nfs::NfsStat::kTimedOut);
  }
  return finish_span(span, result);
}

// ---------------------------------------------------------------------------
// Recursive helpers for expensive renames
// ---------------------------------------------------------------------------

nfs::NfsResult<Unit> Koshad::copy_tree(VirtualHandle src_dir, std::string_view src_name,
                                       VirtualHandle dst_dir, std::string_view dst_name) {
  const auto src = lookup(src_dir, src_name);
  if (!src.ok()) return src.error();

  // A copy interrupted by a retryable failure is restarted from the top by
  // the enclosing rename ladder, so it can run into its own partial work.
  // The destination name was verified absent before the first attempt and
  // nothing else runs between rounds, so kExist here always means "ours":
  // adopt the existing object (truncating files) instead of failing.
  if (src->attr.type == fs::FileType::kFile) {
    auto dst = create(dst_dir, dst_name, src->attr.mode, src->attr.uid, src->attr.gid);
    if (!dst.ok() && dst.error() == nfs::NfsStat::kExist) {
      const auto prior = lookup(dst_dir, dst_name);
      if (!prior.ok()) return prior.error();
      if (prior->attr.type != fs::FileType::kFile) return nfs::NfsStat::kExist;
      const auto trunc = truncate(prior->handle, 0);
      if (!trunc.ok()) return trunc.error();
      dst = VhReply{prior->handle, trunc.value()};
    }
    if (!dst.ok()) return dst.error();
    constexpr std::uint32_t kChunk = 64 * 1024;
    std::uint64_t offset = 0;
    for (;;) {
      const auto chunk = read(src->handle, offset, kChunk);
      if (!chunk.ok()) return chunk.error();
      if (!chunk->data.empty()) {
        const auto written = write(dst->handle, offset, chunk->data);
        if (!written.ok()) return written.error();
        offset += chunk->data.size();
      }
      if (chunk->eof || chunk->data.empty()) break;
    }
    return Unit{};
  }

  auto dst = mkdir(dst_dir, dst_name, src->attr.mode, src->attr.uid, src->attr.gid);
  if (!dst.ok() && dst.error() == nfs::NfsStat::kExist) {
    const auto prior = lookup(dst_dir, dst_name);
    if (!prior.ok()) return prior.error();
    if (prior->attr.type != fs::FileType::kDirectory) return nfs::NfsStat::kExist;
    dst = prior.value();
  }
  if (!dst.ok()) return dst.error();
  const auto listing = readdir(src->handle);
  if (!listing.ok()) return listing.error();
  for (const auto& entry : listing->entries) {
    if (const auto copied = copy_tree(src->handle, entry.name, dst->handle, entry.name);
        !copied.ok()) {
      return copied.error();
    }
  }
  return Unit{};
}

nfs::NfsResult<Unit> Koshad::remove_tree(VirtualHandle dir, std::string_view name) {
  const auto target = lookup(dir, name);
  if (!target.ok()) return target.error();
  if (target->attr.type == fs::FileType::kFile) return remove(dir, name);
  const auto listing = readdir(target->handle);
  if (!listing.ok()) return listing.error();
  for (const auto& entry : listing->entries) {
    if (const auto removed = remove_tree(target->handle, entry.name); !removed.ok()) {
      return removed.error();
    }
  }
  return rmdir(dir, name);
}

}  // namespace kosha
