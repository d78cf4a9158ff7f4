// koshad — path resolution and placement (paper §3, §4.1).
//
// The resolution half of the daemon: walking virtual paths to their
// storage nodes (directory-name hashing through Pastry, following special
// links for distributed/redirected directories), the remote lookup/mkdir
// walks that run against a storage node's NFS server, capacity-redirected
// placement of new distributed directories, and scaffolding cleanup.
// Request handlers live in koshad.cpp; the failover ladder in
// koshad_failover.cpp.

#include "kosha/koshad.hpp"

#include "common/metrics.hpp"
#include "common/path.hpp"
#include "kosha/placement.hpp"

namespace kosha {

pastry::RouteResult Koshad::route(pastry::Key key) {
  const auto result = runtime_->overlay->route(host_, key);
  // Resolution is the one foreground waiter on a route: it waits out the
  // route's wire time. Background routes (replica reconciliation) only
  // count their traffic.
  runtime_->clock->advance(result.cost);
  ++stats_.dht_lookups;
  stats_.dht_hops += result.hops;
  if (route_hops_hist_ != nullptr) route_hops_hist_->record(static_cast<double>(result.hops));
  return result;
}

net::HostId Koshad::host_of(pastry::NodeId node) const {
  return runtime_->overlay->host_of(node);
}

nfs::NfsResult<Koshad::Resolved> Koshad::resolve_path(const std::string& path, bool fresh) {
  if (!fresh) {
    if (const auto vh = vht_.find_by_path(path)) {
      const VhEntry* entry = vht_.find(*vh);
      return Resolved{entry->real.server, entry->real, entry->stored_path, entry->type};
    }
  }
  if (path == "/") {
    const auto owner = route(root_key());
    const net::HostId host = host_of(owner.owner);
    const std::string stored = root_stored_path();
    const auto handle = remote_lookup_path(host, stored);
    if (!handle.ok()) return handle.error();
    vht_.bind("/", stored, handle->handle, fs::FileType::kDirectory);
    return Resolved{host, handle->handle, stored, fs::FileType::kDirectory};
  }
  const auto parent = resolve_path(path_parent(path), fresh);
  if (!parent.ok()) return parent.error();
  return resolve_entry(*parent, path, path_basename(path), fresh);
}

nfs::NfsResult<Koshad::Resolved> Koshad::resolve_entry(const Resolved& parent,
                                                       const std::string& path,
                                                       std::string_view name, bool fresh) {
  (void)fresh;
  note_forward(parent.host);
  const auto looked = client_.lookup(parent.handle, name);
  if (!looked.ok()) return looked.error();

  if (looked->attr.type == fs::FileType::kSymlink) {
    // Special link: the directory is distributed; its target is the
    // effective (possibly salted) name to hash (paper §3.3).
    note_forward(parent.host);
    const auto target = client_.readlink(looked->handle);
    if (!target.ok()) return target.error();
    const std::string& effective = target.value();

    const auto owner = route(key_for_name(effective));
    const net::HostId host = host_of(owner.owner);
    const auto components = split_path(path);
    const std::string stored =
        stored_path(components, static_cast<unsigned>(components.size()), effective);
    const auto handle = remote_lookup_path(host, stored);
    if (!handle.ok()) return handle.error();
    vht_.bind(path, stored, handle->handle, handle->attr.type);
    return Resolved{host, handle->handle, stored, handle->attr.type, handle->attr};
  }

  const std::string stored = path_child(parent.stored_path, name);
  vht_.bind(path, stored, looked->handle, looked->attr.type);
  return Resolved{parent.host, looked->handle, stored, looked->attr.type, looked->attr};
}

nfs::NfsResult<nfs::HandleReply> Koshad::remote_lookup_path(net::HostId host,
                                                            const std::string& stored_path) {
  // "Kosha looks up the entire path on R, as if it is an NFS client of R"
  // (paper §4.1.3).
  note_forward(host);
  const auto root = client_.mount(host);
  if (!root.ok()) return root.error();
  nfs::HandleReply current{*root, {}};
  current.attr.type = fs::FileType::kDirectory;
  for (const auto& component : split_path(stored_path)) {
    note_forward(host);
    const auto next = client_.lookup(current.handle, component);
    if (!next.ok()) return next.error();
    current = next.value();
  }
  return current;
}

nfs::NfsResult<nfs::HandleReply> Koshad::remote_mkdir_p(net::HostId host,
                                                        const std::string& stored_path,
                                                        std::uint32_t leaf_mode,
                                                        std::uint32_t leaf_uid,
                                                        std::uint32_t leaf_gid) {
  note_forward(host);
  const auto root = client_.mount(host);
  if (!root.ok()) return root.error();
  nfs::HandleReply current{*root, {}};
  current.attr.type = fs::FileType::kDirectory;
  const auto components = split_path(stored_path);
  for (std::size_t i = 0; i < components.size(); ++i) {
    const bool leaf = i + 1 == components.size();
    note_forward(host);
    auto next = client_.lookup(current.handle, components[i]);
    if (!next.ok()) {
      if (next.error() != nfs::NfsStat::kNoEnt) return next.error();
      note_forward(host);
      // Scaffolding directories get defaults; the caller's attributes
      // apply to the directory being created.
      next = leaf ? client_.mkdir(current.handle, components[i], leaf_mode, leaf_uid, leaf_gid)
                  : client_.mkdir(current.handle, components[i]);
      if (!next.ok()) return next.error();
    }
    current = next.value();
  }
  return current;
}

void Koshad::prune_scaffolding(net::HostId host, std::string cursor, ReplicaManager* rm) {
  // Prune now-empty scaffolding bottom-up, container included, but stop at
  // a directory still used by a colliding same-name anchor (paper §4.1.5).
  // Best-effort: any error simply leaves the remaining scaffolding behind.
  while (path_depth(cursor) >= 2) {  // never remove /.a itself
    const auto cursor_handle = remote_lookup_path(host, cursor);
    if (!cursor_handle.ok()) break;
    note_forward(host);
    const auto cursor_listing = client_.readdir(cursor_handle->handle);
    if (!cursor_listing.ok() || !cursor_listing->entries.empty()) break;
    const auto up = remote_lookup_path(host, path_parent(cursor));
    if (!up.ok()) break;
    note_forward(host);
    if (!client_.rmdir(up->handle, path_basename(cursor)).ok()) break;
    if (rm != nullptr) stats_.mirror_rpcs += rm->mirror_rmdir(cursor);
    cursor = path_parent(cursor);
  }
}

nfs::NfsResult<std::pair<pastry::NodeId, std::string>> Koshad::place_directory(
    std::string_view name) {
  // Iterative salted redirection (paper §3.3): rehash with a salt until a
  // node below the utilization threshold is found or retries run out.
  for (unsigned salt = 0; salt <= runtime_->config.max_redirects; ++salt) {
    const std::string effective = salted_name(name, salt);
    const auto owner = route(key_for_name(effective));
    const net::HostId host = host_of(owner.owner);
    note_forward(host);
    const auto stat = client_.fsstat(host);
    if (stat.ok() && stat->utilization < runtime_->config.redirect_threshold) {
      return std::make_pair(owner.owner, effective);
    }
    ++stats_.redirects;
  }
  return nfs::NfsStat::kNoSpace;
}

}  // namespace kosha
