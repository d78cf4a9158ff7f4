#include "kosha/audit.hpp"

#include <algorithm>

#include "common/path.hpp"
#include "common/sha1.hpp"
#include "kosha/mount.hpp"
#include "kosha/placement.hpp"

namespace kosha {

namespace {

/// Structurally and byte-wise compare two subtrees; MIGRATION flag files
/// are ignored. Appends human-readable differences to `issues`.
void compare_trees(const fs::StorageBackend& a, const std::string& a_path, const fs::StorageBackend& b,
                   const std::string& b_path, const std::string& label,
                   std::vector<std::string>& issues) {
  const auto a_inode = a.resolve(a_path);
  const auto b_inode = b.resolve(b_path);
  if (!a_inode.ok() || !b_inode.ok()) {
    issues.push_back(label + ": missing side (" + a_path + " vs " + b_path + ")");
    return;
  }
  const auto a_attr = *a.getattr(*a_inode);
  const auto b_attr = *b.getattr(*b_inode);
  if (a_attr.type != b_attr.type) {
    issues.push_back(label + ": type mismatch at " + a_path);
    return;
  }
  switch (a_attr.type) {
    case fs::FileType::kFile: {
      const auto a_data = a.read(*a_inode, 0, static_cast<std::uint32_t>(a_attr.size));
      const auto b_data = b.read(*b_inode, 0, static_cast<std::uint32_t>(b_attr.size));
      if (!a_data.ok() || !b_data.ok() || a_data.value() != b_data.value()) {
        issues.push_back(label + ": content mismatch at " + a_path);
      }
      return;
    }
    case fs::FileType::kSymlink: {
      if (a.readlink(*a_inode).value() != b.readlink(*b_inode).value()) {
        issues.push_back(label + ": link target mismatch at " + a_path);
      }
      return;
    }
    case fs::FileType::kDirectory:
      break;
  }
  const auto a_entries = *a.readdir(*a_inode);
  const auto b_entries = *b.readdir(*b_inode);
  auto names = [](const std::vector<fs::DirEntry>& entries) {
    std::vector<std::string> out;
    for (const auto& e : entries) {
      if (e.name != kMigrationFlag) out.push_back(e.name);
    }
    return out;
  };
  const auto a_names = names(a_entries);
  const auto b_names = names(b_entries);
  if (a_names != b_names) {
    issues.push_back(label + ": directory listing mismatch at " + a_path);
    return;
  }
  for (const auto& name : a_names) {
    compare_trees(a, path_child(a_path, name), b, path_child(b_path, name), label, issues);
  }
}

/// Recursively resolve + read the whole virtual namespace.
void walk_namespace(KoshaMount& mount, const std::string& path,
                    std::vector<std::string>& issues, std::size_t* files) {
  const auto listing = mount.list(path);
  if (!listing.ok()) {
    issues.push_back("namespace: cannot list " + path + " (" +
                     nfs::to_string(listing.error()) + ")");
    return;
  }
  for (const auto& entry : listing.value()) {
    const std::string child = path_child(path, entry.name);
    if (entry.type == fs::FileType::kDirectory) {
      if (!mount.stat(child).ok()) {
        issues.push_back("namespace: special link does not resolve: " + child);
        continue;
      }
      walk_namespace(mount, child, issues, files);
    } else {
      if (!mount.read_file(child).ok()) {
        issues.push_back("namespace: unreadable file: " + child);
      } else {
        ++*files;
      }
    }
  }
}

/// Absorb one token followed by a NUL separator (keeps "ab"+"c" distinct
/// from "a"+"bc").
void absorb(Sha1& sha, std::string_view token) {
  sha.update(token);
  sha.update(std::string_view("\0", 1));
}

/// Depth-first walk of a store subtree in sorted entry order (readdir is
/// backed by a std::map), absorbing every attribute that defines durable
/// state. mtime is deliberately excluded: it is a logical counter whose
/// value depends on operation interleaving, not on the final contents.
void absorb_tree(Sha1& sha, const fs::StorageBackend& store, const std::string& path) {
  const auto inode = store.resolve(path);
  if (!inode.ok()) return;
  const auto attr = store.getattr(*inode);
  if (!attr.ok()) return;
  absorb(sha, path);
  absorb(sha, std::to_string(static_cast<int>(attr->type)));
  absorb(sha, std::to_string(attr->mode));
  absorb(sha, std::to_string(attr->uid));
  absorb(sha, std::to_string(attr->size));
  switch (attr->type) {
    case fs::FileType::kFile: {
      const auto data = store.read(*inode, 0, static_cast<std::uint32_t>(attr->size));
      if (data.ok()) absorb(sha, data.value());
      return;
    }
    case fs::FileType::kSymlink: {
      const auto target = store.readlink(*inode);
      if (target.ok()) absorb(sha, target.value());
      return;
    }
    case fs::FileType::kDirectory:
      break;
  }
  const auto entries = store.readdir(*inode);
  if (!entries.ok()) return;
  for (const auto& entry : entries.value()) {
    absorb_tree(sha, store, path_child(path, entry.name));
  }
}

}  // namespace

std::string AuditReport::to_string() const {
  if (clean()) return "audit clean";
  std::string out = "audit found " + std::to_string(issues.size()) + " issue(s):\n";
  for (const auto& issue : issues) out += "  " + issue + "\n";
  return out;
}

AuditReport audit_cluster(KoshaCluster& cluster, net::HostId client_host) {
  AuditReport report;
  auto& overlay = cluster.overlay();

  for (const net::HostId host : cluster.live_hosts()) {
    const auto& rm = cluster.replicas(host);
    auto& store = cluster.server(host).store();

    // 1. Registered anchors exist here and this node owns their keys.
    for (const auto& [anchor, effective] : rm.primaries()) {
      if (!store.resolve(anchor).ok()) {
        report.issues.push_back("host " + std::to_string(host) +
                                ": registered anchor missing on disk: " + anchor);
      }
      const auto owner = overlay.ring().owner(key_for_name(effective));
      if (owner != cluster.node_id(host)) {
        report.issues.push_back("host " + std::to_string(host) +
                                ": not the ring owner of anchor " + anchor + " (name '" +
                                effective + "')");
      }

      // 3. Every replica target holds an identical copy.
      for (const auto target : rm.targets()) {
        if (!overlay.is_live(target)) {
          report.issues.push_back("host " + std::to_string(host) +
                                  ": dead replica target for " + anchor);
          continue;
        }
        const net::HostId target_host = overlay.host_of(target);
        auto& target_store = cluster.server(target_host).store();
        const std::string hidden = ReplicaManager::hidden_root(cluster.node_id(host));
        if (target_store.resolve(path_child(hidden, kMigrationFlag)).ok()) {
          continue;  // migration in progress: divergence is expected
        }
        compare_trees(store, anchor, target_store, hidden + anchor,
                      "replica of " + anchor + " on host " + std::to_string(target_host),
                      report.issues);
      }
    }

    // 4. Byte accounting is internally consistent.
    const auto recomputed = store.subtree_bytes(store.root());
    if (recomputed != store.used_bytes()) {
      report.issues.push_back("host " + std::to_string(host) + ": used_bytes " +
                              std::to_string(store.used_bytes()) + " != recomputed " +
                              std::to_string(recomputed));
    }
  }

  // 2. The full namespace resolves from a fresh client walk.
  KoshaMount mount(&cluster.daemon(client_host));
  std::size_t files = 0;
  walk_namespace(mount, "/", report.issues, &files);

  return report;
}

std::string audit_digest(KoshaCluster& cluster) {
  Sha1 sha;
  for (const net::HostId host : cluster.live_hosts()) {
    absorb(sha, "host:" + std::to_string(host));
    absorb_tree(sha, cluster.server(host).store(), "/");
  }
  return to_hex(sha.digest());
}

}  // namespace kosha
