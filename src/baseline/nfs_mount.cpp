#include "baseline/nfs_mount.hpp"

#include "common/path.hpp"

namespace kosha::baseline {

NfsMount::NfsMount(net::SimNetwork* network, const nfs::ServerDirectory* directory,
                   net::HostId client, net::HostId server)
    : client_(network, directory, client), server_(server) {}

void NfsMount::invalidate(const std::string& path) {
  // kosha-lint: allow(unordered-iter): erase-sweep — survivors independent of visit order
  for (auto it = handle_cache_.begin(); it != handle_cache_.end();) {
    if (path_is_within(it->first, path)) {
      it = handle_cache_.erase(it);
    } else {
      ++it;
    }
  }
}

nfs::NfsResult<nfs::FileHandle> NfsMount::lookup_cached(const std::string& path) {
  if (const auto it = handle_cache_.find(path); it != handle_cache_.end()) return it->second;
  if (path == "/") {
    const auto root = client_.mount(server_);
    if (!root.ok()) return root;
    handle_cache_["/"] = root.value();
    return root;
  }
  const auto parent = lookup_cached(path_parent(path));
  if (!parent.ok()) return parent;
  const auto looked = client_.lookup(*parent, path_basename(path));
  if (!looked.ok()) return looked.error();
  handle_cache_[path] = looked->handle;
  return looked->handle;
}

nfs::NfsResult<nfs::FileHandle> NfsMount::resolve(std::string_view path) {
  return lookup_cached(normalize_path(path));
}

nfs::NfsResult<nfs::FileHandle> NfsMount::mkdir_p(std::string_view path) {
  auto current = lookup_cached("/");
  if (!current.ok()) return current;
  std::string prefix;
  for (const auto& component : split_path(path)) {
    prefix += '/';
    prefix += component;
    auto next = client_.lookup(*current, component);
    if (!next.ok()) {
      if (next.error() != nfs::NfsStat::kNoEnt) return next.error();
      next = client_.mkdir(*current, component);
      if (!next.ok()) return next.error();
    }
    handle_cache_[prefix] = next->handle;
    current = next->handle;
  }
  return current;
}

nfs::NfsResult<Unit> NfsMount::write_file(std::string_view path, std::string_view content) {
  const std::string normalized = normalize_path(path);
  const auto parent = lookup_cached(path_parent(normalized));
  if (!parent.ok()) return parent.error();
  const std::string name = path_basename(normalized);

  auto file = client_.lookup(*parent, name);
  nfs::FileHandle handle;
  if (file.ok()) {
    handle = file->handle;
    if (const auto truncated = client_.truncate(handle, 0); !truncated.ok()) {
      return truncated.error();
    }
  } else if (file.error() == nfs::NfsStat::kNoEnt) {
    const auto created = client_.create(*parent, name);
    if (!created.ok()) return created.error();
    handle = created->handle;
  } else {
    return file.error();
  }
  handle_cache_[normalized] = handle;
  const auto written = client_.write(handle, 0, fs::Bytes(content));
  if (!written.ok()) return written.error();
  return Unit{};
}

nfs::NfsResult<fs::Bytes> NfsMount::read_file(std::string_view path) {
  const auto handle = resolve(path);
  if (!handle.ok()) return handle.error();
  // On the flat backend each READ slices the inode's buffer, so the slices
  // of an unchanged file are adjacent and append only widens the view.
  fs::Bytes out;
  constexpr std::uint32_t kChunk = 64 * 1024;
  for (;;) {
    const auto chunk = client_.read(*handle, out.size(), kChunk);
    if (!chunk.ok()) return chunk.error();
    out.append(chunk->data);
    if (chunk->eof || chunk->data.empty()) break;
  }
  return out;
}

nfs::NfsResult<fs::Attr> NfsMount::stat(std::string_view path) {
  const auto handle = resolve(path);
  if (!handle.ok()) return handle.error();
  auto attr = client_.getattr(*handle);
  if (!attr.ok() && attr.error() == nfs::NfsStat::kStale) {
    // Stale cached handle (file replaced behind our back): revalidate.
    invalidate(normalize_path(path));
    const auto fresh = resolve(path);
    if (!fresh.ok()) return fresh.error();
    attr = client_.getattr(*fresh);
  }
  return attr;
}

bool NfsMount::exists(std::string_view path) { return stat(path).ok(); }

nfs::NfsResult<std::vector<fs::DirEntry>> NfsMount::list(std::string_view path) {
  const auto handle = resolve(path);
  if (!handle.ok()) return handle.error();
  const auto listing = client_.readdir(*handle);
  if (!listing.ok()) return listing.error();
  return listing->entries;
}

nfs::NfsResult<Unit> NfsMount::remove(std::string_view path) {
  const std::string normalized = normalize_path(path);
  const auto parent = lookup_cached(path_parent(normalized));
  if (!parent.ok()) return parent.error();
  const auto removed = client_.remove(*parent, path_basename(normalized));
  if (!removed.ok()) return removed.error();
  invalidate(normalized);
  return Unit{};
}

nfs::NfsResult<Unit> NfsMount::rmdir(std::string_view path) {
  const std::string normalized = normalize_path(path);
  const auto parent = lookup_cached(path_parent(normalized));
  if (!parent.ok()) return parent.error();
  const auto removed = client_.rmdir(*parent, path_basename(normalized));
  if (!removed.ok()) return removed.error();
  invalidate(normalized);
  return Unit{};
}

nfs::NfsResult<Unit> NfsMount::remove_all(std::string_view path) {
  const auto attr = stat(path);
  if (!attr.ok()) return attr.error();
  if (attr->type == fs::FileType::kDirectory) {
    const auto listing = list(path);
    if (!listing.ok()) return listing.error();
    for (const auto& entry : listing.value()) {
      const auto removed = remove_all(path_child(path, entry.name));
      if (!removed.ok()) return removed;
    }
    return rmdir(path);
  }
  return remove(path);
}

nfs::NfsResult<Unit> NfsMount::rename(std::string_view from, std::string_view to) {
  const std::string from_norm = normalize_path(from);
  const std::string to_norm = normalize_path(to);
  const auto from_parent = lookup_cached(path_parent(from_norm));
  if (!from_parent.ok()) return from_parent.error();
  const auto to_parent = lookup_cached(path_parent(to_norm));
  if (!to_parent.ok()) return to_parent.error();
  const auto renamed = client_.rename(*from_parent, path_basename(from_norm), *to_parent,
                                      path_basename(to_norm));
  if (!renamed.ok()) return renamed.error();
  invalidate(from_norm);
  return Unit{};
}

}  // namespace kosha::baseline
