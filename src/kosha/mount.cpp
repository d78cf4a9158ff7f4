#include "kosha/mount.hpp"

#include "common/metrics.hpp"
#include "common/path.hpp"
#include "common/tracing.hpp"

namespace kosha {

/// Per-operation instrumentation at the POSIX/mount seam — where a client
/// operation begins, so this is where traces are minted. Opens a root span
/// named after the op (e.g. "mount.write_file") tagged with the path, and
/// records the operation's virtual-clock latency into `<op>.latency_us`.
/// Inert (no allocation, no clock reads) when observability is off.
struct KoshaMount::Op {
  /// Span and histogram-prefix names, in OpKind order.
  static constexpr std::array<const char*, static_cast<std::size_t>(OpKind::kCount)> kNames = {
      "mount.resolve",     // kResolve
      "mount.mkdir_p",     // kMkdirP
      "mount.write_file",  // kWriteFile
      "mount.read_file",   // kReadFile
      "mount.stat",        // kStat
      "mount.list",        // kList
      "mount.remove",      // kRemove
      "mount.rmdir",       // kRmdir
      "mount.remove_all",  // kRemoveAll
      "mount.rename",      // kRename
  };

  Op(KoshaMount& mount, OpKind kind, std::string_view path)
      : clock(mount.daemon_->runtime().clock),
        hist(latency_slot(mount, kind)),
        span(mount.daemon_->runtime().tracer, kNames[static_cast<std::size_t>(kind)],
             mount.daemon_->host()),
        start(hist == nullptr ? SimDuration{} : clock->now()) {
    if (span.active()) span.tag("path", path);
  }

  static Histogram* latency_slot(KoshaMount& mount, OpKind kind) {
    MetricsRegistry* metrics = mount.daemon_->runtime().metrics;
    if (metrics == nullptr) return nullptr;
    const auto k = static_cast<std::size_t>(kind);
    Histogram*& slot = mount.op_latency_[k];
    if (slot == nullptr) slot = metrics->histogram(std::string(kNames[k]) + ".latency_us");
    return slot;
  }

  template <typename R>
  R finish(R result) {
    if (hist != nullptr) hist->record((clock->now() - start).to_micros());
    if (!result.ok()) span.status(nfs::to_string(result.error()));
    return result;
  }

  SimClock* clock;
  Histogram* hist;
  SpanScope span;
  SimDuration start;
};

void KoshaMount::invalidate(std::string_view path) {
  const std::string normalized = normalize_path(path);
  // kosha-lint: allow(unordered-iter): erase-sweep — survivors independent of visit order
  for (auto it = handle_cache_.begin(); it != handle_cache_.end();) {
    if (path_is_within(it->first, normalized)) {
      it = handle_cache_.erase(it);
    } else {
      ++it;
    }
  }
}

nfs::NfsResult<VirtualHandle> KoshaMount::resolve(std::string_view path) {
  const std::string normalized = normalize_path(path);
  if (const auto it = handle_cache_.find(normalized); it != handle_cache_.end()) {
    return it->second;
  }
  Op op(*this, OpKind::kResolve, path);
  auto current = daemon_->root();
  if (!current.ok()) return op.finish(current);
  std::string prefix;
  for (const auto& component : split_path(normalized)) {
    prefix += '/';
    prefix += component;
    const auto next = daemon_->lookup(*current, component);
    if (!next.ok()) return op.finish(nfs::NfsResult<VirtualHandle>(next.error()));
    handle_cache_[prefix] = next->handle;
    current = next->handle;
  }
  return op.finish(current);
}

nfs::NfsResult<std::pair<VirtualHandle, std::string>> KoshaMount::parent_of(
    std::string_view path) {
  const std::string normalized = normalize_path(path);
  if (normalized.empty() || normalized == "/") return nfs::NfsStat::kInval;
  const auto parent = resolve(path_parent(normalized));
  if (!parent.ok()) return parent.error();
  return std::make_pair(*parent, path_basename(normalized));
}

nfs::NfsResult<VirtualHandle> KoshaMount::mkdir_p(std::string_view path) {
  Op op(*this, OpKind::kMkdirP, path);
  return op.finish(mkdir_p_impl(path));
}

nfs::NfsResult<VirtualHandle> KoshaMount::mkdir_p_impl(std::string_view path) {
  auto current = daemon_->root();
  if (!current.ok()) return current;
  std::string prefix;
  for (const auto& component : split_path(path)) {
    prefix += '/';
    prefix += component;
    if (const auto it = handle_cache_.find(prefix); it != handle_cache_.end()) {
      current = it->second;
      continue;
    }
    auto next = daemon_->lookup(*current, component);
    if (next.ok()) {
      if (next->attr.type != fs::FileType::kDirectory) return nfs::NfsStat::kNotDir;
      handle_cache_[prefix] = next->handle;
      current = next->handle;
      continue;
    }
    if (next.error() != nfs::NfsStat::kNoEnt) return next.error();
    const auto made = daemon_->mkdir(*current, component);
    if (!made.ok()) return made.error();
    handle_cache_[prefix] = made->handle;
    current = made->handle;
  }
  return current;
}

nfs::NfsResult<Unit> KoshaMount::write_file(std::string_view path, std::string_view content) {
  Op op(*this, OpKind::kWriteFile, path);
  return op.finish(write_file_impl(path, content));
}

nfs::NfsResult<Unit> KoshaMount::write_file_impl(std::string_view path,
                                                 std::string_view content) {
  const auto parent = parent_of(path);
  if (!parent.ok()) return parent.error();
  const auto& [dir, name] = parent.value();

  auto file = daemon_->lookup(dir, name);
  if (!file.ok()) {
    if (file.error() != nfs::NfsStat::kNoEnt) return file.error();
    file = daemon_->create(dir, name);
    if (!file.ok()) return file.error();
  } else if (file->attr.type != fs::FileType::kFile) {
    return nfs::NfsStat::kIsDir;
  } else if (const auto truncated = daemon_->truncate(file->handle, 0); !truncated.ok()) {
    return truncated.error();
  }
  handle_cache_[normalize_path(path)] = file->handle;
  // The one copy of the content: koshad, the WRITE call, the primary and
  // every mirror share this buffer.
  const auto written = daemon_->write(file->handle, 0, fs::Bytes(content));
  if (!written.ok()) return written.error();
  return Unit{};
}

nfs::NfsResult<fs::Bytes> KoshaMount::read_file(std::string_view path) {
  Op op(*this, OpKind::kReadFile, path);
  return op.finish(read_file_impl(path));
}

nfs::NfsResult<fs::Bytes> KoshaMount::read_file_impl(std::string_view path) {
  const auto file = resolve(path);
  if (!file.ok()) return file.error();
  // On the flat backend each READ slices the inode's buffer, so the slices
  // of an unchanged file are adjacent and append only widens the view.
  fs::Bytes out;
  constexpr std::uint32_t kChunk = 64 * 1024;
  for (;;) {
    const auto chunk = daemon_->read(*file, out.size(), kChunk);
    if (!chunk.ok()) return chunk.error();
    out.append(chunk->data);
    if (chunk->eof || chunk->data.empty()) break;
  }
  return out;
}

nfs::NfsResult<fs::Attr> KoshaMount::stat(std::string_view path) {
  Op op(*this, OpKind::kStat, path);
  return op.finish(stat_impl(path));
}

nfs::NfsResult<fs::Attr> KoshaMount::stat_impl(std::string_view path) {
  const auto handle = resolve(path);
  if (!handle.ok()) return handle.error();
  auto attr = daemon_->getattr(*handle);
  if (!attr.ok() && attr.error() == nfs::NfsStat::kStale) {
    // The cached dentry pointed at a removed object: revalidate from
    // scratch, like the kernel's NFS client would.
    invalidate(path);
    const auto fresh = resolve(path);
    if (!fresh.ok()) return fresh.error();
    attr = daemon_->getattr(*fresh);
  }
  return attr;
}

bool KoshaMount::exists(std::string_view path) { return stat(path).ok(); }

nfs::NfsResult<std::vector<fs::DirEntry>> KoshaMount::list(std::string_view path) {
  Op op(*this, OpKind::kList, path);
  const auto handle = resolve(path);
  if (!handle.ok()) return op.finish(nfs::NfsResult<std::vector<fs::DirEntry>>(handle.error()));
  const auto listing = daemon_->readdir(*handle);
  if (!listing.ok()) return op.finish(nfs::NfsResult<std::vector<fs::DirEntry>>(listing.error()));
  return op.finish(nfs::NfsResult<std::vector<fs::DirEntry>>(listing->entries));
}

nfs::NfsResult<Unit> KoshaMount::remove(std::string_view path) {
  Op op(*this, OpKind::kRemove, path);
  const auto parent = parent_of(path);
  if (!parent.ok()) return op.finish(nfs::NfsResult<Unit>(parent.error()));
  invalidate(path);
  return op.finish(daemon_->remove(parent->first, parent->second));
}

nfs::NfsResult<Unit> KoshaMount::rmdir(std::string_view path) {
  Op op(*this, OpKind::kRmdir, path);
  const auto parent = parent_of(path);
  if (!parent.ok()) return op.finish(nfs::NfsResult<Unit>(parent.error()));
  invalidate(path);
  return op.finish(daemon_->rmdir(parent->first, parent->second));
}

nfs::NfsResult<Unit> KoshaMount::remove_all(std::string_view path) {
  Op op(*this, OpKind::kRemoveAll, path);
  const auto parent = parent_of(path);
  if (!parent.ok()) return op.finish(nfs::NfsResult<Unit>(parent.error()));
  invalidate(path);
  return op.finish(daemon_->remove_tree(parent->first, parent->second));
}

nfs::NfsResult<Unit> KoshaMount::rename(std::string_view from, std::string_view to) {
  Op op(*this, OpKind::kRename, from);
  const auto from_parent = parent_of(from);
  if (!from_parent.ok()) return op.finish(nfs::NfsResult<Unit>(from_parent.error()));
  const auto to_parent = parent_of(to);
  if (!to_parent.ok()) return op.finish(nfs::NfsResult<Unit>(to_parent.error()));
  invalidate(from);
  invalidate(to);
  return op.finish(daemon_->rename(from_parent->first, from_parent->second, to_parent->first,
                                   to_parent->second));
}

}  // namespace kosha
