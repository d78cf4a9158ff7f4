#include "fs/local_fs.hpp"

#include "common/path.hpp"

namespace kosha::fs {

LocalFs::LocalFs(FsConfig config) : config_(config) {
  static_assert(sizeof(Inode) <= 88, "an inode slot carries one payload");
  Inode root;
  root.allocated = true;
  root.type = FileType::kDirectory;
  root.mode = 0755;
  root.generation = 1;
  root.payload.emplace<Entries>();
  inodes_.push_back(std::move(root));
  live_inodes_ = 1;
}

const LocalFs::Inode* LocalFs::get(InodeId id) const {
  if (id == kInvalidInode || id > inodes_.size()) return nullptr;
  const Inode& node = inodes_[id - 1];
  return node.allocated ? &node : nullptr;
}

LocalFs::Inode* LocalFs::get(InodeId id) {
  return const_cast<Inode*>(static_cast<const LocalFs*>(this)->get(id));
}

InodeId LocalFs::allocate(FileType type, std::uint32_t mode, std::uint32_t uid,
                          std::uint32_t gid) {
  InodeId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    inodes_.emplace_back();
    id = inodes_.size();
  }
  Inode& node = inodes_[id - 1];
  const std::uint64_t generation = node.generation + 1;
  node = Inode{};
  node.allocated = true;
  node.type = type;
  node.mode = mode;
  node.uid = uid;
  node.gid = gid;
  node.generation = generation;
  if (type == FileType::kDirectory) node.payload.emplace<Entries>();
  node.mtime = ++mtime_counter_;
  ++live_inodes_;
  return id;
}

void LocalFs::release(InodeId id) {
  Inode& node = inodes_[id - 1];
  used_bytes_ -= node.type == FileType::kFile ? node.data().size() : 0;
  const std::uint64_t generation = node.generation;
  node = Inode{};
  node.generation = generation;  // preserved so stale handles stay stale
  free_list_.push_back(id);
  --live_inodes_;
}

bool LocalFs::valid_name(std::string_view name) {
  return !name.empty() && name != "." && name != ".." &&
         name.find('/') == std::string_view::npos;
}

bool LocalFs::would_exceed(std::uint64_t extra) const {
  const double limit =
      static_cast<double>(config_.capacity_bytes) * config_.utilization_threshold;
  return static_cast<double>(used_bytes_ + extra) > limit;
}

FsResult<InodeId> LocalFs::lookup(InodeId dir, std::string_view name) const {
  const Inode* d = get(dir);
  if (d == nullptr) return FsStatus::kStale;
  if (d->type != FileType::kDirectory) return FsStatus::kNotDir;
  const auto it = d->entries().find(name);
  if (it == d->entries().end()) return FsStatus::kNoEnt;
  return it->second;
}

FsResult<InodeId> LocalFs::create(InodeId dir, std::string_view name, std::uint32_t mode,
                                  std::uint32_t uid, std::uint32_t gid) {
  Inode* d = get(dir);
  if (d == nullptr) return FsStatus::kStale;
  if (d->type != FileType::kDirectory) return FsStatus::kNotDir;
  if (!valid_name(name)) return FsStatus::kInval;
  if (d->entries().contains(name)) return FsStatus::kExist;
  const InodeId id = allocate(FileType::kFile, mode, uid, gid);
  d = get(dir);  // allocate() may have reallocated the inode table
  d->entries().emplace(name, id);
  d->mtime = ++mtime_counter_;
  return id;
}

FsResult<InodeId> LocalFs::mkdir(InodeId dir, std::string_view name, std::uint32_t mode,
                                 std::uint32_t uid, std::uint32_t gid) {
  Inode* d = get(dir);
  if (d == nullptr) return FsStatus::kStale;
  if (d->type != FileType::kDirectory) return FsStatus::kNotDir;
  if (!valid_name(name)) return FsStatus::kInval;
  if (d->entries().contains(name)) return FsStatus::kExist;
  const InodeId id = allocate(FileType::kDirectory, mode, uid, gid);
  d = get(dir);  // allocate() may have reallocated the inode table
  d->entries().emplace(name, id);
  d->mtime = ++mtime_counter_;
  return id;
}

FsResult<InodeId> LocalFs::symlink(InodeId dir, std::string_view name,
                                   std::string_view target) {
  Inode* d = get(dir);
  if (d == nullptr) return FsStatus::kStale;
  if (d->type != FileType::kDirectory) return FsStatus::kNotDir;
  if (!valid_name(name)) return FsStatus::kInval;
  if (d->entries().contains(name)) return FsStatus::kExist;
  const InodeId id = allocate(FileType::kSymlink, 0777, 0, 0);
  d = get(dir);  // allocate() may have reallocated the inode table
  inodes_[id - 1].data() = Bytes(target);
  d->entries().emplace(name, id);
  d->mtime = ++mtime_counter_;
  return id;
}

FsResult<Unit> LocalFs::remove(InodeId dir, std::string_view name) {
  Inode* d = get(dir);
  if (d == nullptr) return FsStatus::kStale;
  if (d->type != FileType::kDirectory) return FsStatus::kNotDir;
  const auto it = d->entries().find(name);
  if (it == d->entries().end()) return FsStatus::kNoEnt;
  const Inode* target = get(it->second);
  if (target != nullptr && target->type == FileType::kDirectory) return FsStatus::kIsDir;
  release(it->second);
  d->entries().erase(it);
  d->mtime = ++mtime_counter_;
  return Unit{};
}

FsResult<Unit> LocalFs::rmdir(InodeId dir, std::string_view name) {
  Inode* d = get(dir);
  if (d == nullptr) return FsStatus::kStale;
  if (d->type != FileType::kDirectory) return FsStatus::kNotDir;
  const auto it = d->entries().find(name);
  if (it == d->entries().end()) return FsStatus::kNoEnt;
  const Inode* target = get(it->second);
  if (target == nullptr || target->type != FileType::kDirectory) return FsStatus::kNotDir;
  if (!target->entries().empty()) return FsStatus::kNotEmpty;
  release(it->second);
  d->entries().erase(it);
  d->mtime = ++mtime_counter_;
  return Unit{};
}

FsResult<Unit> LocalFs::rename(InodeId from_dir, std::string_view from_name, InodeId to_dir,
                               std::string_view to_name) {
  Inode* fd = get(from_dir);
  Inode* td = get(to_dir);
  if (fd == nullptr || td == nullptr) return FsStatus::kStale;
  if (fd->type != FileType::kDirectory || td->type != FileType::kDirectory) {
    return FsStatus::kNotDir;
  }
  if (!valid_name(to_name)) return FsStatus::kInval;
  const auto it = fd->entries().find(from_name);
  if (it == fd->entries().end()) return FsStatus::kNoEnt;
  const InodeId moving = it->second;

  const auto dst = td->entries().find(to_name);
  if (dst != td->entries().end()) {
    if (dst->second == moving) return Unit{};  // no-op rename onto itself
    // POSIX semantics: replace a non-directory target; refuse directories
    // (keeps the simulation simple; Kosha never renames onto a directory).
    const Inode* existing = get(dst->second);
    if (existing != nullptr && existing->type == FileType::kDirectory) {
      return FsStatus::kIsDir;
    }
    release(dst->second);
    td->entries().erase(dst);
  }
  fd->entries().erase(it);
  td->entries().emplace(to_name, moving);
  fd->mtime = ++mtime_counter_;
  td->mtime = ++mtime_counter_;
  return Unit{};
}

FsResult<std::vector<DirEntry>> LocalFs::readdir(InodeId dir) const {
  const Inode* d = get(dir);
  if (d == nullptr) return FsStatus::kStale;
  if (d->type != FileType::kDirectory) return FsStatus::kNotDir;
  std::vector<DirEntry> out;
  out.reserve(d->entries().size());
  for (const auto& [name, inode] : d->entries()) {
    const Inode* child = get(inode);
    out.push_back({name, inode, child != nullptr ? child->type : FileType::kFile});
  }
  return out;
}

FsResult<Attr> LocalFs::getattr(InodeId inode) const {
  const Inode* n = get(inode);
  if (n == nullptr) return FsStatus::kStale;
  Attr a;
  a.type = n->type;
  a.mode = n->mode;
  a.uid = n->uid;
  a.gid = n->gid;
  a.size = n->type == FileType::kDirectory ? n->entries().size()
           : n->type == FileType::kFile     ? file_content_bytes(inode)
                                            : n->data().size();
  a.mtime = n->mtime;
  a.inode = inode;
  a.generation = n->generation;
  return a;
}

FsResult<Unit> LocalFs::set_mode(InodeId inode, std::uint32_t mode) {
  Inode* n = get(inode);
  if (n == nullptr) return FsStatus::kStale;
  n->mode = mode;
  n->mtime = ++mtime_counter_;
  return Unit{};
}

FsResult<Unit> LocalFs::truncate(InodeId inode, std::uint64_t size) {
  Inode* n = get(inode);
  if (n == nullptr) return FsStatus::kStale;
  if (n->type != FileType::kFile) return FsStatus::kIsDir;
  if (size > n->data().size()) {
    const std::uint64_t extra = size - n->data().size();
    if (would_exceed(extra)) return FsStatus::kNoSpace;
    used_bytes_ += extra;
  } else {
    used_bytes_ -= n->data().size() - size;
  }
  shared_copy_bytes_ += n->data().resize(size);
  n->mtime = ++mtime_counter_;
  return Unit{};
}

FsResult<std::uint32_t> LocalFs::write(InodeId inode, std::uint64_t offset,
                                       const Bytes& data) {
  Inode* n = get(inode);
  if (n == nullptr) return FsStatus::kStale;
  if (n->type != FileType::kFile) return FsStatus::kIsDir;
  const std::uint64_t end = offset + data.size();
  if (end > n->data().size()) {
    const std::uint64_t extra = end - n->data().size();
    if (would_exceed(extra)) return FsStatus::kNoSpace;
    used_bytes_ += extra;
  }
  shared_copy_bytes_ += n->data().write(offset, data);
  n->mtime = ++mtime_counter_;
  return static_cast<std::uint32_t>(data.size());
}

FsResult<Bytes> LocalFs::read(InodeId inode, std::uint64_t offset, std::uint32_t count) const {
  const Inode* n = get(inode);
  if (n == nullptr) return FsStatus::kStale;
  if (n->type != FileType::kFile) return FsStatus::kIsDir;
  return n->data().slice(offset, count);
}

FsResult<std::string> LocalFs::readlink(InodeId inode) const {
  const Inode* n = get(inode);
  if (n == nullptr) return FsStatus::kStale;
  if (n->type != FileType::kSymlink) return FsStatus::kInval;
  return std::string(n->data().view());
}

FsResult<InodeId> LocalFs::resolve(std::string_view path) const {
  InodeId cur = kRootInode;
  std::size_t pos = 0;
  for (std::string_view part = next_component(path, &pos); !part.empty();
       part = next_component(path, &pos)) {
    auto next = lookup(cur, part);
    if (!next.ok()) return next.error();
    cur = next.value();
  }
  return cur;
}

FsResult<InodeId> LocalFs::mkdir_p(std::string_view path) {
  InodeId cur = kRootInode;
  std::size_t pos = 0;
  for (std::string_view part = next_component(path, &pos); !part.empty();
       part = next_component(path, &pos)) {
    auto next = lookup(cur, part);
    if (next.ok()) {
      const Inode* n = get(next.value());
      if (n == nullptr || n->type != FileType::kDirectory) return FsStatus::kNotDir;
      cur = next.value();
      continue;
    }
    if (next.error() != FsStatus::kNoEnt) return next.error();
    auto made = mkdir(cur, part);
    if (!made.ok()) return made.error();
    cur = made.value();
  }
  return cur;
}

FsResult<Unit> LocalFs::remove_recursive(InodeId dir, std::string_view name) {
  const auto target = lookup(dir, name);
  if (!target.ok()) return target.error();
  const Inode* n = get(target.value());
  if (n == nullptr) return FsStatus::kStale;
  if (n->type == FileType::kDirectory) {
    // Copy names: releasing children mutates the map we iterate.
    std::vector<std::string> names;
    names.reserve(n->entries().size());
    for (const auto& [child_name, inode] : n->entries()) {
      (void)inode;
      names.push_back(child_name);
    }
    for (const auto& child : names) {
      if (auto r = remove_recursive(target.value(), child); !r.ok()) return r.error();
    }
    return rmdir(dir, name);
  }
  return remove(dir, name);
}

std::uint64_t LocalFs::file_content_bytes(InodeId id) const {
  const Inode* n = get(id);
  return n == nullptr ? 0 : n->data().size();
}

std::uint64_t LocalFs::subtree_bytes(InodeId inode) const {
  const Inode* n = get(inode);
  if (n == nullptr) return 0;
  if (n->type == FileType::kFile) return file_content_bytes(inode);
  if (n->type == FileType::kSymlink) return 0;
  std::uint64_t total = 0;
  for (const auto& [name, child] : n->entries()) {
    (void)name;
    total += subtree_bytes(child);
  }
  return total;
}

std::uint64_t LocalFs::subtree_file_count(InodeId inode) const {
  const Inode* n = get(inode);
  if (n == nullptr) return 0;
  if (n->type == FileType::kFile) return 1;
  if (n->type == FileType::kSymlink) return 0;
  std::uint64_t total = 0;
  for (const auto& [name, child] : n->entries()) {
    (void)name;
    total += subtree_file_count(child);
  }
  return total;
}

void LocalFs::purge() {
  // Reset to an empty root but keep generation counters monotonic so any
  // outstanding handles are detected as stale.
  std::vector<std::uint64_t> generations(inodes_.size());
  for (std::size_t i = 0; i < inodes_.size(); ++i) generations[i] = inodes_[i].generation;
  free_list_.clear();
  used_bytes_ = 0;
  shared_copy_bytes_ = 0;
  live_inodes_ = 0;
  for (std::size_t i = 0; i < inodes_.size(); ++i) {
    inodes_[i] = Inode{};
    inodes_[i].generation = generations[i] + 1;
    if (i + 1 != kRootInode) free_list_.push_back(i + 1);
  }
  Inode& root = inodes_[kRootInode - 1];
  root.allocated = true;
  root.type = FileType::kDirectory;
  root.mode = 0755;
  root.payload.emplace<Entries>();
  live_inodes_ = 1;
}

}  // namespace kosha::fs
