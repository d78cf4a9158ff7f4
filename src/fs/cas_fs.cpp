#include "fs/cas_fs.hpp"

#include <algorithm>

#include "common/sha1.hpp"

namespace kosha::fs {

namespace {
constexpr std::uint64_t kMinChunk = 1;
}  // namespace

CasFs::CasFs(const StorageConfig& config)
    : LocalFs(config.fs),
      chunk_bytes_(std::max(kMinChunk, config.chunk_bytes)),
      verify_reads_(config.verify_reads) {}

std::uint64_t CasFs::file_content_bytes(InodeId id) const {
  const auto it = manifests_.find(id);
  return it == manifests_.end() ? 0 : it->second.size;
}

void CasFs::release(InodeId id) {
  drop_manifest(id);
  LocalFs::release(id);
}

void CasFs::ref_block(const BlockId& id, std::string_view bytes) {
  Block& block = blocks_[id];
  if (block.refs == 0) {
    block.bytes.assign(bytes);
    physical_bytes_ += bytes.size();
  } else if (block.bytes != bytes) {
    // The address is the hash of the *correct* bytes, so a mismatch means
    // the stored copy was corrupted after the fact; writing the same
    // content again heals it in place.
    block.bytes.assign(bytes);
  }
  ++block.refs;
}

void CasFs::unref_block(const BlockId& id) {
  const auto it = blocks_.find(id);
  if (it == blocks_.end()) return;
  if (--it->second.refs == 0) {
    physical_bytes_ -= it->second.bytes.size();
    blocks_.erase(it);
  }
}

void CasFs::drop_manifest(InodeId id) {
  const auto it = manifests_.find(id);
  if (it == manifests_.end()) return;
  for (const BlockId& block : it->second.blocks) unref_block(block);
  sub_used_bytes(it->second.size);
  manifests_.erase(it);
}

std::string CasFs::materialize(const Manifest& manifest) const {
  std::string content;
  content.reserve(manifest.size);
  for (const BlockId& id : manifest.blocks) {
    const auto it = blocks_.find(id);
    if (it != blocks_.end()) content.append(it->second.bytes);
  }
  content.resize(manifest.size, '\0');  // belt-and-braces on a lost block
  return content;
}

void CasFs::set_content(InodeId id, const std::string& content) {
  Manifest next;
  next.size = content.size();
  next.blocks.reserve((content.size() + chunk_bytes_ - 1) / chunk_bytes_);
  for (std::uint64_t offset = 0; offset < content.size(); offset += chunk_bytes_) {
    const std::string_view chunk =
        std::string_view(content).substr(offset, chunk_bytes_);
    const BlockId block = Sha1::hash(chunk);
    ref_block(block, chunk);
    next.blocks.push_back(block);
  }
  drop_manifest(id);
  add_used_bytes(next.size);
  if (next.size != 0) manifests_[id] = std::move(next);
}

FsResult<Unit> CasFs::truncate(InodeId inode, std::uint64_t size) {
  const Inode* n = get(inode);
  if (n == nullptr) return FsStatus::kStale;
  if (n->type != FileType::kFile) return FsStatus::kIsDir;
  const std::uint64_t current = file_content_bytes(inode);
  if (size > current && would_exceed(size - current)) return FsStatus::kNoSpace;
  const auto it = manifests_.find(inode);
  std::string content = it == manifests_.end() ? std::string{} : materialize(it->second);
  content.resize(size, '\0');
  set_content(inode, content);
  get(inode)->mtime = next_mtime();
  return Unit{};
}

FsResult<std::uint32_t> CasFs::write(InodeId inode, std::uint64_t offset,
                                     const Bytes& data) {
  const Inode* n = get(inode);
  if (n == nullptr) return FsStatus::kStale;
  if (n->type != FileType::kFile) return FsStatus::kIsDir;
  const std::uint64_t current = file_content_bytes(inode);
  const std::uint64_t end = offset + data.size();
  if (end > current && would_exceed(end - current)) return FsStatus::kNoSpace;
  const auto it = manifests_.find(inode);
  std::string content = it == manifests_.end() ? std::string{} : materialize(it->second);
  if (end > content.size()) content.resize(end, '\0');
  std::copy(data.view().begin(), data.view().end(),
            content.begin() + static_cast<std::ptrdiff_t>(offset));
  set_content(inode, content);
  get(inode)->mtime = next_mtime();
  return static_cast<std::uint32_t>(data.size());
}

FsResult<Bytes> CasFs::read(InodeId inode, std::uint64_t offset, std::uint32_t count) const {
  const Inode* n = get(inode);
  if (n == nullptr) return FsStatus::kStale;
  if (n->type != FileType::kFile) return FsStatus::kIsDir;
  const auto it = manifests_.find(inode);
  const std::uint64_t size = it == manifests_.end() ? 0 : it->second.size;
  if (offset >= size) return Bytes{};
  const std::uint64_t end = std::min<std::uint64_t>(size, offset + count);
  std::string out;
  out.reserve(end - offset);
  for (std::uint64_t chunk = offset / chunk_bytes_; chunk * chunk_bytes_ < end; ++chunk) {
    const BlockId& id = it->second.blocks[chunk];
    const auto block = blocks_.find(id);
    if (block == blocks_.end() ||
        (verify_reads_ && Sha1::hash(block->second.bytes) != id)) {
      ++verify_failures_;
      return FsStatus::kCorrupt;
    }
    const std::uint64_t chunk_start = chunk * chunk_bytes_;
    const std::uint64_t from = offset > chunk_start ? offset - chunk_start : 0;
    const std::uint64_t to =
        std::min<std::uint64_t>(block->second.bytes.size(), end - chunk_start);
    if (to > from) out.append(block->second.bytes, from, to - from);
  }
  return Bytes(std::move(out));
}

void CasFs::purge() {
  LocalFs::purge();
  blocks_.clear();
  manifests_.clear();
  physical_bytes_ = 0;
  verify_failures_ = 0;
}

StorageStats CasFs::stats() const {
  StorageStats stats;
  stats.dedup_bytes = used_bytes() - physical_bytes_;
  stats.blocks_live = blocks_.size();
  stats.verify_failures = verify_failures_;
  return stats;
}

std::vector<BlockRef> CasFs::file_blocks(InodeId inode) const {
  const auto it = manifests_.find(inode);
  if (it == manifests_.end()) return {};
  std::vector<BlockRef> out;
  out.reserve(it->second.blocks.size());
  for (const BlockId& id : it->second.blocks) {
    const auto block = blocks_.find(id);
    const std::uint32_t bytes =
        block == blocks_.end() ? 0 : static_cast<std::uint32_t>(block->second.bytes.size());
    out.push_back({id, bytes});
  }
  return out;
}

bool CasFs::has_block(const BlockId& id) const {
  // A resident-but-corrupt block does not count as held: delta transfers
  // must ship (and heal) it.
  const auto it = blocks_.find(id);
  return it != blocks_.end() && Sha1::hash(it->second.bytes) == id;
}

std::uint64_t CasFs::verify_inode(InodeId id) const {
  const auto it = manifests_.find(id);
  if (it == manifests_.end()) return 0;
  std::uint64_t corrupt = 0;
  for (const BlockId& block : it->second.blocks) {
    const auto stored = blocks_.find(block);
    if (stored == blocks_.end() || Sha1::hash(stored->second.bytes) != block) ++corrupt;
  }
  return corrupt;
}

std::uint64_t CasFs::verify_walk(InodeId id) const {
  const auto attr = getattr(id);
  if (!attr.ok()) return 0;
  if (attr->type == FileType::kFile) return verify_inode(id);
  if (attr->type != FileType::kDirectory) return 0;
  std::uint64_t corrupt = 0;
  const auto listing = readdir(id);
  if (!listing.ok()) return 0;
  for (const DirEntry& entry : listing.value()) corrupt += verify_walk(entry.inode);
  return corrupt;
}

std::uint64_t CasFs::verify_subtree(std::string_view path) const {
  const auto inode = resolve(path);
  if (!inode.ok()) return 0;
  return verify_walk(inode.value());
}

bool CasFs::corrupt_file_block(InodeId inode, std::size_t chunk_index) {
  const auto it = manifests_.find(inode);
  if (it == manifests_.end() || chunk_index >= it->second.blocks.size()) return false;
  const auto block = blocks_.find(it->second.blocks[chunk_index]);
  if (block == blocks_.end() || block->second.bytes.empty()) return false;
  block->second.bytes[0] = static_cast<char>(block->second.bytes[0] ^ 0x01);
  return true;
}

}  // namespace kosha::fs
