#include "kosha/virtual_handles.hpp"

#include "common/path.hpp"

namespace kosha {

VirtualHandle VirtualHandleTable::bind(const std::string& path, const std::string& stored_path,
                                       const nfs::FileHandle& real, fs::FileType type) {
  if (const auto it = by_path_.find(path); it != by_path_.end()) {
    VhEntry& entry = *entries_[it->second - 1];
    entry.stored_path = stored_path;
    entry.real = real;
    entry.type = type;
    return {it->second};
  }
  if (entries_.empty()) entries_.reserve(kFirstSlots);
  entries_.push_back(std::make_unique<VhEntry>(VhEntry{path, stored_path, real, type}));
  const std::uint64_t id = entries_.size();
  by_path_.emplace(entries_.back()->path, id);
  return {id};
}

VhEntry* VirtualHandleTable::slot(VirtualHandle vh) const {
  // Handle 0 wraps to the largest index and misses like any unissued one.
  const std::uint64_t index = vh.value - 1;
  return index < entries_.size() ? entries_[index].get() : nullptr;
}

const VhEntry* VirtualHandleTable::find(VirtualHandle vh) const { return slot(vh); }

std::optional<VirtualHandle> VirtualHandleTable::find_by_path(std::string_view path) const {
  const auto it = by_path_.find(path);
  if (it == by_path_.end()) return std::nullopt;
  return VirtualHandle{it->second};
}

void VirtualHandleTable::drop(VirtualHandle vh) {
  if (slot(vh) == nullptr) return;
  std::unique_ptr<VhEntry>& entry = entries_[vh.value - 1];
  by_path_.erase(entry->path);
  entry.reset();
}

void VirtualHandleTable::drop_subtree(const std::string& path) {
  // Sweep the path index, which holds only live entries: the slot vector
  // also holds every handle ever dropped.
  // kosha-lint: allow(unordered-iter): erase-sweep — survivors independent of visit order
  for (auto it = by_path_.begin(); it != by_path_.end();) {
    if (path_is_within(it->first, path)) {
      const std::uint64_t handle = it->second;
      it = by_path_.erase(it);  // the key goes before the path it views
      entries_[handle - 1].reset();
    } else {
      ++it;
    }
  }
}

bool VirtualHandleTable::rebind(VirtualHandle vh, const std::string& stored_path,
                                const nfs::FileHandle& real) {
  VhEntry* entry = slot(vh);
  if (entry == nullptr) return false;
  entry->stored_path = stored_path;
  entry->real = real;
  return true;
}

}  // namespace kosha
