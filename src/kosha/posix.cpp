#include "kosha/posix.hpp"

#include <algorithm>
#include <cstring>

#include "common/path.hpp"
#include "common/tracing.hpp"

namespace kosha {

PosixAdapter::OpenFile* PosixAdapter::lookup_fd(Fd fd) {
  const auto it = open_.find(fd.value);
  return it == open_.end() ? nullptr : &it->second;
}

Fd PosixAdapter::open(std::string_view path, unsigned flags, std::uint32_t mode) {
  Koshad& daemon = mount_->daemon();
  SpanScope span(daemon.runtime().tracer, "posix.open", daemon.host());
  if (span.active()) span.tag("path", path);
  auto resolved = mount_->resolve(path);
  if (!resolved.ok()) {
    if (resolved.error() != nfs::NfsStat::kNoEnt || (flags & kCreate) == 0) {
      last_error_ = resolved.error();
      return {};
    }
    // O_CREAT: create in the parent directory.
    const std::string normalized = normalize_path(path);
    const auto parent = mount_->resolve(path_parent(normalized));
    if (!parent.ok()) {
      last_error_ = parent.error();
      return {};
    }
    const auto created = daemon.create(*parent, path_basename(normalized), mode);
    if (!created.ok()) {
      last_error_ = created.error();
      return {};
    }
    resolved = created->handle;
  }

  const auto attr = daemon.getattr(*resolved);
  if (!attr.ok()) {
    last_error_ = attr.error();
    return {};
  }
  if (attr->type != fs::FileType::kFile) {
    last_error_ = nfs::NfsStat::kIsDir;
    return {};
  }
  if ((flags & kTrunc) != 0 && (flags & (kWrOnly | kRdWr)) != 0) {
    if (const auto truncated = daemon.truncate(*resolved, 0); !truncated.ok()) {
      last_error_ = truncated.error();
      return {};
    }
  }

  const Fd fd{next_fd_++};
  open_[fd.value] = OpenFile{*resolved, 0, flags};
  return fd;
}

std::int64_t PosixAdapter::read(Fd fd, char* buffer, std::size_t count) {
  Koshad& daemon = mount_->daemon();
  SpanScope span(daemon.runtime().tracer, "posix.read", daemon.host());
  OpenFile* file = lookup_fd(fd);
  if (file == nullptr) {
    last_error_ = nfs::NfsStat::kStale;
    return -1;
  }
  if ((file->flags & kWrOnly) != 0) {
    last_error_ = nfs::NfsStat::kInval;
    return -1;
  }
  const auto reply = mount_->daemon().read(file->handle, file->offset,
                                           static_cast<std::uint32_t>(count));
  if (!reply.ok()) {
    last_error_ = reply.error();
    return -1;
  }
  std::memcpy(buffer, reply->data.data(), reply->data.size());
  file->offset += reply->data.size();
  return static_cast<std::int64_t>(reply->data.size());
}

std::int64_t PosixAdapter::write(Fd fd, std::string_view data) {
  Koshad& daemon = mount_->daemon();
  SpanScope span(daemon.runtime().tracer, "posix.write", daemon.host());
  OpenFile* file = lookup_fd(fd);
  if (file == nullptr) {
    last_error_ = nfs::NfsStat::kStale;
    return -1;
  }
  if ((file->flags & (kWrOnly | kRdWr)) == 0) {
    last_error_ = nfs::NfsStat::kInval;
    return -1;
  }
  if ((file->flags & kAppend) != 0) {
    const auto attr = mount_->daemon().getattr(file->handle);
    if (!attr.ok()) {
      last_error_ = attr.error();
      return -1;
    }
    file->offset = attr->size;
  }
  const auto written = mount_->daemon().write(file->handle, file->offset, fs::Bytes(data));
  if (!written.ok()) {
    last_error_ = written.error();
    return -1;
  }
  file->offset += written.value();
  return static_cast<std::int64_t>(written.value());
}

std::int64_t PosixAdapter::lseek(Fd fd, std::int64_t offset, Whence whence) {
  OpenFile* file = lookup_fd(fd);
  if (file == nullptr) {
    last_error_ = nfs::NfsStat::kStale;
    return -1;
  }
  std::int64_t base = 0;
  switch (whence) {
    case Whence::kSet:
      base = 0;
      break;
    case Whence::kCur:
      base = static_cast<std::int64_t>(file->offset);
      break;
    case Whence::kEnd: {
      const auto attr = mount_->daemon().getattr(file->handle);
      if (!attr.ok()) {
        last_error_ = attr.error();
        return -1;
      }
      base = static_cast<std::int64_t>(attr->size);
      break;
    }
  }
  const std::int64_t target = base + offset;
  if (target < 0) {
    last_error_ = nfs::NfsStat::kInval;
    return -1;
  }
  file->offset = static_cast<std::uint64_t>(target);
  return target;
}

bool PosixAdapter::ftruncate(Fd fd, std::uint64_t size) {
  OpenFile* file = lookup_fd(fd);
  if (file == nullptr) return fail(nfs::NfsStat::kStale);
  const auto result = mount_->daemon().truncate(file->handle, size);
  if (!result.ok()) return fail(result.error());
  return true;
}

nfs::NfsResult<fs::Attr> PosixAdapter::fstat(Fd fd) {
  OpenFile* file = lookup_fd(fd);
  if (file == nullptr) return nfs::NfsStat::kStale;
  return mount_->daemon().getattr(file->handle);
}

bool PosixAdapter::close(Fd fd) { return open_.erase(fd.value) > 0; }

bool PosixAdapter::unlink(std::string_view path) {
  const auto result = mount_->remove(path);
  return result.ok() || fail(result.error());
}

bool PosixAdapter::mkdir(std::string_view path) {
  const auto result = mount_->mkdir_p(path);
  return result.ok() || fail(result.error());
}

bool PosixAdapter::rmdir(std::string_view path) {
  const auto result = mount_->rmdir(path);
  return result.ok() || fail(result.error());
}

bool PosixAdapter::rename(std::string_view from, std::string_view to) {
  const auto result = mount_->rename(from, to);
  return result.ok() || fail(result.error());
}

}  // namespace kosha
