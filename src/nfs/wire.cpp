#include "nfs/wire.hpp"

namespace kosha::nfs {

namespace {
constexpr std::uint32_t kRpcCall = 0;
constexpr std::uint32_t kNfsProgram = 100003;
constexpr std::uint32_t kNfsVersion = 3;
constexpr std::uint32_t kAuthNull = 0;
}  // namespace

void encode_handle(XdrWriter& writer, const FileHandle& handle) {
  // NFSv3 handles are variable-length opaques; ours serialize to 20 bytes.
  XdrWriter inner;
  inner.put_u32(handle.server);
  inner.put_u64(handle.inode);
  inner.put_u64(handle.generation);
  writer.put_opaque(inner.data());
}

Result<FileHandle, XdrError> decode_handle(XdrReader& reader) {
  const auto opaque = reader.get_opaque(64);
  if (!opaque.ok()) return opaque.error();
  XdrReader inner(*opaque);
  const auto server = inner.get_u32();
  if (!server.ok()) return server.error();
  const auto inode = inner.get_u64();
  if (!inode.ok()) return inode.error();
  const auto generation = inner.get_u64();
  if (!generation.ok()) return generation.error();
  return FileHandle{*server, *inode, *generation};
}

void encode_call_header(XdrWriter& writer, std::uint32_t xid, NfsProc proc) {
  writer.put_u32(xid);
  writer.put_u32(kRpcCall);
  writer.put_u32(2);  // RPC version
  writer.put_u32(kNfsProgram);
  writer.put_u32(kNfsVersion);
  writer.put_u32(static_cast<std::uint32_t>(proc));
  // AUTH_NULL credential and verifier (flavor + zero-length body).
  writer.put_u32(kAuthNull);
  writer.put_u32(0);
  writer.put_u32(kAuthNull);
  writer.put_u32(0);
}

Result<NfsProc, XdrError> decode_call_header(XdrReader& reader, std::uint32_t* xid) {
  const auto got_xid = reader.get_u32();
  if (!got_xid.ok()) return got_xid.error();
  if (xid != nullptr) *xid = *got_xid;
  // Skip message type, RPC version, program, program version.
  for (int i = 0; i < 4; ++i) {
    if (const auto skip = reader.get_u32(); !skip.ok()) return skip.error();
  }
  const auto proc = reader.get_u32();
  if (!proc.ok()) return proc.error();
  for (int i = 0; i < 4; ++i) {
    if (const auto skip = reader.get_u32(); !skip.ok()) return skip.error();
  }
  return static_cast<NfsProc>(*proc);
}

std::string encode_mount_call(std::uint32_t xid) {
  XdrWriter writer;
  encode_call_header(writer, xid, NfsProc::kMount);
  writer.put_string(kExportPath);
  return writer.data();
}

std::string encode_handle_call(std::uint32_t xid, NfsProc proc, const FileHandle& handle) {
  XdrWriter writer;
  encode_call_header(writer, xid, proc);
  encode_handle(writer, handle);
  return writer.data();
}

std::string encode_diropargs_call(std::uint32_t xid, NfsProc proc, const FileHandle& dir,
                                  std::string_view name) {
  XdrWriter writer;
  encode_call_header(writer, xid, proc);
  encode_handle(writer, dir);
  writer.put_string(name);
  return writer.data();
}

std::string encode_create_call(std::uint32_t xid, NfsProc proc, const FileHandle& dir,
                               std::string_view name, std::uint32_t mode, std::uint32_t uid) {
  XdrWriter writer;
  encode_call_header(writer, xid, proc);
  encode_handle(writer, dir);
  writer.put_string(name);
  writer.put_u32(mode);
  writer.put_u32(uid);
  return writer.data();
}

std::string encode_symlink_call(std::uint32_t xid, const FileHandle& dir,
                                std::string_view name, std::string_view target) {
  XdrWriter writer;
  encode_call_header(writer, xid, NfsProc::kSymlink);
  encode_handle(writer, dir);
  writer.put_string(name);
  writer.put_string(target);
  return writer.data();
}

std::string encode_read_call(std::uint32_t xid, const FileHandle& file, std::uint64_t offset,
                             std::uint32_t count) {
  XdrWriter writer;
  encode_call_header(writer, xid, NfsProc::kRead);
  encode_handle(writer, file);
  writer.put_u64(offset);
  writer.put_u32(count);
  return writer.data();
}

std::string encode_write_call(std::uint32_t xid, const FileHandle& file, std::uint64_t offset,
                              std::string_view data) {
  XdrWriter writer;
  encode_call_header(writer, xid, NfsProc::kWrite);
  encode_handle(writer, file);
  writer.put_u64(offset);
  writer.put_u32(static_cast<std::uint32_t>(data.size()));
  writer.put_opaque(data);
  return writer.data();
}

std::string encode_setattr_call(std::uint32_t xid, const FileHandle& obj, bool set_mode,
                                std::uint32_t mode, bool set_size, std::uint64_t size) {
  XdrWriter writer;
  encode_call_header(writer, xid, NfsProc::kSetattr);
  encode_handle(writer, obj);
  writer.put_bool(set_mode);
  if (set_mode) writer.put_u32(mode);
  writer.put_bool(set_size);
  if (set_size) writer.put_u64(size);
  return writer.data();
}

std::string encode_rename_call(std::uint32_t xid, const FileHandle& from_dir,
                               std::string_view from_name, const FileHandle& to_dir,
                               std::string_view to_name) {
  XdrWriter writer;
  encode_call_header(writer, xid, NfsProc::kRename);
  encode_handle(writer, from_dir);
  writer.put_string(from_name);
  encode_handle(writer, to_dir);
  writer.put_string(to_name);
  return writer.data();
}

Result<DiropArgs, XdrError> decode_diropargs(XdrReader& reader) {
  const auto dir = decode_handle(reader);
  if (!dir.ok()) return dir.error();
  auto name = reader.get_string();
  if (!name.ok()) return name.error();
  return DiropArgs{*dir, std::move(*name)};
}

Result<CreateArgs, XdrError> decode_create_args(XdrReader& reader) {
  const auto dir = decode_handle(reader);
  if (!dir.ok()) return dir.error();
  auto name = reader.get_string();
  if (!name.ok()) return name.error();
  const auto mode = reader.get_u32();
  if (!mode.ok()) return mode.error();
  const auto uid = reader.get_u32();
  if (!uid.ok()) return uid.error();
  return CreateArgs{*dir, std::move(*name), *mode, *uid};
}

Result<SymlinkArgs, XdrError> decode_symlink_args(XdrReader& reader) {
  const auto dir = decode_handle(reader);
  if (!dir.ok()) return dir.error();
  auto name = reader.get_string();
  if (!name.ok()) return name.error();
  auto target = reader.get_string();
  if (!target.ok()) return target.error();
  return SymlinkArgs{*dir, std::move(*name), std::move(*target)};
}

Result<ReadArgs, XdrError> decode_read_args(XdrReader& reader) {
  const auto file = decode_handle(reader);
  if (!file.ok()) return file.error();
  const auto offset = reader.get_u64();
  if (!offset.ok()) return offset.error();
  const auto count = reader.get_u32();
  if (!count.ok()) return count.error();
  return ReadArgs{*file, *offset, *count};
}

Result<WriteArgs, XdrError> decode_write_args(XdrReader& reader) {
  const auto file = decode_handle(reader);
  if (!file.ok()) return file.error();
  const auto offset = reader.get_u64();
  if (!offset.ok()) return offset.error();
  const auto count = reader.get_u32();
  if (!count.ok()) return count.error();
  auto data = reader.get_opaque();
  if (!data.ok()) return data.error();
  if (data->size() != *count) return XdrError::kTruncated;
  return WriteArgs{*file, *offset, std::move(*data)};
}

Result<SetattrArgs, XdrError> decode_setattr_args(XdrReader& reader) {
  SetattrArgs args;
  const auto obj = decode_handle(reader);
  if (!obj.ok()) return obj.error();
  args.obj = *obj;
  const auto set_mode = reader.get_bool();
  if (!set_mode.ok()) return set_mode.error();
  args.set_mode = *set_mode;
  if (args.set_mode) {
    const auto mode = reader.get_u32();
    if (!mode.ok()) return mode.error();
    args.mode = *mode;
  }
  const auto set_size = reader.get_bool();
  if (!set_size.ok()) return set_size.error();
  args.set_size = *set_size;
  if (args.set_size) {
    const auto size = reader.get_u64();
    if (!size.ok()) return size.error();
    args.size = *size;
  }
  return args;
}

Result<RenameArgs, XdrError> decode_rename_args(XdrReader& reader) {
  const auto from_dir = decode_handle(reader);
  if (!from_dir.ok()) return from_dir.error();
  auto from_name = reader.get_string();
  if (!from_name.ok()) return from_name.error();
  const auto to_dir = decode_handle(reader);
  if (!to_dir.ok()) return to_dir.error();
  auto to_name = reader.get_string();
  if (!to_name.ok()) return to_name.error();
  return RenameArgs{*from_dir, std::move(*from_name), *to_dir, std::move(*to_name)};
}

const char* proc_name(NfsProc proc) {
  switch (proc) {
    case NfsProc::kNull:
      return "NULL";
    case NfsProc::kGetattr:
      return "GETATTR";
    case NfsProc::kSetattr:
      return "SETATTR";
    case NfsProc::kLookup:
      return "LOOKUP";
    case NfsProc::kReadlink:
      return "READLINK";
    case NfsProc::kRead:
      return "READ";
    case NfsProc::kWrite:
      return "WRITE";
    case NfsProc::kCreate:
      return "CREATE";
    case NfsProc::kMkdir:
      return "MKDIR";
    case NfsProc::kSymlink:
      return "SYMLINK";
    case NfsProc::kRemove:
      return "REMOVE";
    case NfsProc::kRmdir:
      return "RMDIR";
    case NfsProc::kRename:
      return "RENAME";
    case NfsProc::kReaddir:
      return "READDIR";
    case NfsProc::kFsstat:
      return "FSSTAT";
    case NfsProc::kMount:
      return "MOUNT";
  }
  return "?";
}

const char* rpc_span_name(NfsProc proc) {
  switch (proc) {
    case NfsProc::kNull:
      return "nfs.NULL";
    case NfsProc::kGetattr:
      return "nfs.GETATTR";
    case NfsProc::kSetattr:
      return "nfs.SETATTR";
    case NfsProc::kLookup:
      return "nfs.LOOKUP";
    case NfsProc::kReadlink:
      return "nfs.READLINK";
    case NfsProc::kRead:
      return "nfs.READ";
    case NfsProc::kWrite:
      return "nfs.WRITE";
    case NfsProc::kCreate:
      return "nfs.CREATE";
    case NfsProc::kMkdir:
      return "nfs.MKDIR";
    case NfsProc::kSymlink:
      return "nfs.SYMLINK";
    case NfsProc::kRemove:
      return "nfs.REMOVE";
    case NfsProc::kRmdir:
      return "nfs.RMDIR";
    case NfsProc::kRename:
      return "nfs.RENAME";
    case NfsProc::kReaddir:
      return "nfs.READDIR";
    case NfsProc::kFsstat:
      return "nfs.FSSTAT";
    case NfsProc::kMount:
      return "nfs.MOUNT";
  }
  return "nfs.?";
}

}  // namespace kosha::nfs
