#pragma once

// NFS call marshalling over XDR.
//
// Every RPC the client issues has an on-the-wire form (RPC header +
// procedure arguments, RFC 1813 shapes), and the network cost model
// charges its true size. The encoders below build that form, and every one
// has a matching decoder it round-trips with. The client itself sizes its
// calls with the arithmetic encoded_size_* functions, which must equal the
// encoders' output size, so sending a WRITE never copies its payload.

#include <string>
#include <string_view>

#include "nfs/nfs_types.hpp"
#include "nfs/xdr.hpp"

namespace kosha::nfs {

/// NFS procedure numbers (NFSv3 order where applicable).
enum class NfsProc : std::uint32_t {
  kNull = 0,
  kGetattr = 1,
  kSetattr = 2,
  kLookup = 3,
  kReadlink = 5,
  kRead = 6,
  kWrite = 7,
  kCreate = 8,
  kMkdir = 9,
  kSymlink = 10,
  kRemove = 12,
  kRmdir = 13,
  kRename = 14,
  kReaddir = 16,
  kFsstat = 18,
  kMount = 100,  // stand-in for the separate MOUNT protocol
};

/// Every procedure the client can issue, in slot order (for iterating the
/// per-procedure NetStats breakdown).
inline constexpr NfsProc kAllProcs[] = {
    NfsProc::kNull,   NfsProc::kGetattr, NfsProc::kSetattr, NfsProc::kLookup,
    NfsProc::kReadlink, NfsProc::kRead,  NfsProc::kWrite,   NfsProc::kCreate,
    NfsProc::kMkdir,  NfsProc::kSymlink, NfsProc::kRemove,  NfsProc::kRmdir,
    NfsProc::kRename, NfsProc::kReaddir, NfsProc::kFsstat,  NfsProc::kMount,
};

/// Wire name of a procedure ("LOOKUP", "CREATE", ...).
[[nodiscard]] const char* proc_name(NfsProc proc);

/// Index of `proc` in the per-procedure NetStats arrays: the NFSv3 number
/// for regular procedures, slot 19 for the MOUNT stand-in.
[[nodiscard]] constexpr std::size_t proc_slot(NfsProc proc) {
  return proc == NfsProc::kMount ? 19 : static_cast<std::size_t>(proc);
}

/// Client-side RPC span name ("nfs.LOOKUP", ...). Stable storage: returns
/// pointers to string literals.
[[nodiscard]] const char* rpc_span_name(NfsProc proc);

void encode_handle(XdrWriter& writer, const FileHandle& handle);
[[nodiscard]] Result<FileHandle, XdrError> decode_handle(XdrReader& reader);

/// The fixed RPC call header (xid, message type, program, version, proc;
/// AUTH_NULL credentials/verifier).
void encode_call_header(XdrWriter& writer, std::uint32_t xid, NfsProc proc);
[[nodiscard]] Result<NfsProc, XdrError> decode_call_header(XdrReader& reader,
                                                           std::uint32_t* xid = nullptr);

/// The path the MOUNT stand-in asks for.
inline constexpr std::string_view kExportPath = "/kosha_store";

// --- per-procedure argument encoders (full message incl. header) -----------
[[nodiscard]] std::string encode_mount_call(std::uint32_t xid);
[[nodiscard]] std::string encode_handle_call(std::uint32_t xid, NfsProc proc,
                                             const FileHandle& handle);
[[nodiscard]] std::string encode_diropargs_call(std::uint32_t xid, NfsProc proc,
                                                const FileHandle& dir, std::string_view name);
[[nodiscard]] std::string encode_create_call(std::uint32_t xid, NfsProc proc,
                                             const FileHandle& dir, std::string_view name,
                                             std::uint32_t mode, std::uint32_t uid);
[[nodiscard]] std::string encode_symlink_call(std::uint32_t xid, const FileHandle& dir,
                                              std::string_view name, std::string_view target);
[[nodiscard]] std::string encode_read_call(std::uint32_t xid, const FileHandle& file,
                                           std::uint64_t offset, std::uint32_t count);
[[nodiscard]] std::string encode_write_call(std::uint32_t xid, const FileHandle& file,
                                            std::uint64_t offset, std::string_view data);
[[nodiscard]] std::string encode_setattr_call(std::uint32_t xid, const FileHandle& obj,
                                              bool set_mode, std::uint32_t mode, bool set_size,
                                              std::uint64_t size);
[[nodiscard]] std::string encode_rename_call(std::uint32_t xid, const FileHandle& from_dir,
                                             std::string_view from_name,
                                             const FileHandle& to_dir,
                                             std::string_view to_name);

// --- encoded sizes: encoded_size_X(args) == encode_X(xid, args).size() ----
// Arithmetic only, so the client can size a call without materialising it.
// The xid, procedure and handle fields are fixed-width and do not appear.

/// RPC call header: xid, message type, RPC version, program, version,
/// procedure, and the AUTH_NULL credential and verifier (flavor + length).
inline constexpr std::size_t kCallHeaderBytes = 10 * 4;
/// A handle is an opaque of 20 bytes: server (4), inode (8), generation (8).
inline constexpr std::size_t kHandleBytes = xdr_opaque_size(4 + 8 + 8);

[[nodiscard]] constexpr std::size_t encoded_size_mount_call() {
  return kCallHeaderBytes + xdr_opaque_size(kExportPath.size());
}
[[nodiscard]] constexpr std::size_t encoded_size_handle_call() {
  return kCallHeaderBytes + kHandleBytes;
}
[[nodiscard]] constexpr std::size_t encoded_size_diropargs_call(std::string_view name) {
  return kCallHeaderBytes + kHandleBytes + xdr_opaque_size(name.size());
}
[[nodiscard]] constexpr std::size_t encoded_size_create_call(std::string_view name) {
  return encoded_size_diropargs_call(name) + 4 + 4;  // mode, uid
}
[[nodiscard]] constexpr std::size_t encoded_size_symlink_call(std::string_view name,
                                                              std::string_view target) {
  return encoded_size_diropargs_call(name) + xdr_opaque_size(target.size());
}
[[nodiscard]] constexpr std::size_t encoded_size_read_call() {
  return kCallHeaderBytes + kHandleBytes + 8 + 4;  // offset, count
}
[[nodiscard]] constexpr std::size_t encoded_size_write_call(std::size_t data_bytes) {
  return encoded_size_read_call() + xdr_opaque_size(data_bytes);  // READ's fields + payload
}
[[nodiscard]] constexpr std::size_t encoded_size_setattr_call(bool set_mode, bool set_size) {
  return kCallHeaderBytes + kHandleBytes + 4 + (set_mode ? 4 : 0) + 4 + (set_size ? 8 : 0);
}
[[nodiscard]] constexpr std::size_t encoded_size_rename_call(std::string_view from_name,
                                                             std::string_view to_name) {
  return encoded_size_diropargs_call(from_name) + kHandleBytes + xdr_opaque_size(to_name.size());
}

// --- matching argument decoders (assume the header was consumed) -----------
struct DiropArgs {
  FileHandle dir;
  std::string name;
};
[[nodiscard]] Result<DiropArgs, XdrError> decode_diropargs(XdrReader& reader);

struct CreateArgs {
  FileHandle dir;
  std::string name;
  std::uint32_t mode = 0;
  std::uint32_t uid = 0;
};
[[nodiscard]] Result<CreateArgs, XdrError> decode_create_args(XdrReader& reader);

struct SymlinkArgs {
  FileHandle dir;
  std::string name;
  std::string target;
};
[[nodiscard]] Result<SymlinkArgs, XdrError> decode_symlink_args(XdrReader& reader);

struct ReadArgs {
  FileHandle file;
  std::uint64_t offset = 0;
  std::uint32_t count = 0;
};
[[nodiscard]] Result<ReadArgs, XdrError> decode_read_args(XdrReader& reader);

struct WriteArgs {
  FileHandle file;
  std::uint64_t offset = 0;
  std::string data;
};
[[nodiscard]] Result<WriteArgs, XdrError> decode_write_args(XdrReader& reader);

struct SetattrArgs {
  FileHandle obj;
  bool set_mode = false;
  std::uint32_t mode = 0;
  bool set_size = false;
  std::uint64_t size = 0;
};
[[nodiscard]] Result<SetattrArgs, XdrError> decode_setattr_args(XdrReader& reader);

struct RenameArgs {
  FileHandle from_dir;
  std::string from_name;
  FileHandle to_dir;
  std::string to_name;
};
[[nodiscard]] Result<RenameArgs, XdrError> decode_rename_args(XdrReader& reader);

}  // namespace kosha::nfs
