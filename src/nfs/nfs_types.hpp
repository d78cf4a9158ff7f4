#pragma once

// NFS-v3-like protocol types.
//
// Handles are opaque to clients: "they only have meaning to the NFS server"
// (paper §4.1.2). Kosha exploits exactly that opacity to interpose virtual
// handles, so the reproduction keeps handles strictly opaque too — clients
// never inspect the fields, only compare and pass them back.

#include <cstdint>
#include <string>
#include <vector>

#include "common/tracing.hpp"
#include "fs/storage_backend.hpp"
#include "net/sim_network.hpp"

namespace kosha::nfs {

/// Opaque file handle: identifies an inode generation on one server.
struct FileHandle {
  net::HostId server = net::kInvalidHost;
  fs::InodeId inode = fs::kInvalidInode;
  std::uint64_t generation = 0;

  [[nodiscard]] bool valid() const { return server != net::kInvalidHost && inode != 0; }
  friend bool operator==(const FileHandle&, const FileHandle&) = default;
};

/// NFS status codes: the local-FS vocabulary plus transport failure.
enum class NfsStat {
  kOk,
  kNoEnt,
  kExist,
  kNotDir,
  kIsDir,
  kNotEmpty,
  kNoSpace,
  kInval,
  kStale,
  kCorrupt,      // stored block failed hash verification on a CAS backend:
                 // the primary's copy is damaged — the failover ladder
                 // treats this as retryable so the read degrades to a
                 // replica while anti-entropy repairs the damage
  kUnreachable,  // RPC timeout before any request was delivered: the op
                 // certainly never executed (host down, server withdrawn,
                 // or every transmission lost in transit)
  kTimedOut,     // RPC abandoned after at least one delivered request: the
                 // op *may have executed* with its reply lost. Callers that
                 // re-issue a non-idempotent op after this status must be
                 // prepared to adopt an already-applied result.
  kOverloaded,   // request shed by overload control before execution: the
                 // server's admission bound bounced the arrival, the request's
                 // propagated deadline had already passed, or the client's own
                 // breaker/retry budget refused to offer more load. The op
                 // certainly did not execute *on this attempt* — but an
                 // earlier attempt of the same xid may have (the koshad
                 // ladder treats it as retryable and keeps its maybe-executed
                 // bookkeeping).
};

[[nodiscard]] const char* to_string(NfsStat status);

/// Map a local-FS error onto the wire status.
[[nodiscard]] NfsStat from_fs(fs::FsStatus status);

template <typename T>
using NfsResult = Result<T, NfsStat>;

/// Identity of one client RPC: who sent it and under which transaction id.
/// Retransmissions carry the same (client, xid, boot) triple; the server's
/// duplicate-request cache keys on it to recognize retried non-idempotent
/// requests whose first execution already succeeded.
struct RpcContext {
  net::HostId client = net::kInvalidHost;
  std::uint32_t xid = 0;
  /// Boot verifier (Sun-RPC style): distinguishes client incarnations. A
  /// revived client restarts its xid counter at 0, so without this a reused
  /// low xid could silently match a cached reply from the host's previous
  /// life still sitting in a server's duplicate-request cache.
  std::uint64_t boot = 0;
  /// Trace identity of the client operation this RPC serves (invalid when
  /// tracing is off). Carried so server-side spans parent under the RPC
  /// that caused them — this is the propagation step of distributed
  /// tracing. Not part of the DRC key: a retransmission may carry a
  /// different span id but is still the same request.
  TraceContext trace{};
  /// Absolute virtual-time deadline of the client *operation* this RPC
  /// serves (0 = none — the default, and always the value when overload
  /// control is disabled). Propagated so servers can refuse to execute
  /// work the client has already abandoned (kOverloaded before any DRC
  /// store). Like `trace`, NOT part of the DRC key: a retransmission may
  /// carry a refreshed deadline but is still the same request.
  SimDuration deadline{};

  [[nodiscard]] bool valid() const { return client != net::kInvalidHost; }
};

/// LOOKUP / CREATE / MKDIR / SYMLINK reply.
struct HandleReply {
  FileHandle handle;
  fs::Attr attr;
};

/// READ reply. A flat store's data is a slice sharing the file's buffer.
struct ReadReply {
  fs::Bytes data;
  bool eof = false;
};

/// READDIR reply entry (type included, as NFSv3 readdirplus would give).
struct ReaddirReply {
  std::vector<fs::DirEntry> entries;
};

/// FSSTAT reply — Kosha's redirection logic polls this (paper §3.3).
struct FsstatReply {
  std::uint64_t capacity_bytes = 0;
  std::uint64_t used_bytes = 0;
  double utilization = 0.0;
};

}  // namespace kosha::nfs
