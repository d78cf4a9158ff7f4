#include "nfs/nfs_client.hpp"

#include <cassert>
#include <optional>
#include <string>
#include <string_view>

#include "common/metrics.hpp"
#include "common/profile.hpp"
#include "common/tracing.hpp"
#include "nfs/wire.hpp"

namespace kosha::nfs {

namespace {

/// Timed mode (see nfs_client.hpp): an abandoned attempt's server-side
/// chain keeps running after the synchronous caller has returned, so the
/// invoke closure must not point into the caller's frame.
bool timed(const RetryPolicy& retry) { return retry.response_timeout.ns > 0; }

/// A string argument an invoke closure carries to the server: borrowed
/// from the caller when every server chain ends before the caller returns,
/// an owned copy in timed mode. Handles and scalars are captured by value,
/// and a WRITE's payload is an fs::Bytes, held by reference count.
class ArgString {
 public:
  ArgString(std::string_view text, bool own)
      : borrowed_(own ? std::string_view{} : text), owned_(own ? text : std::string_view{}),
        own_(own) {}

  [[nodiscard]] std::string_view view() const { return own_ ? owned_ : borrowed_; }

 private:
  std::string_view borrowed_;
  std::string owned_;
  bool own_;
};

}  // namespace

NfsClient::NfsClient(net::SimNetwork* network, const ServerDirectory* directory,
                     net::HostId self, RetryPolicy retry, std::uint64_t jitter_seed,
                     std::uint64_t boot)
    : network_(network),
      directory_(directory),
      self_(self),
      boot_(boot),
      retry_(retry),
      jitter_rng_(jitter_seed ^ (0x9E3779B97F4A7C15ull * (self + 1))) {
  assert(network_ != nullptr && directory_ != nullptr);
  // With metrics on, the instrument table comes with the client, so an
  // operation never pays for it; off, the client holds a null pointer.
  if (network_->metrics() != nullptr) proc_metrics_ = std::make_unique<ProcMetricsTable>();
}

NfsClient::ProcMetrics& NfsClient::proc_metrics(NfsProc proc) {
  // Metrics are wired into the network before any client exists.
  assert(proc_metrics_ != nullptr);
  ProcMetrics& pm = (*proc_metrics_)[proc_slot(proc)];
  if (!pm.resolved) {
    MetricsRegistry* metrics = network_->metrics();
    const std::string base = std::string("nfs.client.") + proc_name(proc);
    pm.latency = metrics->histogram(base + ".latency_us");
    pm.ok = metrics->counter(base + ".ok");
    pm.error = metrics->counter(base + ".error");
    pm.resolved = true;
  }
  return pm;
}

RpcContext NfsClient::rpc_ctx(std::uint32_t xid) const {
  RpcContext ctx{self_, xid, boot_};
  if (const Tracer* tracer = network_->tracer(); tracer != nullptr && tracer->enabled()) {
    ctx.trace = tracer->current();
  }
  // Zero unless koshad stamped an op budget: deadline propagation costs a
  // copy of an always-present field, nothing else.
  ctx.deadline = op_deadline_;
  return ctx;
}

CircuitBreaker* NfsClient::breaker_for(net::HostId server) {
  if (!overload_.enabled || overload_.breaker_threshold == 0) return nullptr;
  auto it = breakers_.find(server);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(server,
                      CircuitBreaker(overload_.breaker_threshold, overload_.breaker_cooldown))
             .first;
  }
  return &it->second;
}

OverloadClientStats NfsClient::overload_stats() const {
  OverloadClientStats s;
  if (budget_.has_value()) {
    s.budget_exhausted = budget_->exhausted();
    s.budget_tokens = budget_->tokens();
  }
  s.overloaded_replies = overloaded_replies_;
  for (const auto& [host, breaker] : breakers_) {
    (void)host;
    s.breaker_opens += breaker.opens();
    s.breaker_fast_fails += breaker.fast_fails();
    if (breaker.state() != CircuitBreaker::State::kClosed) ++s.breakers_open;
  }
  return s;
}

template <typename ReplyT, typename Invoke, typename ReplyBytes>
NfsResult<ReplyT> NfsClient::transact(NfsProc proc, net::HostId server,
                                      std::size_t request_bytes, Invoke&& invoke,
                                      ReplyBytes&& reply_bytes) {
  SpanScope span(network_->tracer(), rpc_span_name(proc), self_);
  if (span.active()) span.tag("server", std::to_string(server));
  const SimDuration start = network_->clock().now();
  std::optional<NfsResult<ReplyT>> final_reply;
  call_async<ReplyT>(proc_slot(proc), server, request_bytes, std::forward<Invoke>(invoke),
                     std::forward<ReplyBytes>(reply_bytes),
                     [&final_reply](NfsResult<ReplyT> r) { final_reply = std::move(r); });
  network_->loop()->run_until([&final_reply] { return final_reply.has_value(); });
  assert(final_reply.has_value());
  NfsResult<ReplyT> reply =
      final_reply.has_value() ? *std::move(final_reply) : NfsResult<ReplyT>(NfsStat::kTimedOut);
  if (network_->metrics() != nullptr) {
    ProcMetrics& pm = proc_metrics(proc);
    pm.latency->record((network_->clock().now() - start).to_micros());
    (reply.ok() ? pm.ok : pm.error)->inc();
  }
  if (SimProfiler* prof = network_->profiler(); prof != nullptr) prof->note_op();
  if (!reply.ok()) span.status(to_string(reply.error()));
  return reply;
}

NfsResult<FileHandle> NfsClient::mount(net::HostId server) {
  (void)next_xid();
  return transact<FileHandle>(
      NfsProc::kMount, server, encoded_size_mount_call(),
      [](NfsServer& s) -> NfsResult<FileHandle> { return s.root_handle(); },
      [](const NfsResult<FileHandle>&) { return kReplyBytes; });
}

NfsResult<HandleReply> NfsClient::lookup(FileHandle dir, std::string_view name) {
  (void)next_xid();
  return transact<HandleReply>(
      NfsProc::kLookup, dir.server, encoded_size_diropargs_call(name),
      [dir, name = ArgString(name, timed(retry_))](NfsServer& s) {
        return s.lookup(dir, name.view());
      },
      [](const NfsResult<HandleReply>&) { return kReplyBytes; });
}

NfsResult<fs::Attr> NfsClient::getattr(FileHandle obj) {
  (void)next_xid();
  return transact<fs::Attr>(
      NfsProc::kGetattr, obj.server, encoded_size_handle_call(),
      [obj](NfsServer& s) { return s.getattr(obj); },
      [](const NfsResult<fs::Attr>&) { return kReplyBytes; });
}

NfsResult<fs::Attr> NfsClient::set_mode(FileHandle obj, std::uint32_t mode) {
  // SETATTR is non-idempotent on the wire: the retransmission carries the
  // same xid so the server's DRC answers an already-executed request.
  const std::uint32_t xid = next_xid();
  return transact<fs::Attr>(
      NfsProc::kSetattr, obj.server,
      encoded_size_setattr_call(true, false),
      [this, obj, mode, xid](NfsServer& s) { return s.set_mode(obj, mode, rpc_ctx(xid)); },
      [](const NfsResult<fs::Attr>&) { return kReplyBytes; });
}

NfsResult<fs::Attr> NfsClient::truncate(FileHandle obj, std::uint64_t size) {
  const std::uint32_t xid = next_xid();
  return transact<fs::Attr>(
      NfsProc::kSetattr, obj.server,
      encoded_size_setattr_call(false, true),
      [this, obj, size, xid](NfsServer& s) { return s.truncate(obj, size, rpc_ctx(xid)); },
      [](const NfsResult<fs::Attr>&) { return kReplyBytes; });
}

NfsResult<ReadReply> NfsClient::read(FileHandle file, std::uint64_t offset,
                                     std::uint32_t count) {
  (void)next_xid();
  return transact<ReadReply>(
      NfsProc::kRead, file.server, encoded_size_read_call(),
      [file, offset, count](NfsServer& s) { return s.read(file, offset, count); },
      [](const NfsResult<ReadReply>& r) {
        return kReplyBytes + (r.ok() ? r.value().data.size() : 0);
      });
}

NfsResult<std::uint32_t> NfsClient::write(FileHandle file, std::uint64_t offset,
                                          const fs::Bytes& data) {
  // WRITE is idempotent at a fixed offset, so no DRC context is needed:
  // re-execution stores the same bytes.
  (void)next_xid();
  return transact<std::uint32_t>(
      NfsProc::kWrite, file.server, encoded_size_write_call(data.size()),
      [file, offset, data](NfsServer& s) { return s.write(file, offset, data); },
      [](const NfsResult<std::uint32_t>&) { return kReplyBytes; });
}

NfsResult<HandleReply> NfsClient::create(FileHandle dir, std::string_view name,
                                         std::uint32_t mode, std::uint32_t uid,
                                         std::uint32_t gid) {
  const std::uint32_t xid = next_xid();
  return transact<HandleReply>(
      NfsProc::kCreate, dir.server,
      encoded_size_create_call(name),
      [this, dir, name = ArgString(name, timed(retry_)), mode, uid, gid, xid](NfsServer& s) {
        return s.create(dir, name.view(), mode, uid, gid, rpc_ctx(xid));
      },
      [](const NfsResult<HandleReply>&) { return kReplyBytes; });
}

NfsResult<HandleReply> NfsClient::mkdir(FileHandle dir, std::string_view name,
                                        std::uint32_t mode, std::uint32_t uid,
                                        std::uint32_t gid) {
  const std::uint32_t xid = next_xid();
  return transact<HandleReply>(
      NfsProc::kMkdir, dir.server,
      encoded_size_create_call(name),
      [this, dir, name = ArgString(name, timed(retry_)), mode, uid, gid, xid](NfsServer& s) {
        return s.mkdir(dir, name.view(), mode, uid, gid, rpc_ctx(xid));
      },
      [](const NfsResult<HandleReply>&) { return kReplyBytes; });
}

NfsResult<HandleReply> NfsClient::symlink(FileHandle dir, std::string_view name,
                                          std::string_view target) {
  const std::uint32_t xid = next_xid();
  return transact<HandleReply>(
      NfsProc::kSymlink, dir.server,
      encoded_size_symlink_call(name, target),
      [this, dir, name = ArgString(name, timed(retry_)), target = ArgString(target, timed(retry_)),
       xid](NfsServer& s) {
        return s.symlink(dir, name.view(), target.view(), rpc_ctx(xid));
      },
      [](const NfsResult<HandleReply>&) { return kReplyBytes; });
}

NfsResult<std::string> NfsClient::readlink(FileHandle link) {
  (void)next_xid();
  return transact<std::string>(
      NfsProc::kReadlink, link.server, encoded_size_handle_call(),
      [link](NfsServer& s) { return s.readlink(link); },
      [](const NfsResult<std::string>& r) {
        return kReplyBytes + (r.ok() ? r.value().size() : 0);
      });
}

NfsResult<Unit> NfsClient::remove(FileHandle dir, std::string_view name) {
  const std::uint32_t xid = next_xid();
  return transact<Unit>(
      NfsProc::kRemove, dir.server,
      encoded_size_diropargs_call(name),
      [this, dir, name = ArgString(name, timed(retry_)), xid](NfsServer& s) {
        return s.remove(dir, name.view(), rpc_ctx(xid));
      },
      [](const NfsResult<Unit>&) { return kReplyBytes; });
}

NfsResult<Unit> NfsClient::rmdir(FileHandle dir, std::string_view name) {
  const std::uint32_t xid = next_xid();
  return transact<Unit>(
      NfsProc::kRmdir, dir.server,
      encoded_size_diropargs_call(name),
      [this, dir, name = ArgString(name, timed(retry_)), xid](NfsServer& s) {
        return s.rmdir(dir, name.view(), rpc_ctx(xid));
      },
      [](const NfsResult<Unit>&) { return kReplyBytes; });
}

NfsResult<Unit> NfsClient::rename(FileHandle from_dir, std::string_view from_name,
                                  FileHandle to_dir, std::string_view to_name) {
  if (from_dir.server != to_dir.server) return NfsStat::kInval;
  const std::uint32_t xid = next_xid();
  return transact<Unit>(
      NfsProc::kRename, from_dir.server,
      encoded_size_rename_call(from_name, to_name),
      [this, from_dir, from_name = ArgString(from_name, timed(retry_)), to_dir,
       to_name = ArgString(to_name, timed(retry_)), xid](NfsServer& s) {
        return s.rename(from_dir, from_name.view(), to_dir, to_name.view(), rpc_ctx(xid));
      },
      [](const NfsResult<Unit>&) { return kReplyBytes; });
}

NfsResult<ReaddirReply> NfsClient::readdir(FileHandle dir) {
  (void)next_xid();
  return transact<ReaddirReply>(
      NfsProc::kReaddir, dir.server, encoded_size_handle_call(),
      [dir](NfsServer& s) { return s.readdir(dir); },
      [](const NfsResult<ReaddirReply>& r) {
        return kReplyBytes + (r.ok() ? r.value().entries.size() * 40 : 0);
      });
}

NfsResult<FsstatReply> NfsClient::fsstat(net::HostId server) {
  (void)next_xid();
  return transact<FsstatReply>(
      NfsProc::kFsstat, server, encoded_size_handle_call(),
      [](NfsServer& s) { return s.fsstat(); },
      [](const NfsResult<FsstatReply>&) { return kReplyBytes; });
}

}  // namespace kosha::nfs
