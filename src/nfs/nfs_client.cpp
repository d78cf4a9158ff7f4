#include "nfs/nfs_client.hpp"

#include <algorithm>
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
/// an owned copy in timed mode. Handles and scalars are captured by value.
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
}

NfsClient::SendOutcome NfsClient::send_request(net::HostId server, std::size_t request_bytes,
                                               NfsServer** out) {
  NfsServer* s = directory_->find(server);
  if (s == nullptr || !network_->is_up(server)) return SendOutcome::kHardDown;
  if (!network_->try_message(self_, server, request_bytes)) return SendOutcome::kLost;
  *out = s;
  return SendOutcome::kSent;
}

bool NfsClient::deliver_reply(net::HostId server, std::size_t reply_bytes) {
  return network_->try_message(server, self_, reply_bytes);
}

SimDuration NfsClient::backoff_duration(unsigned attempt) {
  return retry_.jittered_backoff(attempt, jitter_rng_);
}

void NfsClient::backoff(unsigned attempt) { network_->clock().advance(backoff_duration(attempt)); }

NfsClient::ProcMetrics& NfsClient::proc_metrics(NfsProc proc) {
  ProcMetrics& pm = proc_metrics_[proc_slot(proc)];
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
  NfsResult<ReplyT> reply = transact_impl<ReplyT>(
      proc_slot(proc), server, request_bytes, std::forward<Invoke>(invoke),
      std::forward<ReplyBytes>(reply_bytes));
  if (network_->metrics() != nullptr) {
    ProcMetrics& pm = proc_metrics(proc);
    pm.latency->record((network_->clock().now() - start).to_micros());
    (reply.ok() ? pm.ok : pm.error)->inc();
  }
  if (SimProfiler* prof = network_->profiler(); prof != nullptr) prof->note_op();
  if (!reply.ok()) span.status(to_string(reply.error()));
  return reply;
}

template <typename ReplyT, typename Invoke, typename ReplyBytes>
NfsResult<ReplyT> NfsClient::transact_impl(std::size_t proc_slot, net::HostId server,
                                           std::size_t request_bytes, Invoke&& invoke,
                                           ReplyBytes&& reply_bytes) {
  // With an event loop attached (every KoshaCluster), run the RPC through
  // the completion-based core and drive the loop until our completion
  // fires. The serial path below serves two callers: a client on a network
  // without a loop (the baseline NFS comparator), and background work under
  // a paused clock, whose charges are no-ops and must not occupy real
  // service-queue time.
  if (EventLoop* loop = network_->loop();
      loop != nullptr && !network_->clock().paused()) {
    std::optional<NfsResult<ReplyT>> final_reply;
    call_async<ReplyT>(proc_slot, server, request_bytes, std::forward<Invoke>(invoke),
                       std::forward<ReplyBytes>(reply_bytes),
                       [&final_reply](NfsResult<ReplyT> r) { final_reply = std::move(r); });
    loop->run_until([&final_reply] { return final_reply.has_value(); });
    assert(final_reply.has_value());
    if (!final_reply.has_value()) return NfsStat::kTimedOut;
    return *std::move(final_reply);
  }

  if (overload_.enabled) {
    if (budget_.has_value()) budget_->earn();
    // Background work under a paused clock is low-priority and sheds at
    // the tighter admission bound so anti-entropy yields to client RPCs.
    const bool low_priority = network_->clock().paused();
    const SimDuration now = network_->clock().now();
    // Background work runs between foreground ops, when the last stamped
    // op deadline is stale — it sheds on the low-priority bound only.
    const SimDuration deadline = low_priority ? SimDuration{} : op_deadline_;
    if (network_->admit(server, now, deadline, low_priority) !=
        net::SimNetwork::Admit::kAdmit) {
      return NfsStat::kOverloaded;
    }
    if (CircuitBreaker* b = breaker_for(server); b != nullptr && !b->allow(now)) {
      return NfsStat::kOverloaded;
    }
  }

  const unsigned attempts = std::max(1u, retry_.max_attempts);
  // Whether any request was delivered (and thus the procedure executed at
  // least once). Decides the give-up status: kTimedOut when the op may
  // have taken effect, kUnreachable when it certainly did not.
  bool executed = false;
  for (unsigned attempt = 0;; ++attempt) {
    NfsServer* s = nullptr;
    switch (send_request(server, request_bytes, &s)) {
      case SendOutcome::kHardDown:
        // Permanent death is detected in one timeout and never retried:
        // failover (not retransmission) is the right reaction.
        network_->charge_timeout();
        network_->note_proc_timeout(proc_slot);
        if (CircuitBreaker* b = breaker_for(server)) b->on_failure(network_->clock().now());
        return executed ? NfsStat::kTimedOut : NfsStat::kUnreachable;
      case SendOutcome::kLost:
        network_->charge_timeout();
        network_->note_proc_timeout(proc_slot);
        if (CircuitBreaker* b = breaker_for(server)) b->on_failure(network_->clock().now());
        break;
      case SendOutcome::kSent: {
        executed = true;
        network_->note_proc_message(proc_slot, request_bytes);
        NfsResult<ReplyT> reply = invoke(*s);
        const std::size_t rb = reply_bytes(reply);
        if (deliver_reply(server, rb)) {
          network_->note_proc_message(proc_slot, rb);
          if (overload_.enabled) {
            if (!reply.ok() && reply.error() == NfsStat::kOverloaded) {
              ++overloaded_replies_;
              if (CircuitBreaker* b = breaker_for(server)) {
                b->on_failure(network_->clock().now());
              }
            } else if (CircuitBreaker* b = breaker_for(server)) {
              b->on_success();
            }
          }
          return reply;
        }
        // Reply lost: the op may have executed — the retransmission below
        // reuses the xid so the server's DRC returns this very reply.
        network_->charge_timeout();
        network_->note_proc_timeout(proc_slot);
        if (CircuitBreaker* b = breaker_for(server)) b->on_failure(network_->clock().now());
        break;
      }
    }
    if (attempt + 1 >= attempts) {
      return executed ? NfsStat::kTimedOut : NfsStat::kUnreachable;
    }
    if (overload_.enabled && budget_.has_value() && !budget_->spend()) {
      // Out of retry tokens: shed our own retransmission.
      return executed ? NfsStat::kTimedOut : NfsStat::kOverloaded;
    }
    network_->count_retry(proc_slot);
    backoff(attempt);
  }
}

NfsResult<FileHandle> NfsClient::mount(net::HostId server) {
  return transact<FileHandle>(
      NfsProc::kMount, server, encode_mount_call(next_xid()).size(),
      [](NfsServer& s) -> NfsResult<FileHandle> { return s.root_handle(); },
      [](const NfsResult<FileHandle>&) { return kReplyBytes; });
}

NfsResult<HandleReply> NfsClient::lookup(FileHandle dir, std::string_view name) {
  return transact<HandleReply>(
      NfsProc::kLookup, dir.server,
      encode_diropargs_call(next_xid(), NfsProc::kLookup, dir, name).size(),
      [dir, name = ArgString(name, timed(retry_))](NfsServer& s) {
        return s.lookup(dir, name.view());
      },
      [](const NfsResult<HandleReply>&) { return kReplyBytes; });
}

NfsResult<fs::Attr> NfsClient::getattr(FileHandle obj) {
  return transact<fs::Attr>(
      NfsProc::kGetattr, obj.server,
      encode_handle_call(next_xid(), NfsProc::kGetattr, obj).size(),
      [obj](NfsServer& s) { return s.getattr(obj); },
      [](const NfsResult<fs::Attr>&) { return kReplyBytes; });
}

NfsResult<fs::Attr> NfsClient::set_mode(FileHandle obj, std::uint32_t mode) {
  // SETATTR is non-idempotent on the wire: the retransmission carries the
  // same xid so the server's DRC answers an already-executed request.
  const std::uint32_t xid = next_xid();
  return transact<fs::Attr>(
      NfsProc::kSetattr, obj.server,
      encode_setattr_call(xid, obj, true, mode, false, 0).size(),
      [this, obj, mode, xid](NfsServer& s) { return s.set_mode(obj, mode, rpc_ctx(xid)); },
      [](const NfsResult<fs::Attr>&) { return kReplyBytes; });
}

NfsResult<fs::Attr> NfsClient::truncate(FileHandle obj, std::uint64_t size) {
  const std::uint32_t xid = next_xid();
  return transact<fs::Attr>(
      NfsProc::kSetattr, obj.server,
      encode_setattr_call(xid, obj, false, 0, true, size).size(),
      [this, obj, size, xid](NfsServer& s) { return s.truncate(obj, size, rpc_ctx(xid)); },
      [](const NfsResult<fs::Attr>&) { return kReplyBytes; });
}

NfsResult<ReadReply> NfsClient::read(FileHandle file, std::uint64_t offset,
                                     std::uint32_t count) {
  return transact<ReadReply>(
      NfsProc::kRead, file.server,
      encode_read_call(next_xid(), file, offset, count).size(),
      [file, offset, count](NfsServer& s) { return s.read(file, offset, count); },
      [](const NfsResult<ReadReply>& r) {
        return kReplyBytes + (r.ok() ? r.value().data.size() : 0);
      });
}

NfsResult<std::uint32_t> NfsClient::write(FileHandle file, std::uint64_t offset,
                                          std::string_view data) {
  // WRITE is idempotent at a fixed offset, so no DRC context is needed:
  // re-execution stores the same bytes.
  return transact<std::uint32_t>(
      NfsProc::kWrite, file.server,
      encode_write_call(next_xid(), file, offset, data).size(),
      [file, offset, data = ArgString(data, timed(retry_))](NfsServer& s) {
        return s.write(file, offset, data.view());
      },
      [](const NfsResult<std::uint32_t>&) { return kReplyBytes; });
}

NfsResult<HandleReply> NfsClient::create(FileHandle dir, std::string_view name,
                                         std::uint32_t mode, std::uint32_t uid,
                                         std::uint32_t gid) {
  const std::uint32_t xid = next_xid();
  return transact<HandleReply>(
      NfsProc::kCreate, dir.server,
      encode_create_call(xid, NfsProc::kCreate, dir, name, mode, uid).size(),
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
      encode_create_call(xid, NfsProc::kMkdir, dir, name, mode, uid).size(),
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
      encode_symlink_call(xid, dir, name, target).size(),
      [this, dir, name = ArgString(name, timed(retry_)), target = ArgString(target, timed(retry_)),
       xid](NfsServer& s) {
        return s.symlink(dir, name.view(), target.view(), rpc_ctx(xid));
      },
      [](const NfsResult<HandleReply>&) { return kReplyBytes; });
}

NfsResult<std::string> NfsClient::readlink(FileHandle link) {
  return transact<std::string>(
      NfsProc::kReadlink, link.server,
      encode_handle_call(next_xid(), NfsProc::kReadlink, link).size(),
      [link](NfsServer& s) { return s.readlink(link); },
      [](const NfsResult<std::string>& r) {
        return kReplyBytes + (r.ok() ? r.value().size() : 0);
      });
}

NfsResult<Unit> NfsClient::remove(FileHandle dir, std::string_view name) {
  const std::uint32_t xid = next_xid();
  return transact<Unit>(
      NfsProc::kRemove, dir.server,
      encode_diropargs_call(xid, NfsProc::kRemove, dir, name).size(),
      [this, dir, name = ArgString(name, timed(retry_)), xid](NfsServer& s) {
        return s.remove(dir, name.view(), rpc_ctx(xid));
      },
      [](const NfsResult<Unit>&) { return kReplyBytes; });
}

NfsResult<Unit> NfsClient::rmdir(FileHandle dir, std::string_view name) {
  const std::uint32_t xid = next_xid();
  return transact<Unit>(
      NfsProc::kRmdir, dir.server,
      encode_diropargs_call(xid, NfsProc::kRmdir, dir, name).size(),
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
      encode_rename_call(xid, from_dir, from_name, to_dir, to_name).size(),
      [this, from_dir, from_name = ArgString(from_name, timed(retry_)), to_dir,
       to_name = ArgString(to_name, timed(retry_)), xid](NfsServer& s) {
        return s.rename(from_dir, from_name.view(), to_dir, to_name.view(), rpc_ctx(xid));
      },
      [](const NfsResult<Unit>&) { return kReplyBytes; });
}

NfsResult<ReaddirReply> NfsClient::readdir(FileHandle dir) {
  return transact<ReaddirReply>(
      NfsProc::kReaddir, dir.server,
      encode_handle_call(next_xid(), NfsProc::kReaddir, dir).size(),
      [dir](NfsServer& s) { return s.readdir(dir); },
      [](const NfsResult<ReaddirReply>& r) {
        return kReplyBytes + (r.ok() ? r.value().entries.size() * 40 : 0);
      });
}

NfsResult<FsstatReply> NfsClient::fsstat(net::HostId server) {
  return transact<FsstatReply>(
      NfsProc::kFsstat, server,
      encode_handle_call(next_xid(), NfsProc::kFsstat, FileHandle{server, 1, 1}).size(),
      [](NfsServer& s) { return s.fsstat(); },
      [](const NfsResult<FsstatReply>&) { return kReplyBytes; });
}

}  // namespace kosha::nfs
