#include "nfs/nfs_server.hpp"

#include <cassert>

#include "common/metrics.hpp"
#include "common/tracing.hpp"

namespace kosha::nfs {

namespace {
/// Stamp an error status on a server-side span and pass the status through.
NfsStat fail(SpanScope& span, NfsStat status) {
  span.status(to_string(status));
  return status;
}
}  // namespace

const char* to_string(NfsStat status) {
  switch (status) {
    case NfsStat::kOk:
      return "NFS_OK";
    case NfsStat::kNoEnt:
      return "NFS3ERR_NOENT";
    case NfsStat::kExist:
      return "NFS3ERR_EXIST";
    case NfsStat::kNotDir:
      return "NFS3ERR_NOTDIR";
    case NfsStat::kIsDir:
      return "NFS3ERR_ISDIR";
    case NfsStat::kNotEmpty:
      return "NFS3ERR_NOTEMPTY";
    case NfsStat::kNoSpace:
      return "NFS3ERR_NOSPC";
    case NfsStat::kInval:
      return "NFS3ERR_INVAL";
    case NfsStat::kStale:
      return "NFS3ERR_STALE";
    case NfsStat::kCorrupt:
      return "NFS3ERR_CORRUPT";
    case NfsStat::kUnreachable:
      return "NFS3ERR_UNREACHABLE";
    case NfsStat::kTimedOut:
      return "NFS3ERR_TIMEDOUT";
    case NfsStat::kOverloaded:
      return "NFS3ERR_OVERLOADED";
  }
  return "?";
}

NfsStat from_fs(fs::FsStatus status) {
  switch (status) {
    case fs::FsStatus::kOk:
      return NfsStat::kOk;
    case fs::FsStatus::kNoEnt:
      return NfsStat::kNoEnt;
    case fs::FsStatus::kExist:
      return NfsStat::kExist;
    case fs::FsStatus::kNotDir:
      return NfsStat::kNotDir;
    case fs::FsStatus::kIsDir:
      return NfsStat::kIsDir;
    case fs::FsStatus::kNotEmpty:
      return NfsStat::kNotEmpty;
    case fs::FsStatus::kNoSpace:
      return NfsStat::kNoSpace;
    case fs::FsStatus::kInval:
      return NfsStat::kInval;
    case fs::FsStatus::kStale:
      return NfsStat::kStale;
    case fs::FsStatus::kCorrupt:
      return NfsStat::kCorrupt;
  }
  return NfsStat::kInval;
}

NfsServer::NfsServer(net::HostId host, fs::StorageConfig storage, NfsCostModel costs,
                     SimClock* clock)
    : host_(host), store_(fs::make_backend(storage)), costs_(costs), clock_(clock) {}

void NfsServer::charge(SimDuration cost) {
  ++rpc_count_;
  if (clock_ != nullptr) clock_->advance(costs_.rpc_base + cost);
}

void NfsServer::charge_data(std::size_t bytes) {
  if (clock_ != nullptr) {
    clock_->advance(SimDuration::nanos(costs_.data_per_kib.ns *
                                       static_cast<std::int64_t>(bytes) / 1024));
  }
}

bool NfsServer::reject_expired(RpcContext ctx) {
  if (ctx.deadline.ns <= 0 || clock_ == nullptr || clock_->now() <= ctx.deadline) return false;
  // Decode cost only (rpc_base): shedding must stay far cheaper than the
  // metadata op it avoids, or rejection would not relieve the server.
  charge(SimDuration{});
  ++deadline_rejects_;
  return true;
}

const NfsServer::DrcEntry* NfsServer::drc_find(RpcContext ctx, ReplyShape want) {
  if (!ctx.valid()) return nullptr;
  const auto it = drc_.find(drc_key(ctx));
  if (it == drc_.end()) {
    if (drc_miss_ != nullptr) drc_miss_->inc();
    return nullptr;
  }
  if (it->second.boot != ctx.boot || it->second.shape != want) {
    // Stale entry from a previous client incarnation, or a (client, xid)
    // collision across procedure shapes: this is not a retransmission of
    // the cached request — re-execute instead of answering with a reply
    // that belongs to someone else.
    if (drc_miss_ != nullptr) drc_miss_->inc();
    return nullptr;
  }
  ++drc_stats_.hits;
  if (drc_hit_ != nullptr) drc_hit_->inc();
  return &it->second;
}

NfsServer::DrcEntry NfsServer::DrcEntry::of(const NfsResult<HandleReply>& reply) {
  if (!reply.ok()) return {.status = reply.error(), .shape = ReplyShape::kHandle};
  return {.shape = ReplyShape::kHandle, .handle = reply->handle, .attr = reply->attr};
}

NfsServer::DrcEntry NfsServer::DrcEntry::of(const NfsResult<fs::Attr>& reply) {
  if (!reply.ok()) return {.status = reply.error(), .shape = ReplyShape::kAttr};
  return {.shape = ReplyShape::kAttr, .attr = *reply};
}

NfsServer::DrcEntry NfsServer::DrcEntry::of(const NfsResult<Unit>& reply) {
  return {.status = reply.ok() ? NfsStat::kOk : reply.error(), .shape = ReplyShape::kUnit};
}

NfsResult<HandleReply> NfsServer::DrcEntry::handle_reply() const {
  if (status != NfsStat::kOk) return status;
  return HandleReply{handle, attr};
}

NfsResult<fs::Attr> NfsServer::DrcEntry::attr_reply() const {
  if (status != NfsStat::kOk) return status;
  return attr;
}

NfsResult<Unit> NfsServer::DrcEntry::unit_reply() const {
  if (status != NfsStat::kOk) return status;
  return Unit{};
}

void NfsServer::drc_store(RpcContext ctx, DrcEntry entry) {
  static_assert(sizeof(DrcEntry) <= 88, "a cached reply is one flat entry");
  if (!ctx.valid()) return;
  entry.boot = ctx.boot;
  const std::uint64_t key = drc_key(ctx);
  // A re-executed request whose key matched a stale entry (incarnation or
  // shape mismatch in drc_find) must replace that entry, or its own
  // retransmissions would re-execute on every arrival. The replacement
  // keeps the key's place in the FIFO.
  if (const auto it = drc_.find(key); it != drc_.end()) {
    it->second = entry;
  } else if (drc_order_.size() < kDrcCapacity) {
    if (drc_order_.empty()) drc_order_.reserve(kDrcFirstKeys);
    drc_.emplace(key, entry);
    drc_order_.push_back(key);
  } else {
    // Full: the oldest key's node carries the new reply, so a full cache
    // stores without allocating or freeing.
    auto node = drc_.extract(drc_order_[drc_oldest_]);
    assert(!node.empty());
    node.key() = key;
    node.mapped() = entry;
    drc_.insert(std::move(node));
    drc_order_[drc_oldest_] = key;
    drc_oldest_ = (drc_oldest_ + 1) % kDrcCapacity;
  }
  ++drc_stats_.stores;
  if (drc_store_ != nullptr) drc_store_->inc();
}

void NfsServer::set_observability(MetricsRegistry* metrics, Tracer* tracer) {
  tracer_ = tracer;
  if (metrics != nullptr) {
    drc_hit_ = metrics->counter("nfs.server.drc.hit");
    drc_miss_ = metrics->counter("nfs.server.drc.miss");
    drc_store_ = metrics->counter("nfs.server.drc.store");
  } else {
    drc_hit_ = drc_miss_ = drc_store_ = nullptr;
  }
}

void NfsServer::clear_drc() {
  drc_.clear();
  drc_order_.clear();
  drc_oldest_ = 0;
}

NfsResult<fs::InodeId> NfsServer::resolve(FileHandle handle) const {
  if (!handle.valid() || handle.server != host_) return NfsStat::kStale;
  const auto attr = store_->getattr(handle.inode);
  if (!attr.ok()) return NfsStat::kStale;
  if (attr.value().generation != handle.generation) return NfsStat::kStale;
  return handle.inode;
}

FileHandle NfsServer::handle_for(fs::InodeId inode) const {
  const auto attr = store_->getattr(inode);
  return {host_, inode, attr.ok() ? attr.value().generation : 0};
}

FileHandle NfsServer::root_handle() const { return handle_for(store_->root()); }

NfsResult<HandleReply> NfsServer::lookup(FileHandle dir, std::string_view name) {
  SpanScope span(tracer_, "server.lookup", host_);
  charge(costs_.read_meta);
  const auto d = resolve(dir);
  if (!d.ok()) return fail(span, d.error());
  const auto inode = store_->lookup(d.value(), name);
  if (!inode.ok()) return fail(span, from_fs(inode.error()));
  const auto attr = store_->getattr(inode.value());
  if (!attr.ok()) return fail(span, from_fs(attr.error()));
  return HandleReply{handle_for(inode.value()), attr.value()};
}

NfsResult<fs::Attr> NfsServer::getattr(FileHandle obj) {
  SpanScope span(tracer_, "server.getattr", host_);
  charge(costs_.read_meta);
  const auto inode = resolve(obj);
  if (!inode.ok()) return fail(span, inode.error());
  const auto attr = store_->getattr(inode.value());
  if (!attr.ok()) return fail(span, from_fs(attr.error()));
  return attr.value();
}

NfsResult<fs::Attr> NfsServer::set_mode(FileHandle obj, std::uint32_t mode,
                                        RpcContext ctx) {
  SpanScope span(tracer_, ctx.trace, "server.set_mode", host_);
  if (reject_expired(ctx)) return fail(span, NfsStat::kOverloaded);
  if (const DrcEntry* hit = drc_find(ctx, ReplyShape::kAttr)) {
    span.tag("drc", "hit");
    charge(costs_.read_meta);
    return hit->attr_reply();
  }
  charge(costs_.metadata_op);
  const auto inode = resolve(obj);
  if (!inode.ok()) return fail(span, inode.error());
  NfsResult<fs::Attr> reply = NfsStat::kInval;
  if (const auto r = store_->set_mode(inode.value(), mode); !r.ok()) {
    reply = fail(span, from_fs(r.error()));
  } else {
    reply = *store_->getattr(inode.value());
  }
  drc_store(ctx, DrcEntry::of(reply));
  return reply;
}

NfsResult<fs::Attr> NfsServer::truncate(FileHandle obj, std::uint64_t size,
                                        RpcContext ctx) {
  SpanScope span(tracer_, ctx.trace, "server.truncate", host_);
  if (reject_expired(ctx)) return fail(span, NfsStat::kOverloaded);
  if (const DrcEntry* hit = drc_find(ctx, ReplyShape::kAttr)) {
    span.tag("drc", "hit");
    charge(costs_.read_meta);
    return hit->attr_reply();
  }
  charge(costs_.metadata_op);
  const auto inode = resolve(obj);
  if (!inode.ok()) return fail(span, inode.error());
  NfsResult<fs::Attr> reply = NfsStat::kInval;
  if (const auto r = store_->truncate(inode.value(), size); !r.ok()) {
    reply = fail(span, from_fs(r.error()));
  } else {
    reply = *store_->getattr(inode.value());
  }
  drc_store(ctx, DrcEntry::of(reply));
  return reply;
}

NfsResult<ReadReply> NfsServer::read(FileHandle file, std::uint64_t offset,
                                     std::uint32_t count) {
  SpanScope span(tracer_, "server.read", host_);
  charge(costs_.read_meta);
  const auto inode = resolve(file);
  if (!inode.ok()) return fail(span, inode.error());
  auto data = store_->read(inode.value(), offset, count);
  if (!data.ok()) return fail(span, from_fs(data.error()));
  charge_data(data.value().size());
  const auto attr = *store_->getattr(inode.value());
  const bool eof = offset + data.value().size() >= attr.size;
  return ReadReply{std::move(data.value()), eof};
}

NfsResult<std::uint32_t> NfsServer::write(FileHandle file, std::uint64_t offset,
                                          const fs::Bytes& data) {
  SpanScope span(tracer_, "server.write", host_);
  charge(costs_.read_meta);
  const auto inode = resolve(file);
  if (!inode.ok()) return fail(span, inode.error());
  const auto written = store_->write(inode.value(), offset, data);
  if (!written.ok()) return fail(span, from_fs(written.error()));
  charge_data(data.size());
  return written.value();
}

NfsResult<HandleReply> NfsServer::create(FileHandle dir, std::string_view name,
                                         std::uint32_t mode, std::uint32_t uid,
                                         std::uint32_t gid, RpcContext ctx) {
  // Parent under the trace context the RPC carried: on a retransmission the
  // execution still joins the originating client operation's trace.
  SpanScope span(tracer_, ctx.trace, "server.create", host_);
  if (reject_expired(ctx)) return fail(span, NfsStat::kOverloaded);
  if (const DrcEntry* hit = drc_find(ctx, ReplyShape::kHandle)) {
    span.tag("drc", "hit");
    charge(costs_.read_meta);
    return hit->handle_reply();
  }
  charge(costs_.metadata_op);
  const auto d = resolve(dir);
  if (!d.ok()) return fail(span, d.error());
  const auto inode = store_->create(d.value(), name, mode, uid, gid);
  if (!inode.ok()) {
    drc_store(ctx, {.status = from_fs(inode.error()), .shape = ReplyShape::kHandle});
    return fail(span, from_fs(inode.error()));
  }
  const HandleReply reply{handle_for(inode.value()), *store_->getattr(inode.value())};
  drc_store(ctx, DrcEntry::of(reply));
  return reply;
}

NfsResult<HandleReply> NfsServer::mkdir(FileHandle dir, std::string_view name,
                                        std::uint32_t mode, std::uint32_t uid,
                                        std::uint32_t gid, RpcContext ctx) {
  SpanScope span(tracer_, ctx.trace, "server.mkdir", host_);
  if (reject_expired(ctx)) return fail(span, NfsStat::kOverloaded);
  if (const DrcEntry* hit = drc_find(ctx, ReplyShape::kHandle)) {
    span.tag("drc", "hit");
    charge(costs_.read_meta);
    return hit->handle_reply();
  }
  charge(costs_.metadata_op);
  const auto d = resolve(dir);
  if (!d.ok()) return fail(span, d.error());
  const auto inode = store_->mkdir(d.value(), name, mode, uid, gid);
  if (!inode.ok()) {
    drc_store(ctx, {.status = from_fs(inode.error()), .shape = ReplyShape::kHandle});
    return fail(span, from_fs(inode.error()));
  }
  const HandleReply reply{handle_for(inode.value()), *store_->getattr(inode.value())};
  drc_store(ctx, DrcEntry::of(reply));
  return reply;
}

NfsResult<HandleReply> NfsServer::symlink(FileHandle dir, std::string_view name,
                                          std::string_view target, RpcContext ctx) {
  SpanScope span(tracer_, ctx.trace, "server.symlink", host_);
  if (reject_expired(ctx)) return fail(span, NfsStat::kOverloaded);
  if (const DrcEntry* hit = drc_find(ctx, ReplyShape::kHandle)) {
    span.tag("drc", "hit");
    charge(costs_.read_meta);
    return hit->handle_reply();
  }
  charge(costs_.metadata_op);
  const auto d = resolve(dir);
  if (!d.ok()) return fail(span, d.error());
  const auto inode = store_->symlink(d.value(), name, target);
  if (!inode.ok()) {
    drc_store(ctx, {.status = from_fs(inode.error()), .shape = ReplyShape::kHandle});
    return fail(span, from_fs(inode.error()));
  }
  const HandleReply reply{handle_for(inode.value()), *store_->getattr(inode.value())};
  drc_store(ctx, DrcEntry::of(reply));
  return reply;
}

NfsResult<std::string> NfsServer::readlink(FileHandle link) {
  SpanScope span(tracer_, "server.readlink", host_);
  charge(costs_.read_meta);
  const auto inode = resolve(link);
  if (!inode.ok()) return fail(span, inode.error());
  auto target = store_->readlink(inode.value());
  if (!target.ok()) return fail(span, from_fs(target.error()));
  return target.value();
}

NfsResult<Unit> NfsServer::remove(FileHandle dir, std::string_view name, RpcContext ctx) {
  SpanScope span(tracer_, ctx.trace, "server.remove", host_);
  if (reject_expired(ctx)) return fail(span, NfsStat::kOverloaded);
  if (const DrcEntry* hit = drc_find(ctx, ReplyShape::kUnit)) {
    span.tag("drc", "hit");
    charge(costs_.read_meta);
    return hit->unit_reply();
  }
  charge(costs_.metadata_op);
  const auto d = resolve(dir);
  if (!d.ok()) return fail(span, d.error());
  NfsResult<Unit> reply = Unit{};
  if (const auto r = store_->remove(d.value(), name); !r.ok()) {
    reply = fail(span, from_fs(r.error()));
  }
  drc_store(ctx, DrcEntry::of(reply));
  return reply;
}

NfsResult<Unit> NfsServer::rmdir(FileHandle dir, std::string_view name, RpcContext ctx) {
  SpanScope span(tracer_, ctx.trace, "server.rmdir", host_);
  if (reject_expired(ctx)) return fail(span, NfsStat::kOverloaded);
  if (const DrcEntry* hit = drc_find(ctx, ReplyShape::kUnit)) {
    span.tag("drc", "hit");
    charge(costs_.read_meta);
    return hit->unit_reply();
  }
  charge(costs_.metadata_op);
  const auto d = resolve(dir);
  if (!d.ok()) return fail(span, d.error());
  NfsResult<Unit> reply = Unit{};
  if (const auto r = store_->rmdir(d.value(), name); !r.ok()) {
    reply = fail(span, from_fs(r.error()));
  }
  drc_store(ctx, DrcEntry::of(reply));
  return reply;
}

NfsResult<Unit> NfsServer::rename(FileHandle from_dir, std::string_view from_name,
                                  FileHandle to_dir, std::string_view to_name,
                                  RpcContext ctx) {
  SpanScope span(tracer_, ctx.trace, "server.rename", host_);
  if (reject_expired(ctx)) return fail(span, NfsStat::kOverloaded);
  if (const DrcEntry* hit = drc_find(ctx, ReplyShape::kUnit)) {
    span.tag("drc", "hit");
    charge(costs_.read_meta);
    return hit->unit_reply();
  }
  charge(costs_.metadata_op);
  const auto fd = resolve(from_dir);
  if (!fd.ok()) return fail(span, fd.error());
  const auto td = resolve(to_dir);
  if (!td.ok()) return fail(span, td.error());
  NfsResult<Unit> reply = Unit{};
  if (const auto r = store_->rename(fd.value(), from_name, td.value(), to_name); !r.ok()) {
    reply = fail(span, from_fs(r.error()));
  }
  drc_store(ctx, DrcEntry::of(reply));
  return reply;
}

NfsResult<ReaddirReply> NfsServer::readdir(FileHandle dir) {
  SpanScope span(tracer_, "server.readdir", host_);
  charge(costs_.read_meta);
  const auto d = resolve(dir);
  if (!d.ok()) return fail(span, d.error());
  auto entries = store_->readdir(d.value());
  if (!entries.ok()) return fail(span, from_fs(entries.error()));
  return ReaddirReply{std::move(entries.value())};
}

NfsResult<FsstatReply> NfsServer::fsstat() {
  SpanScope span(tracer_, "server.fsstat", host_);
  charge(costs_.read_meta);
  return FsstatReply{store_->capacity_bytes(), store_->used_bytes(), store_->utilization()};
}

}  // namespace kosha::nfs
