// koshad — transparent fault handling (paper §4.2, §4.4).
//
// The failover half of the daemon: the bounded re-resolve-and-retry ladder
// every handler runs through (via the with_handle shim in koshad.hpp), the
// round-robin replica read path, and the degraded read that serves from a
// replica copy while the primary is unreachable. The degraded read probes
// every replica concurrently and keeps the earliest success. Request
// handlers live in koshad.cpp; path resolution in koshad_resolve.cpp.

#include "kosha/koshad.hpp"

#include "common/metrics.hpp"
#include "common/path.hpp"
#include "common/tracing.hpp"

namespace kosha {

namespace {

/// Failover ladder depth: re-resolve-and-retry rounds after a retryable
/// RPC error (each attempt already carries the NFS client's own
/// retransmission schedule underneath; see failover_ladder).
constexpr unsigned kFailoverRounds = 2;

}  // namespace

nfs::NfsStat Koshad::failover_ladder(
    VirtualHandle vh, const std::function<nfs::NfsStat(const Resolved&)>& attempt) {
  const VhEntry* entry = vht_.find(vh);
  if (entry == nullptr) return nfs::NfsStat::kStale;
  const std::string path = entry->path;  // copy: the ladder drops this entry below
  const Resolved cached{entry->real.server, entry->real, entry->stored_path, entry->type};

  // kosha-lint: edge(Koshad::with_handle): attempt is the type-erased retry
  // thunk with_handle builds; its calls are attributed to with_handle.
  nfs::NfsStat status = attempt(cached);
  if (status == nfs::NfsStat::kOk || !is_error_retryable(status)) {
    if (failover_depth_hist_ != nullptr) failover_depth_hist_->record(0.0);
    return status;
  }

  // Transparent fault handling (paper §4.4), widened into a bounded
  // ladder: each round drops the mapping, re-resolves the full path from
  // scratch (reaching a promoted replica), rebinds, and retries the
  // operation. One round reproduces the paper's retry-once behaviour;
  // additional rounds survive a promotion racing a brownout, since every
  // re-resolve routes through the overlay's *current* owner.
  unsigned depth = 0;
  for (unsigned round = 0; round < kFailoverRounds; ++round) {
    // Deadline propagation reaches the ladder too: once the operation's
    // budget (stamped at handler entry) has passed, the caller has given
    // up — burning more rounds on re-resolves and retries is dead work.
    // The op keeps its maybe-executed verdict: an earlier attempt may
    // have applied, so surface the retryable status we already hold.
    if (runtime_->config.overload.enabled && client_.op_deadline().ns > 0 &&
        runtime_->clock->now() > client_.op_deadline()) {
      ++stats_.ladder_deadline_aborts;
      ++stats_.failed_failovers;
      if (failover_depth_hist_ != nullptr) failover_depth_hist_->record(static_cast<double>(depth));
      return status;
    }
    ++stats_.failovers;
    depth = round + 1;
    SpanScope span(tracer(), "koshad.failover", host_);
    if (span.active()) span.tag("round", std::to_string(depth));
    const auto fresh = resolve_path(path, /*fresh=*/true);
    if (!fresh.ok()) {
      if (is_error_retryable(fresh.error()) && round + 1 < kFailoverRounds) {
        span.status(nfs::to_string(fresh.error()));
        continue;
      }
      ++stats_.failed_failovers;
      span.status(nfs::to_string(fresh.error()));
      if (failover_depth_hist_ != nullptr) {
        failover_depth_hist_->record(static_cast<double>(depth));
      }
      return fresh.error();
    }
    vht_.rebind(vh, fresh->stored_path, fresh->handle);
    status = attempt(*fresh);
    if (status == nfs::NfsStat::kOk || !is_error_retryable(status)) {
      if (status != nfs::NfsStat::kOk) span.status(nfs::to_string(status));
      if (failover_depth_hist_ != nullptr) {
        failover_depth_hist_->record(static_cast<double>(depth));
      }
      return status;
    }
    span.status(nfs::to_string(status));
  }
  ++stats_.failed_failovers;
  if (failover_depth_hist_ != nullptr) failover_depth_hist_->record(static_cast<double>(depth));
  return status;
}

std::optional<nfs::NfsResult<nfs::ReadReply>> Koshad::degraded_replica_read(
    const Resolved& resolved, std::uint64_t offset, std::uint32_t count) {
  ReplicaManager* rm = manager_of(resolved.host);
  if (rm == nullptr) return std::nullopt;
  const std::string hidden = ReplicaManager::hidden_root(rm->id()) + resolved.stored_path;
  SimClock& clock = *runtime_->clock;
  // Probe every replica concurrently: each probe departs at the same
  // instant and the earliest success wins, so the degraded read costs one
  // probe's latency instead of a sequential scan's.
  const SimDuration t0 = clock.now();
  std::optional<nfs::NfsResult<nfs::ReadReply>> best;
  SimDuration best_finish{};
  SimDuration slowest = t0;
  for (const pastry::NodeId target : rm->targets()) {
    if (!runtime_->overlay->is_live(target)) continue;
    const net::HostId host = runtime_->overlay->host_of(target);
    clock.set_now(t0);
    const auto looked = remote_lookup_path(host, hidden);
    if (clock.now() > slowest) slowest = clock.now();
    if (!looked.ok()) continue;  // replica lagging or also unreachable
    note_forward(host);
    auto reply = client_.read(looked->handle, offset, count);
    if (clock.now() > slowest) slowest = clock.now();
    if (!reply.ok()) continue;
    const SimDuration finish = clock.now();
    if (!best.has_value() || finish < best_finish) {  // strict <: ties keep the
      best = std::move(reply);                        // first-probed replica
      best_finish = finish;
    }
  }
  if (best.has_value()) {
    clock.set_now(best_finish);
    ++stats_.degraded_reads;
    return best;
  }
  // Every probe failed: the read waited out the slowest of them.
  clock.set_now(slowest);
  return std::nullopt;
}

std::optional<nfs::NfsResult<nfs::ReadReply>> Koshad::try_replica_read(
    const Resolved& resolved, std::uint64_t offset, std::uint32_t count) {
  ReplicaManager* rm = manager_of(resolved.host);
  if (rm == nullptr || rm->targets().empty()) return std::nullopt;
  const auto& targets = rm->targets();
  // Round-robin over {replica_0, ..., replica_{K-1}, primary}.
  const std::size_t pick = replica_read_cursor_++ % (targets.size() + 1);
  if (pick == targets.size()) return std::nullopt;  // the primary's turn
  const pastry::NodeId target = targets[pick];
  if (!runtime_->overlay->is_live(target)) return std::nullopt;
  const net::HostId host = runtime_->overlay->host_of(target);

  const std::string hidden =
      ReplicaManager::hidden_root(rm->id()) + resolved.stored_path;
  const std::string cache_key = std::to_string(host) + ":" + hidden;
  nfs::FileHandle handle;
  if (const auto it = replica_handle_cache_.find(cache_key);
      it != replica_handle_cache_.end()) {
    handle = it->second;
  } else {
    const auto looked = remote_lookup_path(host, hidden);
    if (!looked.ok()) return std::nullopt;  // replica lagging: use the primary
    handle = looked->handle;
    replica_handle_cache_[cache_key] = handle;
  }

  note_forward(host);
  auto reply = client_.read(handle, offset, count);
  if (!reply.ok()) {
    replica_handle_cache_.erase(cache_key);
    return std::nullopt;  // fall back to the primary copy
  }
  ++stats_.replica_reads;
  return reply;
}

}  // namespace kosha
