#pragma once

// NFS client: issues RPCs to servers across the simulated network.
//
// Destination selection uses the server id embedded in the (opaque) handle.
// Every RPC runs as events on the network's event loop (call_async); the
// synchronous API submits one call and drives the loop until it completes.
// RPCs are foreground work only. Background work (membership, mirror
// fan-out, repair, migration) reaches remote stores directly and counts
// its traffic with SimNetwork::count_message, which never moves the clock.
// Two failure regimes are distinguished:
//   * hard-down — the host is marked dead (or its server was erased from
//     the directory, e.g. retirement): one timeout, kUnreachable, no
//     retries. This is the error Kosha's transparent fault handling reacts
//     to (paper §4.4).
//   * transient — the fault plan lost a message (drop/brownout/partition):
//     the client times out, backs off on the virtual clock, and
//     retransmits under the *same* xid up to RetryPolicy::max_attempts.
//     With overload control on, every retransmission spends one token of
//     the retry budget and every lost attempt counts as a breaker failure.
//     Non-idempotent retransmissions are made safe by the server's
//     duplicate-request cache (see nfs_server.hpp).
//
// When attempts run out the final status depends on what was delivered:
// kUnreachable if no request ever reached the server (the op certainly did
// not execute — safe to re-issue), kTimedOut if at least one did (the op
// may have executed with its reply lost — re-issuing a non-idempotent op
// requires adopting an already-applied result; see koshad's ladder).
//
// A third regime exists when RetryPolicy::response_timeout > 0: a
// *delivered* request whose reply has not come back within the timeout is
// abandoned and retransmitted. The abandoned copy keeps queueing and
// executing server-side — that dead work is the raw material of
// metastable congestive collapse, which is why abandonment is only ever
// paired with the overload controls configured through
// configure_overload(): a token-bucket retry budget bounds retransmission
// amplification, a per-server circuit breaker stops offering load to a
// host that keeps failing, and kOverloaded admission rejections back off
// on the budget instead of retransmitting naively.

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/event_loop.hpp"
#include "common/rng.hpp"
#include "common/tracing.hpp"
#include "nfs/nfs_server.hpp"
#include "nfs/retry_policy.hpp"
#include "nfs/wire.hpp"

namespace kosha {
class Counter;
class Histogram;
}  // namespace kosha

namespace kosha::nfs {

/// Host -> server registry (the simulation's stand-in for portmap/mountd).
class ServerDirectory {
 public:
  void add(NfsServer* server) { servers_[server->host()] = server; }
  void erase(net::HostId host) { servers_.erase(host); }
  [[nodiscard]] NfsServer* find(net::HostId host) const {
    const auto it = servers_.find(host);
    return it == servers_.end() ? nullptr : it->second;
  }

 private:
  std::unordered_map<net::HostId, NfsServer*> servers_;
};

class NfsClient {
 public:
  /// `boot` is this client incarnation's verifier (see RpcContext::boot):
  /// give every restart of a host's client a value never used by that host
  /// before, so its restarted xid counter cannot match duplicate-request
  /// cache entries left over from the previous incarnation.
  NfsClient(net::SimNetwork* network, const ServerDirectory* directory, net::HostId self,
            RetryPolicy retry = {}, std::uint64_t jitter_seed = 0, std::uint64_t boot = 0);

  [[nodiscard]] net::HostId self() const { return self_; }
  [[nodiscard]] std::uint64_t boot() const { return boot_; }
  /// The xid the most recent RPC took (0 before the first).
  [[nodiscard]] std::uint32_t last_xid() const { return xid_; }
  [[nodiscard]] const RetryPolicy& retry_policy() const { return retry_; }
  void set_retry_policy(RetryPolicy policy) { retry_ = policy; }

  /// Arm the client-side overload controls (retry budget, per-server
  /// circuit breakers, admission checks, deadline propagation). With
  /// `config.enabled == false` — the default state — every call path is
  /// numerically identical to a client without overload control.
  void configure_overload(const OverloadControlConfig& config) {
    overload_ = config;
    budget_.reset();
    breakers_.clear();
    if (overload_.enabled) budget_.emplace(overload_.retry_budget_cap, overload_.retry_budget_refill);
  }
  [[nodiscard]] const OverloadControlConfig& overload_config() const { return overload_; }

  /// Absolute deadline stamped into every subsequent RPC's context (see
  /// RpcContext::deadline): koshad sets it from its op budget at handler
  /// entry so servers and the failover ladder stop burning time on work
  /// the caller has abandoned. 0 (the default) propagates no deadline.
  void set_op_deadline(SimDuration deadline) { op_deadline_ = deadline; }
  [[nodiscard]] SimDuration op_deadline() const { return op_deadline_; }

  /// Snapshot of this client's overload-control counters (budget and
  /// breakers). All zero while overload control is disabled.
  [[nodiscard]] OverloadClientStats overload_stats() const;

  /// The completion-based RPC core. Sends the request now; every later
  /// step — wire arrival, admission to the destination's service queue,
  /// execution, the reply's wire trip, timeout detection, and retry
  /// backoff — is a scheduled event on the network's event loop, so other
  /// work interleaves with this RPC in virtual time. `done` fires from the
  /// loop with the final result (the reply, or kTimedOut/kUnreachable once
  /// retries are exhausted). The synchronous API is a thin wrapper that
  /// drives the loop until its own completion fires.
  template <typename ReplyT, typename Invoke, typename ReplyBytes>
  void call_async(std::size_t proc_slot, net::HostId server, std::size_t request_bytes,
                  Invoke invoke, ReplyBytes reply_bytes,
                  std::function<void(NfsResult<ReplyT>)> done);

  /// Fetch the root handle of a server's export (MOUNT protocol stand-in).
  [[nodiscard]] NfsResult<FileHandle> mount(net::HostId server);

  [[nodiscard]] NfsResult<HandleReply> lookup(FileHandle dir, std::string_view name);
  [[nodiscard]] NfsResult<fs::Attr> getattr(FileHandle obj);
  [[nodiscard]] NfsResult<fs::Attr> set_mode(FileHandle obj, std::uint32_t mode);
  [[nodiscard]] NfsResult<fs::Attr> truncate(FileHandle obj, std::uint64_t size);
  [[nodiscard]] NfsResult<ReadReply> read(FileHandle file, std::uint64_t offset,
                                          std::uint32_t count);
  /// The invoke closure holds `data` by reference count, so the payload
  /// is never copied on its way to the server's store.
  [[nodiscard]] NfsResult<std::uint32_t> write(FileHandle file, std::uint64_t offset,
                                               const fs::Bytes& data);
  /// The abbreviated wire sattr3 carries {mode, uid}; gid rides the
  /// in-process invocation only, so message sizes (and every charged byte)
  /// are unchanged by the gid plumbing.
  [[nodiscard]] NfsResult<HandleReply> create(FileHandle dir, std::string_view name,
                                              std::uint32_t mode = 0644,
                                              std::uint32_t uid = 0, std::uint32_t gid = 0);
  [[nodiscard]] NfsResult<HandleReply> mkdir(FileHandle dir, std::string_view name,
                                             std::uint32_t mode = 0755, std::uint32_t uid = 0,
                                             std::uint32_t gid = 0);
  [[nodiscard]] NfsResult<HandleReply> symlink(FileHandle dir, std::string_view name,
                                               std::string_view target);
  [[nodiscard]] NfsResult<std::string> readlink(FileHandle link);
  [[nodiscard]] NfsResult<Unit> remove(FileHandle dir, std::string_view name);
  [[nodiscard]] NfsResult<Unit> rmdir(FileHandle dir, std::string_view name);
  /// Both directories must live on the same server (always true in Kosha:
  /// files in one directory share a node).
  [[nodiscard]] NfsResult<Unit> rename(FileHandle from_dir, std::string_view from_name,
                                       FileHandle to_dir, std::string_view to_name);
  [[nodiscard]] NfsResult<ReaddirReply> readdir(FileHandle dir);
  [[nodiscard]] NfsResult<FsstatReply> fsstat(net::HostId server);

 private:
  /// Run one RPC through call_async and drive the loop until it completes.
  /// `invoke` performs the server-side procedure; `reply_bytes` sizes the
  /// reply message for the returned value. Adds a per-procedure span and
  /// latency/outcome metrics when observability is on.
  template <typename ReplyT, typename Invoke, typename ReplyBytes>
  NfsResult<ReplyT> transact(NfsProc proc, net::HostId server, std::size_t request_bytes,
                             Invoke&& invoke, ReplyBytes&& reply_bytes);

  /// Lazily-resolved instruments for one procedure.
  struct ProcMetrics {
    bool resolved = false;
    Histogram* latency = nullptr;
    Counter* ok = nullptr;
    Counter* error = nullptr;
  };
  using ProcMetricsTable = std::array<ProcMetrics, net::kNetProcSlots>;
  [[nodiscard]] ProcMetrics& proc_metrics(NfsProc proc);

  /// RPC identity for a non-idempotent call, carrying the current trace
  /// context (invalid when tracing is off) and the op deadline (zero when
  /// none was stamped).
  [[nodiscard]] RpcContext rpc_ctx(std::uint32_t xid) const;

  /// The circuit breaker guarding `server`, created on first use. Null
  /// while overload control is disabled (or breakers are configured off),
  /// so call sites stay single-branch on the legacy path.
  [[nodiscard]] CircuitBreaker* breaker_for(net::HostId server);

  /// Every RPC takes the next xid, whether or not its procedure is
  /// DRC-keyed, so the xid sequence depends only on the calls made.
  std::uint32_t next_xid() { return ++xid_; }

  /// Replies are charged with a fixed header estimate plus payload; only
  /// the call direction is sized exactly from its XDR form
  /// (encoded_size_*, see nfs/wire.hpp).
  static constexpr std::size_t kReplyBytes = 96;

  net::SimNetwork* network_;
  const ServerDirectory* directory_;
  net::HostId self_;
  std::uint32_t xid_ = 0;
  std::uint64_t boot_ = 0;
  RetryPolicy retry_;
  Rng jitter_rng_;
  OverloadControlConfig overload_{};
  /// Token bucket bounding retransmissions; engaged iff overload control
  /// is enabled.
  std::optional<RetryBudget> budget_;
  /// Per-server breakers, ordered so stats aggregation iterates
  /// deterministically.
  std::map<net::HostId, CircuitBreaker> breakers_;
  /// kOverloaded outcomes observed by this client (admission rejections
  /// and deadline bounces reaching it as replies).
  std::uint64_t overloaded_replies_ = 0;
  SimDuration op_deadline_{};
  /// Null while metrics are off: a client without metrics carries one
  /// pointer instead of a table of null instruments (DESIGN §5b).
  std::unique_ptr<ProcMetricsTable> proc_metrics_;
};

// ---------------------------------------------------------------------------
// call_async — the event-driven RPC state machine
// ---------------------------------------------------------------------------
// One heap-allocated Call per RPC, kept alive by the events it schedules.
// Without response_timeout ("untimed mode") at most one chain is live: a
// lost request, rejection or reply, or a server that died while the
// request queued, costs one rpc_timeout, after which fail_attempt() counts
// a breaker failure and budgeted_retry() decides whether to retransmit.
//
// With response_timeout > 0 ("timed mode") the machine grows a second
// track: every transmission arms an abandonment timer, and a request's
// server-side chain (arrive/execute/depart) keeps running even after the
// client abandoned the attempt — the `finished` latch and per-chain
// `born` attempt stamp keep stale chains from touching the retry state,
// while their queueing and service time remain real (that dead work is
// exactly what the overload experiments measure). Overload control hooks
// in at three points: start() fails fast on an open breaker, arrive()
// asks the network's admission control before occupying the queue, and
// execute() refuses attempts whose deadline passed while they queued.

template <typename ReplyT, typename Invoke, typename ReplyBytes>
void NfsClient::call_async(std::size_t proc_slot, net::HostId server,
                           std::size_t request_bytes, Invoke invoke,
                           ReplyBytes reply_bytes,
                           std::function<void(NfsResult<ReplyT>)> done) {
  struct Call : std::enable_shared_from_this<Call> {
    NfsClient* c = nullptr;
    EventLoop* loop = nullptr;
    std::size_t slot = 0;
    net::HostId server = net::kInvalidHost;
    std::size_t request_bytes = 0;
    Invoke invoke;
    ReplyBytes reply_bytes;
    std::function<void(NfsResult<ReplyT>)> done;
    unsigned attempt = 0;
    /// Whether any request was delivered (and so may have executed):
    /// decides kTimedOut vs kUnreachable when attempts run out. In timed
    /// mode a delivered request counts immediately — the queued copy may
    /// still execute after the attempt is abandoned, so "delivered" is the
    /// only safe proxy for "may have executed".
    bool executed = false;
    /// Completion latch (timed mode): a stale chain's late reply must not
    /// complete the op twice. Never set before completion in untimed
    /// mode, where only one chain ever exists.
    bool finished = false;
    /// Pending abandonment timer (timed mode only), cancelled when the op
    /// completes first.
    EventLoop::EventId abandon_timer = EventLoop::kInvalidEvent;
    /// The enclosing rpc.<proc> span, captured synchronously at submit
    /// time — under interleaved execution the tracer's context stack
    /// belongs to whichever client is running, so the completion events
    /// must carry their own parent for the wait spans they emit.
    TraceContext trace{};

    Call(Invoke&& inv, ReplyBytes&& rb) : invoke(std::move(inv)), reply_bytes(std::move(rb)) {}

    /// Record a wait interval ([start, end], known rather than lived
    /// through) as a finished child span of the rpc span. Inert when
    /// tracing is off or the RPC runs outside any trace.
    void emit_wait_span(const char* name, std::uint32_t host, SimDuration start,
                        SimDuration end) {
      Tracer* tracer = c->network_->tracer();
      if (tracer == nullptr || !tracer->enabled() || !trace.valid()) return;
      (void)tracer->emit_span(trace, name, host, start, end);
    }

    /// Timed mode is in force when the policy sets a response timeout.
    [[nodiscard]] bool timed() const { return c->retry_.response_timeout.ns > 0; }

    /// Single exit point: latch, cancel the abandonment timer, fire done.
    void complete(NfsResult<ReplyT> result) {
      if (finished) return;
      finished = true;
      if (abandon_timer != EventLoop::kInvalidEvent) {
        (void)loop->cancel(abandon_timer);
        abandon_timer = EventLoop::kInvalidEvent;
      }
      done(std::move(result));
    }

    void give_up() { complete(executed ? NfsStat::kTimedOut : NfsStat::kUnreachable); }

    /// Retransmission decision shared by every failed attempt (a lost or
    /// abandoned one, or a kOverloaded rejection): pay for the retry out
    /// of the budget, back off, and re-enter start() — or fail fast when
    /// attempts or tokens run out. `give_up_status` is the
    /// certainly-not-executed verdict; a delivered request always degrades
    /// it to kTimedOut.
    void budgeted_retry(NfsStat give_up_status) {
      if (attempt + 1 >= std::max(1u, c->retry_.max_attempts)) {
        complete(executed ? NfsStat::kTimedOut : give_up_status);
        return;
      }
      if (c->overload_.enabled && c->budget_.has_value() && !c->budget_->spend()) {
        // Budget exhausted: refusing to retransmit is the amplification
        // bound that keeps a flash crowd from becoming metastable.
        complete(executed ? NfsStat::kTimedOut : NfsStat::kOverloaded);
        return;
      }
      c->network_->count_retry(slot);
      const SimDuration wait = c->retry_.jittered_backoff(attempt, c->jitter_rng_);
      ++attempt;
      const SimDuration now = loop->now();
      emit_wait_span("rpc.backoff", c->self_, now, now + wait);
      auto self = this->shared_from_this();
      loop->schedule_after(wait, "rpc.backoff", [self] { self->start(); });
    }

    /// The abandonment timer fired: no reply within response_timeout.
    void abandon(unsigned expected_attempt) {
      if (finished || attempt != expected_attempt) return;  // stale timer
      abandon_timer = EventLoop::kInvalidEvent;
      c->network_->note_timeout();
      c->network_->note_proc_timeout(slot);
      const SimDuration now = loop->now();
      emit_wait_span("rpc.timeout", c->self_, now - c->retry_.response_timeout, now);
      fail_attempt();
    }

    /// The current attempt failed without a reply: one breaker failure,
    /// then the budgeted retry decision.
    void fail_attempt() {
      if (CircuitBreaker* b = c->breaker_for(server)) b->on_failure(loop->now());
      budgeted_retry(NfsStat::kUnreachable);
    }

    /// Count a timeout now; let its duration elapse as an event, then
    /// continue with `next`.
    void timeout_then(void (Call::*next)()) {
      c->network_->note_timeout();
      c->network_->note_proc_timeout(slot);
      const SimDuration now = loop->now();
      emit_wait_span("rpc.timeout", c->self_, now, now + c->network_->config().rpc_timeout);
      auto self = this->shared_from_this();
      loop->schedule_after(c->network_->config().rpc_timeout, "rpc.timeout",
                           [self, next] { ((*self).*next)(); });
    }

    /// One transmission attempt (retransmissions re-enter here under the
    /// same xid — the invoke closure carries it).
    void start() {
      NfsServer* s = c->directory_->find(server);
      if (s == nullptr || !c->network_->is_up(server)) {
        // Permanent death is detected in one timeout and never retried:
        // failover (not retransmission) is the right reaction.
        timeout_then(&Call::give_up);
        return;
      }
      if (CircuitBreaker* b = c->breaker_for(server); b != nullptr && !b->allow(loop->now())) {
        // Open breaker: fail fast without offering the wire any load (the
        // breaker's own fast_fails counter records the refusal).
        const SimDuration now = loop->now();
        emit_wait_span("rpc.breaker_open", c->self_, now, now);
        auto self = this->shared_from_this();
        loop->schedule_at(now, "rpc.reject", [self] { self->complete(NfsStat::kOverloaded); });
        return;
      }
      const auto plan = c->network_->plan_message(c->self_, server, request_bytes, loop->now());
      if (timed()) {
        // Delivered or lost, the client's view is identical: wait
        // response_timeout for a reply, then abandon the attempt. The
        // per-transmission deadline rides the chain by value so stale
        // chains judge themselves against their own patience window.
        const SimDuration dl = loop->now() + c->retry_.response_timeout;
        if (plan.delivered) {
          executed = true;
          c->network_->note_proc_message(slot, request_bytes);
          auto self = this->shared_from_this();
          loop->schedule_at(plan.arrival, "rpc.arrive",
                            [self, dl, born = attempt] { self->arrive(dl, born); });
        }
        auto self = this->shared_from_this();
        abandon_timer = loop->schedule_after(
            c->retry_.response_timeout, "rpc.abandon",
            [self, expected = attempt] { self->abandon(expected); });
        return;
      }
      if (!plan.delivered) {
        timeout_then(&Call::fail_attempt);
        return;
      }
      c->network_->note_proc_message(slot, request_bytes);
      auto self = this->shared_from_this();
      loop->schedule_at(plan.arrival, "rpc.arrive",
                        [self, born = attempt] { self->arrive(SimDuration{}, born); });
    }

    /// The request reached the server: pass admission control, then queue
    /// behind whatever it is already serving (this wait is the measured
    /// `net.queue_delay`). `dl` is this transmission's abandonment
    /// deadline (zero in untimed mode); `born` the attempt that sent it.
    void arrive(SimDuration dl, unsigned born) {
      const SimDuration arrival = loop->now();
      if (c->overload_.enabled) {
        if (c->network_->admit(server, arrival, dl) != net::SimNetwork::Admit::kAdmit) {
          // Bounced at the door: a rejection costs one cheap reply
          // message instead of queue occupancy and service time.
          emit_wait_span("server.shed", server, arrival, arrival);
          const auto back =
              c->network_->plan_message(server, c->self_, NfsClient::kReplyBytes, arrival);
          if (back.delivered) {
            c->network_->note_proc_message(slot, NfsClient::kReplyBytes);
            auto self = this->shared_from_this();
            loop->schedule_at(back.arrival, "rpc.done", [self, born] {
              self->handle_result(NfsStat::kOverloaded, born);
            });
          } else if (!timed()) {
            // Untimed mode has no abandonment timer to fall back on, and
            // never more than one live chain: treat the lost rejection
            // like any lost reply.
            timeout_then(&Call::fail_attempt);
          }
          return;
        }
      }
      const SimDuration begin = c->network_->begin_service(server, arrival);
      if (begin > arrival) emit_wait_span("net.queue", server, arrival, begin);
      c->network_->note_inflight(server, +1);
      auto self = this->shared_from_this();
      loop->schedule_at(begin, "rpc.execute", [self, dl, born] { self->execute(dl, born); });
    }

    void execute(SimDuration dl, unsigned born) {
      NfsServer* s = c->directory_->find(server);
      if (s == nullptr || !c->network_->is_up(server)) {
        // Died while the request sat in its queue: indistinguishable from
        // a lost reply for the client.
        c->network_->note_inflight(server, -1);
        executed = true;
        if (timed()) return;  // the abandonment timer owns the retry
        timeout_then(&Call::fail_attempt);
        return;
      }
      if (c->overload_.enabled && dl.ns > 0 && loop->now() > dl) {
        // The client abandoned this attempt while it queued: drop the
        // dead work instead of burning service time on a reply nobody is
        // waiting for. No message goes back — the client moved on.
        c->network_->note_expired();
        c->network_->note_inflight(server, -1);
        emit_wait_span("server.expired", server, loop->now(), loop->now());
        return;
      }
      executed = true;
      // The procedure's service-time charges advance the clock from the
      // service-begin instant, so server-side spans keep real virtual
      // start/end times; the elapsed cost becomes this host's queue
      // occupancy.
      const SimDuration begin = loop->now();
      NfsResult<ReplyT> reply = invoke(*s);
      const SimDuration end = loop->now();
      c->network_->end_service(server, end);
      c->network_->note_service_time(server, end - begin);
      auto self = this->shared_from_this();
      loop->schedule_at(end, "rpc.depart",
                        [self, reply = std::move(reply), born]() mutable {
                          self->depart(std::move(reply), born);
                        });
    }

    /// Service finished: send the reply back over the wire.
    void depart(NfsResult<ReplyT> reply, unsigned born) {
      c->network_->note_inflight(server, -1);
      const std::size_t rb = reply_bytes(reply);
      const auto plan = c->network_->plan_message(server, c->self_, rb, loop->now());
      if (!plan.delivered) {
        // Reply lost: the op may have executed — the retransmission
        // reuses the xid so the server's DRC returns this very reply.
        if (timed()) return;  // the abandonment timer owns the retry
        timeout_then(&Call::fail_attempt);
        return;
      }
      c->network_->note_proc_message(slot, rb);
      auto self = this->shared_from_this();
      loop->schedule_at(plan.arrival, "rpc.done",
                        [self, reply = std::move(reply), born]() mutable {
                          self->handle_result(std::move(reply), born);
                        });
    }

    /// A reply (or admission rejection) reached the client. `born` tells
    /// a stale chain's rejection from the live attempt's.
    void handle_result(NfsResult<ReplyT> reply, unsigned born) {
      if (finished) return;  // the op already concluded; late echo
      if (c->overload_.enabled) {
        const SimDuration now = loop->now();
        if (!reply.ok() && reply.error() == NfsStat::kOverloaded) {
          // A stale chain's rejection must not drive the live attempt's
          // retry logic — only the transmission that is still current may.
          if (born != attempt) return;
          ++c->overloaded_replies_;
          if (CircuitBreaker* b = c->breaker_for(server)) b->on_failure(now);
          if (abandon_timer != EventLoop::kInvalidEvent) {
            (void)loop->cancel(abandon_timer);
            abandon_timer = EventLoop::kInvalidEvent;
          }
          // Shed by the server: budgeted backoff, never naive retransmit.
          budgeted_retry(NfsStat::kOverloaded);
          return;
        }
        // Any substantive reply — success or an honest NFS error — means
        // the server is alive and serving.
        if (CircuitBreaker* b = c->breaker_for(server)) b->on_success();
      }
      complete(std::move(reply));
    }
  };

  // Every issued operation earns retry-budget refill; only
  // retransmissions spend (see RetryBudget).
  if (overload_.enabled && budget_.has_value()) budget_->earn();
  auto call = std::make_shared<Call>(std::move(invoke), std::move(reply_bytes));
  call->c = this;
  call->loop = network_->loop();
  call->slot = proc_slot;
  call->server = server;
  call->request_bytes = request_bytes;
  call->done = std::move(done);
  if (const Tracer* tracer = network_->tracer(); tracer != nullptr && tracer->enabled()) {
    call->trace = tracer->current();
  }
  call->start();
}

}  // namespace kosha::nfs
