#include "kosha/repair.hpp"

#include <cassert>
#include <string>

#include "common/tracing.hpp"
#include "kosha/replication.hpp"

namespace kosha {

RepairDaemon::RepairDaemon(RepairDaemonConfig config, Runtime* runtime, net::HostId host)
    : config_(config), runtime_(runtime), host_(host) {
  assert(runtime_ != nullptr && runtime_->network->loop() != nullptr);
}

void RepairDaemon::start() {
  if (running_) return;
  running_ = true;
  runtime_->repair_daemons[host_] = this;
  schedule_tick();
}

void RepairDaemon::stop() {
  if (!running_) return;
  running_ = false;
  if (runtime_->repair_daemon(host_) == this) runtime_->repair_daemons.erase(host_);
}

void RepairDaemon::schedule_tick() {
  EventLoop* loop = runtime_->network->loop();
  const SimDuration delay = config_.period + loop->jitter(config_.jitter);
  Runtime* runtime = runtime_;
  const net::HostId host = host_;
  loop->schedule_after(delay, "repair.tick", [runtime, host] {
    if (RepairDaemon* d = runtime->repair_daemon(host)) d->tick();
  });
}

void RepairDaemon::tick() {
  if (!running_) return;
  ReplicaManager* rm = runtime_->replica_manager(host_);
  if (rm == nullptr) {  // the host died under us; the revival starts anew
    stop();
    return;
  }
  ++stats_.ticks;
  // The whole pass is background traffic: counted, never charged to
  // whatever foreground operation is in flight (DESIGN §8 invariant).
  ClockPauser pause(*runtime_->clock);
  SpanScope span(runtime_->tracer, "repair.tick", host_);
  // Priority-aware admission: when this host is already serving a burst of
  // foreground RPCs, skip the pushes this pass (audits still run) — repair
  // bandwidth is exactly the capacity the clients are short of. The missed
  // work is not lost, only deferred to a calmer tick.
  std::size_t push_limit = config_.max_pushes_per_tick;
  const auto& overload = runtime_->config.overload;
  if (overload.enabled && overload.repair_yield_inflight > 0 &&
      runtime_->network->inflight(host_) >=
          static_cast<int>(overload.repair_yield_inflight)) {
    push_limit = 0;
    ++stats_.yields;
    if (span.active()) span.tag("yield", "1");
  }
  const auto report = rm->reconcile(push_limit);
  stats_.promoted += report.promoted;
  stats_.handed_off += report.handed_off;
  stats_.pushed += report.pushed;
  stats_.dropped += report.dropped;
  stats_.last_missing = report.missing;
  if (span.active() && (report.promoted + report.handed_off + report.pushed + report.dropped +
                        report.missing) != 0) {
    // Tag only ticks that did repair work; idle sweeps stay lightweight.
    span.tag("promoted", std::to_string(report.promoted));
    span.tag("pushed", std::to_string(report.pushed));
    span.tag("missing", std::to_string(report.missing));
  }
  schedule_tick();
}

}  // namespace kosha
