#include "net/sim_network.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "common/metrics.hpp"
#include "common/profile.hpp"

namespace kosha::net {

SimNetwork::SimNetwork(NetworkConfig config, SimClock* clock)
    : config_(config), clock_(clock), own_loop_(clock) {
  assert(clock_ != nullptr);
}

HostId SimNetwork::add_host() {
  up_.push_back(true);
  return static_cast<HostId>(up_.size() - 1);
}

SimNetwork::WirePlan SimNetwork::plan_message(HostId src, HostId dst,
                                              std::size_t payload_bytes, SimDuration at) {
  SimDuration spike{};
  if (fault_plan_ != nullptr) {
    switch (fault_plan_->judge(src, dst, at)) {
      case FaultPlan::Delivery::kDeliver:
        break;
      case FaultPlan::Delivery::kDrop:
      case FaultPlan::Delivery::kBrownout:
        ++stats_.drops;
        return {};
      case FaultPlan::Delivery::kPartitioned:
        ++stats_.partitioned;
        return {};
    }
    if (src != dst) spike = fault_plan_->draw_spike();
  }
  count_message(payload_bytes);
  return {true, at + wire_time(src, dst, payload_bytes) + spike};
}

SimNetwork::Admit SimNetwork::admit(HostId host, SimDuration arrival, SimDuration deadline) {
  if (admission_.max_inflight == 0) return Admit::kAdmit;
  if (inflight(host) >= static_cast<int>(admission_.max_inflight)) {
    ++stats_.admission_rejected;
    return Admit::kRejectInflight;
  }
  if (deadline.ns > 0) {
    const SimDuration begin =
        host < busy_until_.size() ? std::max(arrival, busy_until_[host]) : arrival;
    if (begin > deadline) {
      ++stats_.deadline_rejected;
      return Admit::kRejectDeadline;
    }
  }
  return Admit::kAdmit;
}

SimNetwork::HostObs& SimNetwork::host_obs(HostId host) {
  if (host_obs_.size() <= host) host_obs_.resize(host + 1);
  HostObs& obs = host_obs_[host];
  if (obs.queue_delay == nullptr && metrics_ != nullptr) init_host_obs(host, obs);
  return obs;
}

// Label interning at the metrics registry, never on the steady-state path.
// kosha-lint: allow(hot-alloc): once per host at its first service only
void SimNetwork::init_host_obs(HostId host, HostObs& obs) {
  const std::string prefix = "node." + std::to_string(host);
  obs.queue_delay = metrics_->histogram(prefix + ".net.queue_delay_us");
  obs.inflight = metrics_->gauge(prefix + ".server.inflight");
}

SimDuration SimNetwork::begin_service(HostId host, SimDuration arrival) {
  if (busy_until_.size() <= host) busy_until_.resize(host + 1, SimDuration{});
  const SimDuration begin = std::max(arrival, busy_until_[host]);
  const SimDuration delay = begin - arrival;
  stats_.queue_delay_ns += static_cast<std::uint64_t>(delay.ns);
  if (metrics_ != nullptr) {
    if (Histogram* h = host_obs(host).queue_delay) h->record(delay.to_micros());
  }
  if (profiler_ != nullptr) profiler_->add_host_queue_wait(host, delay);
  return begin;
}

void SimNetwork::end_service(HostId host, SimDuration until) {
  if (busy_until_.size() <= host) busy_until_.resize(host + 1, SimDuration{});
  busy_until_[host] = std::max(busy_until_[host], until);
}

void SimNetwork::note_service_time(HostId host, SimDuration busy) {
  if (profiler_ != nullptr) profiler_->add_host_busy(host, busy);
}

void SimNetwork::note_inflight(HostId host, int delta) {
  if (inflight_.size() <= host) inflight_.resize(host + 1, 0);
  inflight_[host] += delta;
  stats_.inflight_peak =
      std::max(stats_.inflight_peak, static_cast<std::uint64_t>(std::max(0, inflight_[host])));
  if (metrics_ != nullptr) {
    if (Gauge* g = host_obs(host).inflight) g->set(static_cast<double>(inflight_[host]));
  }
}

}  // namespace kosha::net
