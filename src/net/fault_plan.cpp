#include "net/fault_plan.hpp"

#include <algorithm>

namespace kosha::net {

namespace {

bool contains(const std::vector<HostId>& group, HostId host) {
  return std::find(group.begin(), group.end(), host) != group.end();
}

}  // namespace

FaultPlan::Delivery FaultPlan::judge(HostId src, HostId dst, SimDuration now) {
  if (src == dst) return Delivery::kDeliver;
  ++judged_;
  // The drop draw is consumed unconditionally (when configured) so the Rng
  // stream position depends only on how many messages were judged, not on
  // which windows happened to be active — keeps replays aligned.
  const bool random_drop =
      config_.drop_probability > 0.0 && rng_.next_bool(config_.drop_probability);
  if (std::find(forced_drops_.begin(), forced_drops_.end(), judged_) != forced_drops_.end()) {
    return Delivery::kDrop;
  }
  if (partitioned(src, dst, now)) return Delivery::kPartitioned;
  if (in_brownout(src, now) || in_brownout(dst, now)) return Delivery::kBrownout;
  if (random_drop) return Delivery::kDrop;
  return Delivery::kDeliver;
}

SimDuration FaultPlan::draw_spike() {
  if (config_.latency_spike_probability <= 0.0) return {};
  return rng_.next_bool(config_.latency_spike_probability) ? config_.latency_spike
                                                           : SimDuration{};
}

bool FaultPlan::in_brownout(HostId host, SimDuration now) const {
  for (const Brownout& b : brownouts_) {
    if (b.host == host && b.start <= now && now < b.end) return true;
  }
  return false;
}

bool FaultPlan::partitioned(HostId x, HostId y, SimDuration now) const {
  for (const Partition& p : partitions_) {
    if (now < p.start || now >= p.end) continue;
    if ((contains(p.a, x) && contains(p.b, y)) || (contains(p.a, y) && contains(p.b, x))) {
      return true;
    }
  }
  return false;
}

}  // namespace kosha::net
