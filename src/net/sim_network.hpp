#pragma once

// Simulated LAN.
//
// The paper's testbed is a 100 Mb/s switched Ethernet of desktops. The
// simulator models it as a flat network where every message between two
// distinct hosts costs one hop latency of virtual time, plus optional
// per-byte transmission cost. Host liveness is tracked here; an RPC to a
// dead host costs a timeout. The network never advances the clock itself:
// RPC messages become delivery events at their planned arrival, a Pastry
// route returns its wire time for koshad to wait out, and background
// traffic is only counted. Message/hop counters feed the analytic-model
// comparison in §6.1.2.
//
// Every network carries an event loop over its clock: its own, unless a
// caller that schedules other work on a shared loop (KoshaCluster, the
// benchmark's ladder) installs that one with set_event_loop(). NfsClient
// runs every RPC as events on it, so the baseline NFS comparator and the
// Kosha daemons share one RPC model.
//
// An optional FaultPlan (net/fault_plan.hpp) enriches the binary up/down
// model with message drops, host brownouts, partitions, and latency
// spikes; senders that can observe loss plan each message through
// plan_message().

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/event_loop.hpp"
#include "common/sim_clock.hpp"
#include "net/fault_plan.hpp"

namespace kosha {
class Gauge;
class Histogram;
class MetricsRegistry;
class SimProfiler;
class Tracer;
}  // namespace kosha

namespace kosha::net {

/// Dense host index; hosts are never removed, only marked down.
/// (The alias is introduced in net/fault_plan.hpp; re-stated here for
/// readers.)
inline constexpr HostId kInvalidHost = static_cast<HostId>(-1);

/// Latency/cost model for the simulated LAN.
struct NetworkConfig {
  /// One-way latency of a single message between two distinct hosts.
  SimDuration hop_latency = SimDuration::micros(120);
  /// One-way latency of a loopback message (src == dst): marshalling and
  /// context switches without the wire.
  SimDuration local_latency = SimDuration::micros(54);
  /// Transmission cost per byte of payload (100 Mb/s => 80 ns/byte).
  SimDuration per_byte = SimDuration::nanos(80);
  /// Time wasted detecting that a host is unreachable.
  SimDuration rpc_timeout = SimDuration::millis(500);
};

/// Per-NFS-procedure slice of the traffic accounting. Slots are indexed by
/// nfs::proc_slot(); the network layer treats them as opaque indices so it
/// stays independent of the NFS vocabulary.
struct ProcNetStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;

  friend bool operator==(const ProcNetStats&, const ProcNetStats&) = default;
};

/// Number of per-procedure slots (NFSv3 procs 0..18 plus MOUNT).
inline constexpr std::size_t kNetProcSlots = 20;

/// Message and failure accounting.
struct NetStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t overlay_hops = 0;
  /// Messages lost to the fault plan (random drops and brownouts).
  std::uint64_t drops = 0;
  /// RPC retransmissions performed by clients after a loss.
  std::uint64_t retries = 0;
  /// Messages blocked by an active partition window.
  std::uint64_t partitioned = 0;
  /// Total virtual time requests spent queued behind earlier requests at
  /// their destination's service queue.
  std::uint64_t queue_delay_ns = 0;
  /// Highest number of simultaneously in-flight (arrived, not yet
  /// completed) RPCs observed at any single host.
  std::uint64_t inflight_peak = 0;
  /// Overload control (all zero unless an AdmissionControl is installed):
  /// arrivals bounced because the destination's in-flight bound was full.
  std::uint64_t admission_rejected = 0;
  /// Arrivals bounced because their propagated deadline could not be met
  /// even at the head of the queue.
  std::uint64_t deadline_rejected = 0;
  /// Requests dropped at the service instant: their deadline had passed
  /// while they queued (dead work refused instead of executed).
  std::uint64_t expired = 0;
  /// Per-procedure breakdown of client RPC traffic (a slice of the
  /// aggregates above; overlay/replication traffic has no procedure).
  std::array<ProcNetStats, kNetProcSlots> per_proc{};

  void reset() { *this = NetStats{}; }

  friend bool operator==(const NetStats&, const NetStats&) = default;
};

/// Flat simulated network: liveness registry, wire-time model and traffic
/// accounting.
class SimNetwork {
 public:
  SimNetwork(NetworkConfig config, SimClock* clock);

  /// Register a new host (initially up); returns its id.
  HostId add_host();

  [[nodiscard]] std::size_t host_count() const { return up_.size(); }
  [[nodiscard]] bool is_up(HostId host) const { return up_.at(host); }
  void set_up(HostId host, bool up) { up_.at(host) = up; }

  /// Wire time of one one-way message of `payload_bytes` from src to dst:
  /// hop latency (loopback latency when src == dst) plus per-byte cost.
  /// Pure: no clock, no counter, no fault draw.
  [[nodiscard]] SimDuration wire_time(HostId src, HostId dst, std::size_t payload_bytes) const {
    const SimDuration latency = (src == dst) ? config_.local_latency : config_.hop_latency;
    return latency +
           SimDuration::nanos(config_.per_byte.ns * static_cast<std::int64_t>(payload_bytes));
  }

  /// Count one one-way message in the statistics. Background traffic
  /// (overlay joins and leaf-set exchanges, replica mirroring, pushes,
  /// audits, migration) and route hops are counted here and never advance
  /// the clock.
  void count_message(std::size_t payload_bytes) {
    ++stats_.messages;
    stats_.bytes += payload_bytes;
  }

  /// Install (or clear, with nullptr) the fault plan.
  void set_fault_plan(std::unique_ptr<FaultPlan> plan) { fault_plan_ = std::move(plan); }
  [[nodiscard]] FaultPlan* fault_plan() const { return fault_plan_.get(); }

  // --- event-driven delivery (completion-based RPC path) ------------------

  /// Replace the network's own event loop with `loop` (non-null, over the
  /// same clock), for callers that schedule their own work beside the
  /// RPCs: KoshaCluster installs its loop, so heartbeats, repair ticks and
  /// every daemon's RPCs share one queue.
  void set_event_loop(EventLoop* loop) {
    assert(loop != nullptr && &loop->clock() == clock_);
    loop_ = loop;
  }
  /// The loop NfsClient runs its RPCs on; never null.
  [[nodiscard]] EventLoop* loop() const { return loop_; }

  /// Verdict of plan_message: whether the wire delivers, and when.
  struct WirePlan {
    bool delivered = false;
    SimDuration arrival{};
  };

  /// Plan one one-way message sent at `at` without touching the clock:
  /// judge it under the fault plan (one drop draw per judged message, one
  /// spike draw per delivered non-local message) and compute the arrival
  /// time from latency plus per-byte cost plus any spike. A delivered
  /// message counts in `messages`/`bytes`; a lost one in `drops` or
  /// `partitioned`. The caller turns `arrival` into a delivery event.
  [[nodiscard]] WirePlan plan_message(HostId src, HostId dst, std::size_t payload_bytes,
                                      SimDuration at);

  // --- overload control (admission at the service queue) ------------------

  /// Per-host admission bounds; installed by the cluster when overload
  /// control is enabled. max_inflight == 0 (the default) disables every
  /// admission check, keeping the unbounded-FIFO legacy behaviour and
  /// leaving all overload counters untouched.
  struct AdmissionControl {
    unsigned max_inflight = 0;
  };
  void set_admission(AdmissionControl admission) { admission_ = admission; }
  [[nodiscard]] const AdmissionControl& admission() const { return admission_; }

  /// Admission verdict for one arrival.
  enum class Admit {
    kAdmit,           // queue it
    kRejectInflight,  // destination at its in-flight bound
    kRejectDeadline,  // even immediate head-of-queue service would begin
                      // after the request's propagated deadline
  };

  /// Judge one arrival at `host` against the installed admission bounds.
  /// `deadline` is the request's absolute give-up time (0 = none). Pure
  /// with respect to clock and Rng — only the overload rejection counters
  /// move, and only on rejection.
  [[nodiscard]] Admit admit(HostId host, SimDuration arrival, SimDuration deadline);

  /// Count one request dropped at its service instant because its deadline
  /// passed while it queued (the event-driven execute step refuses the
  /// dead work instead of performing it).
  void note_expired() { ++stats_.expired; }

  /// Current in-flight RPC count at `host` (0 for never-seen hosts). The
  /// repair daemon reads this to yield to foreground load.
  [[nodiscard]] int inflight(HostId host) const {
    return host < inflight_.size() ? inflight_[host] : 0;
  }

  /// Admit a request arriving at `arrival` to `host`'s FIFO service
  /// queue: returns when service can begin (the previous request's
  /// departure, if later) and records the queueing delay in the per-node
  /// `net.queue_delay` histogram.
  [[nodiscard]] SimDuration begin_service(HostId host, SimDuration arrival);
  /// Mark `host`'s server busy until `until` (the departure time of the
  /// request admitted by begin_service).
  void end_service(HostId host, SimDuration until);
  /// Adjust `host`'s in-flight RPC count (arrived, not yet completed),
  /// feeding the per-node `server.inflight` gauge and the peak counter.
  void note_inflight(HostId host, int delta);

  /// Attribute `busy` of virtual service time to `host` in the profiler's
  /// occupancy accounting (no-op when profiling is off). Called by the RPC
  /// execute step, which knows both service bounds.
  void note_service_time(HostId host, SimDuration busy);

  /// Count a timeout: an RPC's, whose duration elapses as a scheduled
  /// event, or a dead routing-table entry's, whose rpc_timeout a route adds
  /// to its cost.
  void note_timeout() { ++stats_.timeouts; }

  /// Record one client retransmission of procedure `proc_slot` (kept here
  /// so every chaos counter lives in NetStats).
  void count_retry(std::size_t proc_slot) {
    ++stats_.retries;
    if (proc_slot < kNetProcSlots) ++stats_.per_proc[proc_slot].retries;
  }

  /// Attribute one already-counted message to procedure `proc_slot`.
  void note_proc_message(std::size_t proc_slot, std::size_t payload_bytes) {
    if (proc_slot < kNetProcSlots) {
      ++stats_.per_proc[proc_slot].messages;
      stats_.per_proc[proc_slot].bytes += payload_bytes;
    }
  }

  /// Attribute one already-counted timeout to procedure `proc_slot`.
  void note_proc_timeout(std::size_t proc_slot) {
    if (proc_slot < kNetProcSlots) ++stats_.per_proc[proc_slot].timeouts;
  }

  /// Install the cluster's observability sinks (nullptr = off). The network
  /// is the one object every layer already holds, so it doubles as the
  /// distribution point for the metrics registry and tracer.
  void set_observability(MetricsRegistry* metrics, Tracer* tracer) {
    metrics_ = metrics;
    tracer_ = tracer;
  }
  [[nodiscard]] MetricsRegistry* metrics() const { return metrics_; }
  [[nodiscard]] Tracer* tracer() const { return tracer_; }

  /// Attach the simulator profiler (nullptr = off). Distributed alongside
  /// metrics/tracer because every layer already reaches the network.
  void set_profiler(SimProfiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] SimProfiler* profiler() const { return profiler_; }

  [[nodiscard]] SimClock& clock() { return *clock_; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }
  [[nodiscard]] NetStats& stats() { return stats_; }
  [[nodiscard]] const NetStats& stats() const { return stats_; }

 private:
  /// Lazily-resolved per-host instruments (null until first use or when
  /// metrics are off).
  struct HostObs {
    Histogram* queue_delay = nullptr;
    Gauge* inflight = nullptr;
  };
  [[nodiscard]] HostObs& host_obs(HostId host);
  /// Cold half of host_obs: resolve the host's instruments by name (the
  /// one sanctioned allocation, first service per host only).
  void init_host_obs(HostId host, HostObs& obs);

  NetworkConfig config_;
  SimClock* clock_;
  std::vector<bool> up_;
  NetStats stats_;
  std::unique_ptr<FaultPlan> fault_plan_;
  MetricsRegistry* metrics_ = nullptr;
  Tracer* tracer_ = nullptr;
  SimProfiler* profiler_ = nullptr;
  EventLoop* loop_ = &own_loop_;
  /// Per-host single-server FIFO queues: when each host's service slot
  /// frees up, set by every RPC's execute step.
  std::vector<SimDuration> busy_until_;
  std::vector<int> inflight_;
  std::vector<HostObs> host_obs_;
  AdmissionControl admission_;
  /// The loop loop_ points at until set_event_loop replaces it. Last, so
  /// the hot members above stay together.
  EventLoop own_loop_;
};

}  // namespace kosha::net
