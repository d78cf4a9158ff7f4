#pragma once

// Simulated LAN.
//
// The paper's testbed is a 100 Mb/s switched Ethernet of desktops. The
// simulator models it as a flat network where every message between two
// distinct hosts costs one hop latency of virtual time, plus optional
// per-byte transmission cost. Host liveness is tracked here; an RPC to a
// dead host costs a timeout. All costs accrue on a shared SimClock, and
// message/hop counters feed the analytic-model comparison in §6.1.2.
//
// An optional FaultPlan (net/fault_plan.hpp) enriches the binary up/down
// model with message drops, host brownouts, partitions, and latency
// spikes; senders that can observe loss route through try_message().

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/sim_clock.hpp"
#include "net/fault_plan.hpp"

namespace kosha {
class EventLoop;
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
  /// their destination's service queue (with an event loop attached only —
  /// the loop-less serial path admits every request instantly).
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
  /// Background (low-priority) arrivals shed at the tighter background
  /// bound while foreground traffic still fit.
  std::uint64_t shed_low_priority = 0;
  /// Per-procedure breakdown of client RPC traffic (a slice of the
  /// aggregates above; overlay/replication traffic has no procedure).
  std::array<ProcNetStats, kNetProcSlots> per_proc{};

  void reset() { *this = NetStats{}; }

  friend bool operator==(const NetStats&, const NetStats&) = default;
};

/// Flat simulated network: liveness registry + virtual-time cost charging.
class SimNetwork {
 public:
  SimNetwork(NetworkConfig config, SimClock* clock);

  /// Register a new host (initially up); returns its id.
  HostId add_host();

  [[nodiscard]] std::size_t host_count() const { return up_.size(); }
  [[nodiscard]] bool is_up(HostId host) const { return up_.at(host); }
  void set_up(HostId host, bool up) { up_.at(host) = up; }

  /// Charge one one-way message of `payload_bytes` from src to dst.
  /// Local delivery (src == dst) is free.
  void charge_message(HostId src, HostId dst, std::size_t payload_bytes = 0);

  /// Attempt delivery of one message under the installed fault plan.
  /// Returns true and charges latency (plus any spike) on delivery;
  /// returns false without charging when the message is lost (dropped,
  /// browned out, or partitioned) — the caller decides what loss costs
  /// (an RPC client charges its timeout). Without a plan this is
  /// charge_message().
  bool try_message(HostId src, HostId dst, std::size_t payload_bytes = 0);

  /// Install (or clear, with nullptr) the fault plan.
  void set_fault_plan(std::unique_ptr<FaultPlan> plan) { fault_plan_ = std::move(plan); }
  [[nodiscard]] FaultPlan* fault_plan() const { return fault_plan_.get(); }

  // --- event-driven delivery (completion-based RPC path) ------------------

  /// Attach the discrete-event scheduler. Non-null switches NfsClient's
  /// synchronous API onto the completion-based core; null (the default)
  /// keeps the serial call-and-advance path, which the baseline NFS
  /// comparator uses. KoshaCluster always attaches its loop.
  void set_event_loop(EventLoop* loop) { loop_ = loop; }
  [[nodiscard]] EventLoop* loop() const { return loop_; }

  /// Verdict of plan_message: whether the wire delivers, and when.
  struct WirePlan {
    bool delivered = false;
    SimDuration arrival{};
  };

  /// Plan one one-way message sent at `at` without touching the clock:
  /// judge it under the fault plan (same Rng draw order as try_message —
  /// one drop draw per judged message, one spike draw per delivered
  /// non-local message) and compute the arrival time from latency plus
  /// per-byte cost plus any spike. Counters update exactly as
  /// try_message's would; the caller turns `arrival` into a delivery
  /// event instead of advancing the clock.
  [[nodiscard]] WirePlan plan_message(HostId src, HostId dst, std::size_t payload_bytes,
                                      SimDuration at);

  // --- overload control (admission at the service queue) ------------------

  /// Per-host admission bounds; installed by the cluster when overload
  /// control is enabled. max_inflight == 0 (the default) disables every
  /// admission check, keeping the unbounded-FIFO legacy behaviour and
  /// leaving all overload counters untouched.
  struct AdmissionControl {
    unsigned max_inflight = 0;
    /// Tighter bound for background (low-priority) traffic; 0 = use
    /// max_inflight for every class.
    unsigned low_priority_inflight = 0;
  };
  void set_admission(AdmissionControl admission) { admission_ = admission; }
  [[nodiscard]] const AdmissionControl& admission() const { return admission_; }

  /// Admission verdict for one arrival.
  enum class Admit {
    kAdmit,           // queue it
    kRejectInflight,  // destination at its in-flight bound (or the
                      // background bound, for low-priority traffic)
    kRejectDeadline,  // even immediate head-of-queue service would begin
                      // after the request's propagated deadline
  };

  /// Judge one arrival at `host` against the installed admission bounds.
  /// `deadline` is the request's absolute give-up time (0 = none);
  /// `low_priority` marks background traffic (repair, anti-entropy) that
  /// sheds at the tighter bound. Pure with respect to clock and Rng —
  /// only the overload rejection counters move, and only on rejection.
  [[nodiscard]] Admit admit(HostId host, SimDuration arrival, SimDuration deadline,
                            bool low_priority);

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

  /// Count a timeout whose duration elapses as a scheduled event rather
  /// than an immediate clock advance (the event-driven twin of
  /// charge_timeout).
  void note_timeout() { ++stats_.timeouts; }

  /// Record one client retransmission of procedure `proc_slot` (kept here
  /// so every chaos counter lives in NetStats).
  void count_retry(std::size_t proc_slot) {
    ++stats_.retries;
    if (proc_slot < kNetProcSlots) ++stats_.per_proc[proc_slot].retries;
  }

  /// Attribute one already-charged message to procedure `proc_slot`.
  void note_proc_message(std::size_t proc_slot, std::size_t payload_bytes) {
    if (proc_slot < kNetProcSlots) {
      ++stats_.per_proc[proc_slot].messages;
      stats_.per_proc[proc_slot].bytes += payload_bytes;
    }
  }

  /// Attribute one already-charged timeout to procedure `proc_slot`.
  void note_proc_timeout(std::size_t proc_slot) {
    if (proc_slot < kNetProcSlots) ++stats_.per_proc[proc_slot].timeouts;
  }

  /// Charge a request/response round trip.
  void charge_rtt(HostId src, HostId dst, std::size_t payload_bytes = 0);

  /// Charge one overlay routing hop (message + hop counter).
  void charge_overlay_hop(HostId src, HostId dst);

  /// Charge the cost of discovering that a host is dead.
  void charge_timeout();

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
  EventLoop* loop_ = nullptr;
  /// Per-host single-server FIFO queues: when each host's service slot
  /// frees up. Only the event-driven path reads or writes these.
  std::vector<SimDuration> busy_until_;
  std::vector<int> inflight_;
  std::vector<HostObs> host_obs_;
  AdmissionControl admission_;
};

}  // namespace kosha::net
