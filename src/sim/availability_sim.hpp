#pragma once

// Availability simulation (paper Figure 7).
//
// Distributes the departmental trace across a machine population, replays
// an 840-hour availability trace, and measures the percentage of files
// reachable each hour for replica counts 0..4. Files are grouped by their
// anchor directory (everything in one anchor lives and dies with the same
// K+1 holders); a group is unavailable while all of its holders are down
// and is re-replicated onto live ring neighbors as soon as any holder is
// reachable again, matching Kosha's continuous replica maintenance (§4.2).

#include <cstdint>
#include <string>
#include <vector>

#include "kosha/cluster.hpp"
#include "trace/availability.hpp"
#include "trace/fs_trace.hpp"

namespace kosha::sim {

struct AvailabilitySimConfig {
  unsigned level = 3;  // paper: distribution level fixed at 3
  unsigned replicas = 3;
  std::size_t runs = 10;  // paper: 100 node-id assignments
  std::uint64_t seed = 1;
  std::size_t threads = 0;
  /// Hours a freshly created replica takes before it can serve (copying
  /// an anchor's content over the LAN is not instantaneous). A copy whose
  /// source machines all fail within the window is lost with them; 0 =
  /// instantaneous repair.
  std::size_t repair_hours = 0;
};

struct AvailabilityResult {
  /// Percentage of files available per hour, averaged over runs.
  std::vector<double> available_pct;
  double average_pct = 0;
  double min_pct = 100;
  std::size_t min_hour = 0;
};

[[nodiscard]] AvailabilityResult simulate_availability(const trace::FsTrace& fs_trace,
                                                       const trace::AvailabilityTrace& machines,
                                                       const AvailabilitySimConfig& config);

// ---------------------------------------------------------------------------
// Continuous-churn soak (autonomous self-healing, DESIGN §8).
//
// Unlike the Figure-7 trace replay above, this drives a *live* KoshaCluster
// in self-healing mode: seeded exponential join/fail arrivals, no oracle —
// failures are discovered by the heartbeat detectors and repaired by the
// anti-entropy daemons while a client keeps reading. Reported per run:
// time-to-detection, time-to-repair (MTTR), read availability, and data
// durability (files with at least one live copy). Fully deterministic:
// two same-seed runs produce byte-identical timelines and digests.
// ---------------------------------------------------------------------------

struct ChurnSimConfig {
  std::size_t nodes = 12;
  unsigned replicas = 2;
  unsigned level = 2;
  std::uint64_t seed = 1;
  /// Virtual-time length of the soak (plus a convergence tail: after the
  /// last arrival the loop runs until repair converges or 4x duration).
  SimDuration duration = SimDuration::seconds(20);
  /// Mean of the exponential failure / join interarrival draws.
  SimDuration mean_fail_interarrival = SimDuration::seconds(3);
  SimDuration mean_join_interarrival = SimDuration::seconds(5);
  /// State-sampling grid (availability, durability, replication level).
  SimDuration sample_period = SimDuration::millis(500);
  std::size_t files = 24;
  /// Never fail below this many live nodes (client host 0 is never failed).
  std::size_t min_live = 5;
  /// Optional message-drop probability soaking the detectors in noise.
  double drop_probability = 0.0;
  /// Ablation: self-healing off, so every failure reaches the survivors as
  /// an instant verdict (zero detection latency, no heartbeat or repair
  /// daemon events); the verdicts take the same report_failure path.
  bool oracle = false;
  pastry::FailureDetectorConfig detector;
  RepairDaemonConfig repair;
};

struct ChurnSample {
  SimDuration at{};
  std::size_t live_nodes = 0;
  double availability_pct = 0;  // client reads that succeeded
  double durability_pct = 0;    // files with >= 1 live copy
  double full_pct = 0;          // files at full replication (K+1 live copies)
  std::size_t undetected = 0;   // real failures not yet confirmed by anyone
};

struct ChurnResult {
  std::size_t failures = 0;
  std::size_t joins = 0;
  /// Confirmed failure detections and their latency (ms). In oracle mode
  /// the verdicts are instant: every latency is zero.
  std::size_t detected = 0;
  double detect_ms_mean = 0;
  double detect_ms_max = 0;
  /// Repair convergence: a failure is repaired at the first subsequent
  /// sample where every surviving file is back at full replication; the
  /// sample grid bounds the resolution.
  std::size_t repaired = 0;
  double mttr_ms_mean = 0;
  double mttr_ms_max = 0;
  double availability_pct = 0;     // mean over samples
  double min_durability_pct = 100;
  double final_durability_pct = 0;
  double final_full_pct = 0;
  bool converged = false;  // every surviving file at full replication at end
  std::vector<ChurnSample> timeline;
  /// Deterministic serializations for same-seed byte-identity checks:
  /// the event/sample timeline as CSV and the final durable-state digest.
  std::string timeline_csv;
  std::string digest;
};

[[nodiscard]] ChurnResult simulate_churn(const ChurnSimConfig& config);

}  // namespace kosha::sim
