#pragma once

// Kosha system-wide configuration (paper §3-§4).

#include <cstdint>
#include <string>

#include "common/sim_clock.hpp"
#include "fs/storage_backend.hpp"
#include "nfs/retry_policy.hpp"
#include "pastry/types.hpp"

namespace kosha {

struct KoshaConfig {
  /// Fixed cost of interposing one NFS RPC in koshad (four extra
  /// user/kernel crossings through the user-level loopback server, plus
  /// virtual-handle bookkeeping). This is the constant term I in the
  /// paper's overhead model D = I + H*hc*(N-1)/N (§6.1.2).
  SimDuration interposition_cost = SimDuration::micros(510);

  /// How many levels of subdirectories under /kosha are distributed to
  /// their own nodes (paper §3.2). Level 1 distributes only the direct
  /// children of the mount point.
  unsigned distribution_level = 1;

  /// K: number of additional replicas the primary maintains on its K
  /// closest leaf-set neighbors (paper §4.2). 0 = primary copy only.
  unsigned replicas = 1;

  /// Maximum salted-rehash attempts when the selected node is over the
  /// utilization threshold (paper §3.3, PAST-style iterative redirection).
  unsigned max_redirects = 4;

  /// Disk utilization fraction above which new directories are redirected.
  double redirect_threshold = 0.95;

  /// Serve reads round-robin from the primary and its replicas. The paper
  /// leaves this as future work ("we currently are exploring optimization
  /// techniques that allow at least read operations to be served from any
  /// one of the K replicas", §4.2); off by default to match the evaluated
  /// system. See bench/ablation_read_replicas.
  bool read_from_replicas = false;

  /// Failover ladder depth: how many re-resolve-and-retry rounds koshad
  /// runs after a retryable RPC error (each attempt already carries the
  /// NFS client's own retransmission schedule underneath). 1 reproduces
  /// the paper's retry-once behaviour; >1 survives a promotion racing a
  /// brownout.
  unsigned failover_rounds = 2;

  /// Per-daemon NFS client retry schedule (see nfs/retry_policy.hpp).
  /// Only transient fault-plan losses are retried, so without a fault
  /// plan this has no effect on behaviour or cost.
  nfs::RetryPolicy retry;

  /// Overload control (admission, retry budgets, breakers, deadline
  /// propagation, repair yielding). Disabled by default — and when
  /// disabled, every run is numerically identical to one predating the
  /// subsystem. See DESIGN's overload-control section.
  nfs::OverloadControlConfig overload;

  /// Seed for per-daemon jitter streams; KoshaCluster overwrites it with
  /// the cluster seed so chaos runs replay bit-for-bit.
  std::uint64_t rng_seed = 42;

  pastry::PastryConfig pastry;

  /// Which representation backs every node's /kosha_store partition and
  /// its CAS tuning knobs (chunk size, verified reads). Per-node capacity
  /// still comes from ClusterConfig; storage.fs.capacity_bytes is
  /// overridden per node at construction.
  fs::StorageConfig storage;

  /// Cross-field sanity checks; returns an error description, or an empty
  /// string when the configuration is usable. KoshaCluster refuses to
  /// construct on a non-empty result.
  [[nodiscard]] std::string validate() const {
    if (distribution_level == 0) {
      return "distribution_level must be >= 1: level 0 would hash no directory "
             "to any node, leaving the whole namespace on the root owner";
    }
    if (max_redirects == 0) {
      return "max_redirects must be >= 1: capacity redirection needs at least "
             "one salted rehash attempt (paper S3.3)";
    }
    if (replicas > pastry.leaf_half()) {
      return "replicas (" + std::to_string(replicas) +
             ") must not exceed the leaf-set half (" +
             std::to_string(pastry.leaf_half()) +
             "): replica targets are drawn from one leaf-set side (paper S4.2)";
    }
    if (redirect_threshold <= 0.0 || redirect_threshold > 1.0) {
      return "redirect_threshold must be in (0, 1]";
    }
    if (storage.chunk_bytes == 0) {
      return "storage.chunk_bytes must be >= 1: content-addressed stores "
             "cannot chunk files into zero-byte blocks";
    }
    if (storage.chunk_bytes > (64ull << 20)) {
      return "storage.chunk_bytes must be <= 64 MiB: larger chunks defeat "
             "dedup and the delta replica transfer entirely";
    }
    if (retry.response_timeout.ns < 0) {
      return "retry.response_timeout must be >= 0: negative patience would "
             "abandon every attempt before it was sent";
    }
    if (overload.op_budget.ns < 0) {
      return "overload.op_budget must be >= 0: a negative operation budget "
             "would stamp already-expired deadlines on every RPC";
    }
    if (overload.enabled) {
      if (overload.max_inflight == 0) {
        return "overload.max_inflight must be >= 1 when overload control is "
               "enabled: a zero admission bound would bounce every arrival";
      }
      if (overload.low_priority_fraction <= 0.0 || overload.low_priority_fraction > 1.0) {
        return "overload.low_priority_fraction must be in (0, 1]: background "
               "traffic needs a nonzero bound no looser than the foreground's";
      }
      if (overload.retry_budget_cap < 1.0) {
        return "overload.retry_budget_cap must be >= 1: a bucket that can "
               "never hold one token forbids all retransmissions";
      }
      if (overload.retry_budget_refill <= 0.0 ||
          overload.retry_budget_refill > overload.retry_budget_cap) {
        return "overload.retry_budget_refill must be in (0, retry_budget_cap]: "
               "zero refill starves retries forever, refill above the cap is "
               "unreachable";
      }
      if (overload.breaker_threshold > 0 && overload.breaker_cooldown.ns <= 0) {
        return "overload.breaker_cooldown must be > 0 when breakers are on: an "
               "instant cooldown makes the breaker a no-op";
      }
    }
    return {};
  }
};

}  // namespace kosha
