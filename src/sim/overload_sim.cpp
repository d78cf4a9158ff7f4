#include "sim/overload_sim.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sha1.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "sim/concurrency_driver.hpp"

namespace kosha::sim {

namespace {

/// Deterministic hot-file content: depends only on (file, size).
std::string hot_content(std::size_t file, std::size_t bytes) {
  const std::string stamp = "h" + std::to_string(file) + ":";
  std::string out;
  out.reserve(bytes);
  while (out.size() < bytes) {
    out.append(stamp, 0, std::min(stamp.size(), bytes - out.size()));
  }
  return out;
}

/// One closed-loop reader. Base agents run for the whole measurement;
/// spike agents only inside the flash-crowd window.
struct Agent {
  std::unique_ptr<KoshaMount> mount;
  Rng rng{0};
  SimDuration think{};
  SimDuration local{};  // next op issues at this virtual time
  SimDuration stop{};   // no new ops at or past this time
};

/// Small deterministic think-time jitter in [0, think/8] so same-think
/// agents do not phase-lock into one synchronized arrival train.
SimDuration think_jitter(Rng& rng, SimDuration think) {
  if (think.ns <= 0) return {};
  return SimDuration::nanos(static_cast<std::int64_t>(
      rng.next_below(static_cast<std::uint64_t>(think.ns / 8) + 1)));
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

FlashCrowdResult simulate_flash_crowd(const FlashCrowdConfig& config) {
  FlashCrowdResult result;

  ClusterConfig cluster_config;
  cluster_config.nodes = config.nodes;
  cluster_config.seed = config.seed;
  cluster_config.kosha.replicas = config.replicas;
  cluster_config.kosha.retry = config.retry;
  if (config.controlled) {
    cluster_config.kosha.overload = config.overload;
    cluster_config.kosha.overload.enabled = true;
  }
  KoshaCluster cluster(cluster_config);
  SimClock& clock = cluster.clock();
  const std::vector<net::HostId> hosts = cluster.live_hosts();
  if (hosts.empty() || config.hot_files == 0 || config.window.ns <= 0) return result;

  // --- Setup (before the measurement clock starts) -----------------------
  // One hot anchor: every file under /hot lives on the directory's owner
  // node, so the whole reader population converges on one service queue.
  std::vector<std::string> paths(config.hot_files);
  std::vector<std::string> contents(config.hot_files);
  {
    KoshaMount setup(&cluster.daemon(hosts[0]));
    (void)setup.mkdir_p("/hot");
    for (std::size_t f = 0; f < config.hot_files; ++f) {
      paths[f] = "/hot/h" + std::to_string(f);
      contents[f] = hot_content(f, config.file_bytes);
      // A fresh, unloaded cluster cannot reject these, but a half-seeded
      // tree must not be measured as if it were whole.
      if (!setup.write_file(paths[f], contents[f]).ok()) return result;
    }
  }

  const ZipfSampler popularity(config.hot_files, config.zipf_s > 0 ? config.zipf_s : 1e-9);
  const Rng root(config.seed ^ 0xf1a5'c07dull);

  const std::size_t total_agents = config.base_clients + config.spike_clients;
  std::vector<Agent> agents(total_agents);
  for (std::size_t i = 0; i < total_agents; ++i) {
    Agent& a = agents[i];
    a.mount = std::make_unique<KoshaMount>(&cluster.daemon(hosts[i % hosts.size()]));
    a.rng = root.fork(i);
    // Warm each agent's virtual-handle cache so the measured steady state
    // is one read RPC per op, not resolve + read.
    for (std::size_t f = 0; f < config.hot_files; ++f) {
      // kosha-lint: allow(ignore-status): warm-up resolve; only the handle-cache side effect matters, the payload is discarded
      (void)a.mount->read_file(paths[f]);
    }
  }

  const SimDuration t0 = clock.now();
  const SimDuration t_end = t0 + config.duration;
  for (std::size_t i = 0; i < total_agents; ++i) {
    Agent& a = agents[i];
    const bool spike = i >= config.base_clients;
    a.think = spike ? config.spike_think : config.base_think;
    a.local = spike ? t0 + config.spike_start : t0;
    a.stop = spike ? t0 + config.spike_end : t_end;
    // Stagger the first op inside one think period (spike agents inside a
    // much smaller slice — a flash crowd arrives nearly at once).
    a.local += SimDuration::nanos(static_cast<std::int64_t>(
        a.rng.next_below(static_cast<std::uint64_t>(a.think.ns) + 1)));
  }

  const std::size_t num_windows =
      static_cast<std::size_t>((config.duration.ns + config.window.ns - 1) / config.window.ns);
  result.windows.resize(num_windows);
  for (std::size_t w = 0; w < num_windows; ++w) {
    result.windows[w].start = SimDuration::nanos(static_cast<std::int64_t>(w) * config.window.ns);
  }

  // --- Main loop: conservative per-agent timeline interleaving -----------
  // Always advance the agent with the lowest local time (lowest index on
  // ties), hopping the cluster clock between timelines, exactly like
  // run_multi_client_workload — the hot node's queue sees arrivals in
  // timestamp order and the schedule is a pure function of the seed.
  for (;;) {
    std::size_t pick = agents.size();
    for (std::size_t i = 0; i < agents.size(); ++i) {
      if (agents[i].local >= agents[i].stop) continue;
      if (pick == agents.size() || agents[i].local < agents[pick].local) pick = i;
    }
    if (pick == agents.size()) break;

    Agent& a = agents[pick];
    clock.set_now(a.local);
    const std::size_t file = popularity.sample(a.rng);
    const auto read = a.mount->read_file(paths[file]);
    const bool ok = read.ok() && read.value() == contents[file];

    const SimDuration done = clock.now();
    if (done >= t0 && done < t_end) {
      const auto w = static_cast<std::size_t>((done - t0).ns / config.window.ns);
      FlashCrowdWindow& window = result.windows[w];
      if (ok) {
        ++window.ok;
        ++result.ops_ok;
      } else {
        ++window.failed;
        ++result.ops_failed;
      }
    }
    a.local = done + a.think + think_jitter(a.rng, a.think);
  }

  // Let abandoned request chains still queued at the hot node settle, so
  // the counters below include every piece of dead work the run created.
  (void)cluster.loop().run_until_idle();

  // --- Counters ----------------------------------------------------------
  const net::NetStats& net = cluster.network().stats();
  result.timeouts = net.timeouts;
  result.retries = net.retries;
  result.admission_rejected = net.admission_rejected;
  result.deadline_rejected = net.deadline_rejected;
  result.expired = net.expired;
  result.shed_low_priority = net.shed_low_priority;
  result.inflight_peak = net.inflight_peak;
  for (const net::HostId host : cluster.live_hosts()) {
    const auto client = cluster.daemon(host).nfs_client().overload_stats();
    result.overloaded_replies += client.overloaded_replies;
    result.budget_exhausted += client.budget_exhausted;
    result.breaker_opens += client.breaker_opens;
    result.breaker_fast_fails += client.breaker_fast_fails;
    result.server_deadline_rejects += cluster.server(host).deadline_rejects();
    result.ladder_deadline_aborts += cluster.daemon(host).stats().ladder_deadline_aborts;
  }

  // --- Goodput phases ----------------------------------------------------
  const auto ws = static_cast<std::size_t>(config.spike_start.ns / config.window.ns);
  const auto we = static_cast<std::size_t>(config.spike_end.ns / config.window.ns);
  const auto mean_ok = [&](std::size_t lo, std::size_t hi) {
    if (hi <= lo) return 0.0;
    double sum = 0;
    for (std::size_t w = lo; w < hi; ++w) sum += static_cast<double>(result.windows[w].ok);
    return sum / static_cast<double>(hi - lo);
  };
  result.baseline_ops = mean_ok(std::min<std::size_t>(1, ws), ws);
  result.spike_ops = mean_ok(ws, std::min(we, num_windows));
  const std::size_t post = std::min(we, num_windows);
  const std::size_t tail = std::min<std::size_t>(4, num_windows - post);
  result.post_ops = mean_ok(num_windows - tail, num_windows);
  result.post_over_baseline =
      result.baseline_ops > 0 ? result.post_ops / result.baseline_ops : 0.0;

  // Recovery: longest suffix of post-spike windows all at >= 95% baseline.
  const double threshold = 0.95 * result.baseline_ops;
  std::size_t first_good = num_windows;
  for (std::size_t w = num_windows; w > post; --w) {
    if (static_cast<double>(result.windows[w - 1].ok) < threshold) break;
    first_good = w - 1;
  }
  result.recovered = first_good < num_windows && result.baseline_ops > 0;
  if (result.recovered) {
    const SimDuration good_end =
        SimDuration::nanos(static_cast<std::int64_t>(first_good + 1) * config.window.ns);
    result.recovery_after_spike = good_end - config.spike_end;
    if (result.recovery_after_spike.ns < 0) result.recovery_after_spike = {};
  } else {
    result.recovery_after_spike = config.duration - config.spike_end;
  }

  // --- Deterministic serialization & digest ------------------------------
  std::string csv = "arm," + std::string(config.controlled ? "controlled" : "uncontrolled") +
                    ",seed," + std::to_string(config.seed) + "\n";
  for (const FlashCrowdWindow& w : result.windows) {
    csv += "W," + std::to_string(w.start.ns / 1'000'000) + "," + std::to_string(w.ok) + "," +
           std::to_string(w.failed) + "\n";
  }
  csv += "G,baseline," + fmt(result.baseline_ops) + ",spike," + fmt(result.spike_ops) +
         ",post," + fmt(result.post_ops) + ",ratio," + fmt(result.post_over_baseline) + "\n";
  csv += "R," + std::string(result.recovered ? "1" : "0") + "," +
         std::to_string(result.recovery_after_spike.ns / 1'000'000) + "\n";
  csv += "C,timeouts," + std::to_string(result.timeouts) + ",retries," +
         std::to_string(result.retries) + ",admission_rejected," +
         std::to_string(result.admission_rejected) + ",deadline_rejected," +
         std::to_string(result.deadline_rejected) + ",expired," + std::to_string(result.expired) +
         ",shed_low_priority," + std::to_string(result.shed_low_priority) + "\n";
  csv += "C,overloaded_replies," + std::to_string(result.overloaded_replies) +
         ",budget_exhausted," + std::to_string(result.budget_exhausted) + ",breaker_opens," +
         std::to_string(result.breaker_opens) + ",breaker_fast_fails," +
         std::to_string(result.breaker_fast_fails) + ",server_deadline_rejects," +
         std::to_string(result.server_deadline_rejects) + ",ladder_deadline_aborts," +
         std::to_string(result.ladder_deadline_aborts) + "\n";
  result.timeline_csv = std::move(csv);

  const auto digest = Sha1::hash(result.timeline_csv);
  static constexpr char kHex[] = "0123456789abcdef";
  result.digest.reserve(digest.size() * 2);
  for (const std::uint8_t byte : digest) {
    result.digest += kHex[byte >> 4];
    result.digest += kHex[byte & 0xF];
  }
  return result;
}

}  // namespace kosha::sim
