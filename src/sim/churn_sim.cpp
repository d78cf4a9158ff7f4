// Continuous-churn soak: a live self-healing cluster under seeded
// exponential join/fail arrivals (see availability_sim.hpp for the API).
//
// Measurement is split between two vantage points:
//   * the client view — host 0 (never failed) re-reads every file each
//     sample through its mount; availability is the fraction that return
//     the right bytes, failovers and degraded replica reads included;
//   * the oracle view — walks every live store directly (no RPCs, no
//     clock) and counts how many live hosts hold each file's unique
//     content. >= 1 copy = durable; >= min(K+1, live) copies = fully
//     replicated. MTTR is the gap from a failure to the first sample
//     where every surviving file is back at full replication.
//
// Everything stochastic draws from seeded streams (the arrival Rng here,
// the loop's jitter stream inside the cluster), so two same-seed runs
// produce byte-identical timelines and final-state digests.

#include "sim/availability_sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fs/local_fs.hpp"
#include "kosha/audit.hpp"
#include "kosha/mount.hpp"
#include "net/fault_plan.hpp"
#include "nfs/nfs_server.hpp"

namespace kosha::sim {
namespace {

/// Two-decimal fixed-point rendering; keeps the timeline CSV byte-stable.
std::string fmt_pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

/// All regular-file contents under `dir` in one store (oracle view; each
/// dataset file carries unique bytes, so content identifies the file and
/// primary copies and /.r/ replica copies count alike).
void collect_contents(const fs::StorageBackend& store, fs::InodeId dir, std::set<std::string>* out) {
  const auto entries = store.readdir(dir);
  if (!entries.ok()) return;
  for (const auto& entry : entries.value()) {
    if (entry.type == fs::FileType::kDirectory) {
      collect_contents(store, entry.inode, out);
    } else if (entry.type == fs::FileType::kFile) {
      const auto attr = store.getattr(entry.inode);
      if (!attr.ok()) continue;
      const auto data =
          store.read(entry.inode, 0, static_cast<std::uint32_t>(attr.value().size));
      if (data.ok()) out->insert(std::move(data).value());
    }
  }
}

struct Dataset {
  std::vector<std::string> paths;
  std::vector<std::string> contents;
};

ChurnSample take_sample(KoshaCluster& cluster, KoshaMount& mount, const Dataset& dataset,
                        unsigned replicas) {
  ChurnSample sample;
  sample.at = cluster.clock().now();
  const auto live = cluster.live_hosts();
  sample.live_nodes = live.size();
  sample.undetected = cluster.undetected_failures();

  // Oracle view: which live hosts hold each file's content.
  std::vector<std::set<std::string>> held(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    const fs::StorageBackend& store = cluster.server(live[i]).store();
    collect_contents(store, store.root(), &held[i]);
  }
  const std::size_t need =
      std::min<std::size_t>(static_cast<std::size_t>(replicas) + 1, live.size());
  std::size_t durable = 0;
  std::size_t full = 0;
  for (const auto& content : dataset.contents) {
    std::size_t copies = 0;
    for (const auto& host_contents : held) copies += host_contents.count(content);
    durable += copies >= 1;
    full += copies >= need;
  }

  // Client view: re-read everything through the mount (charges time,
  // exercises failover and degraded replica reads).
  std::size_t readable = 0;
  for (std::size_t i = 0; i < dataset.paths.size(); ++i) {
    const auto read = mount.read_file(dataset.paths[i]);
    readable += read.ok() && read.value() == dataset.contents[i];
  }

  const auto pct = [](std::size_t num, std::size_t den) {
    return den == 0 ? 100.0 : 100.0 * static_cast<double>(num) / static_cast<double>(den);
  };
  sample.availability_pct = pct(readable, dataset.paths.size());
  sample.durability_pct = pct(durable, dataset.contents.size());
  sample.full_pct = pct(full, dataset.contents.size());
  return sample;
}

void append_sample_csv(const ChurnSample& sample, std::string* csv) {
  *csv += "S," + std::to_string(sample.at.ns) + "," + std::to_string(sample.live_nodes) + "," +
          fmt_pct(sample.availability_pct) + "," + fmt_pct(sample.durability_pct) + "," +
          fmt_pct(sample.full_pct) + "," + std::to_string(sample.undetected) + "\n";
}

}  // namespace

ChurnResult simulate_churn(const ChurnSimConfig& config) {
  ClusterConfig cc;
  cc.nodes = config.nodes;
  cc.seed = config.seed;
  cc.kosha.replicas = config.replicas;
  cc.kosha.distribution_level = config.level;
  cc.self_heal.enabled = !config.oracle;
  cc.self_heal.detector = config.detector;
  cc.self_heal.repair = config.repair;
  KoshaCluster cluster(cc);
  KoshaMount mount(&cluster.daemon(0));  // host 0 is the never-failed client

  // Seed the dataset before any fault injection: every file gets unique
  // content so the oracle walk can identify copies by bytes alone.
  Dataset dataset;
  for (std::size_t i = 0; i < config.files; ++i) {
    const std::string dir = "/churn/d" + std::to_string(i % 6);
    if (!mount.mkdir_p(dir).ok()) continue;
    const std::string path = dir + "/f" + std::to_string(i);
    const std::string content =
        "content-" + std::to_string(i) + "-" + std::to_string(config.seed);
    if (!mount.write_file(path, content).ok()) continue;
    dataset.paths.push_back(path);
    dataset.contents.push_back(content);
  }

  if (config.drop_probability > 0.0) {
    net::FaultPlanConfig fault;
    fault.seed = config.seed ^ 0x9E3779B97F4A7C15ull;
    fault.drop_probability = config.drop_probability;
    cluster.network().set_fault_plan(std::make_unique<net::FaultPlan>(fault));
  }

  ChurnResult result;
  Rng arrivals(config.seed ^ 0xC2B2AE3D27D4EB4Full);
  const auto exp_draw = [&arrivals](SimDuration mean) {
    const double drawn =
        -static_cast<double>(mean.ns) * std::log(1.0 - arrivals.next_double());
    return SimDuration::nanos(std::max<std::int64_t>(1, static_cast<std::int64_t>(drawn)));
  };

  EventLoop& loop = cluster.loop();
  const SimDuration start = cluster.clock().now();
  const SimDuration end = start + config.duration;
  SimDuration next_fail = start + exp_draw(config.mean_fail_interarrival);
  SimDuration next_join = start + exp_draw(config.mean_join_interarrival);
  SimDuration next_sample = start + config.sample_period;
  std::vector<SimDuration> fail_times;

  const auto bump = [](SimDuration* next, SimDuration step, SimDuration now) {
    do {
      *next += step;
    } while (*next <= now);
  };

  while (true) {
    const SimDuration t = std::min({next_fail, next_join, next_sample});
    if (t > end) break;
    loop.run_until_time(t);
    if (next_fail == t) {
      auto live = cluster.live_hosts();
      live.erase(std::remove(live.begin(), live.end(), net::HostId{0}), live.end());
      if (live.size() + 1 > config.min_live && !live.empty()) {
        const net::HostId victim = live[arrivals.next_below(live.size())];
        cluster.fail_node(victim);
        ++result.failures;
        fail_times.push_back(cluster.clock().now());
        result.timeline_csv +=
            "F," + std::to_string(t.ns) + "," + std::to_string(victim) + "\n";
      }
      next_fail = t + exp_draw(config.mean_fail_interarrival);
    }
    if (next_join == t) {
      const net::HostId added = cluster.add_node();
      ++result.joins;
      result.timeline_csv += "J," + std::to_string(t.ns) + "," + std::to_string(added) + "\n";
      next_join = t + exp_draw(config.mean_join_interarrival);
    }
    if (next_sample == t) {
      const ChurnSample sample = take_sample(cluster, mount, dataset, config.replicas);
      append_sample_csv(sample, &result.timeline_csv);
      result.timeline.push_back(sample);
      bump(&next_sample, config.sample_period, cluster.clock().now());
    }
  }

  // Convergence tail: no more arrivals; keep sampling until every
  // surviving file is fully replicated and no failure is undetected, or
  // give up at 4x the soak duration.
  const SimDuration hard_stop = start + config.duration * 4;
  while (true) {
    loop.run_until_time(next_sample);
    const ChurnSample sample = take_sample(cluster, mount, dataset, config.replicas);
    append_sample_csv(sample, &result.timeline_csv);
    result.timeline.push_back(sample);
    bump(&next_sample, config.sample_period, cluster.clock().now());
    if (sample.full_pct >= 100.0 && sample.undetected == 0) {
      result.converged = true;
      break;
    }
    if (cluster.clock().now() >= hard_stop) break;
  }

  // Detection latency: recorded by the cluster when the first survivor
  // confirms each real death. Oracle mode detects by fiat.
  if (config.oracle) {
    result.detected = result.failures;
  } else {
    for (const auto& detection : cluster.detections()) {
      const double ms = (detection.detected_at - detection.failed_at).to_millis();
      ++result.detected;
      result.detect_ms_mean += ms;
      result.detect_ms_max = std::max(result.detect_ms_max, ms);
    }
    if (result.detected > 0) result.detect_ms_mean /= static_cast<double>(result.detected);
  }

  // MTTR: failure -> first subsequent sample at 100% full replication
  // (sample-grid resolution).
  for (const SimDuration failed_at : fail_times) {
    for (const ChurnSample& sample : result.timeline) {
      if (sample.at <= failed_at || sample.full_pct < 100.0) continue;
      const double ms = (sample.at - failed_at).to_millis();
      ++result.repaired;
      result.mttr_ms_mean += ms;
      result.mttr_ms_max = std::max(result.mttr_ms_max, ms);
      break;
    }
  }
  if (result.repaired > 0) result.mttr_ms_mean /= static_cast<double>(result.repaired);

  for (const ChurnSample& sample : result.timeline) {
    result.availability_pct += sample.availability_pct;
    result.min_durability_pct = std::min(result.min_durability_pct, sample.durability_pct);
  }
  if (!result.timeline.empty()) {
    result.availability_pct /= static_cast<double>(result.timeline.size());
    result.final_durability_pct = result.timeline.back().durability_pct;
    result.final_full_pct = result.timeline.back().full_pct;
  }
  result.digest = audit_digest(cluster);
  result.timeline_csv += "D," + result.digest + "\n";
  return result;
}

}  // namespace kosha::sim
