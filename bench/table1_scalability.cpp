// Table 1 — Modified Andrew Benchmark on Kosha vs unmodified NFS as the
// node count grows (paper §6.1.1).
//
// Setup mirrors the paper: distribution level 1 (isolates p2p lookup
// overhead), replication factor 1, per-node capacity large enough to rule
// out redirection. The NFS baseline is one client cross-mounting one
// central server over the same network/cost model.
//
// Flags: --runs N (default 5; paper used 50), --model (print the §6.1.2
// analytic overhead model next to the measurement), --csv.
//
// --sweep switches to the scalability sweep (the committed perf
// trajectory): for each node count in --sweep-nodes (default 64,256,1024)
// a fully-instrumented cluster (metrics + tracing + profiling) runs a
// multi-client workload and the run's throughput (events/sec, ops/sec),
// virtual latency percentiles, and critical-path stage shares are written
// to --out (default results/BENCH_scale.json). CI diffs that file against
// results/BENCH_scale.baseline.json with kosha_prof.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "baseline/nfs_mount.hpp"
#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/profile.hpp"
#include "common/table.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "sim/concurrency_driver.hpp"
#include "trace/mab.hpp"

namespace {

using namespace kosha;

trace::MabPhaseTimes run_nfs_baseline(std::size_t runs, std::uint64_t seed) {
  SimClock clock;
  net::SimNetwork network({}, &clock);
  const net::HostId client = network.add_host();
  const net::HostId server_host = network.add_host();
  fs::StorageConfig storage;
  storage.fs.capacity_bytes = 64ull << 30;
  nfs::NfsServer server(server_host, storage, {}, &clock);
  nfs::ServerDirectory directory;
  directory.add(&server);

  trace::MabPhaseTimes sum;
  for (std::size_t run = 0; run < runs; ++run) {
    baseline::NfsMount mount(&network, &directory, client, server_host);
    trace::MabConfig mab;
    mab.seed = seed + run;
    mab.prefix = std::string("r").append(std::to_string(run));
    const auto workload = trace::generate_mab(mab);
    sum += trace::run_mab(mount, workload, clock);
    trace::cleanup_mab(mount, workload);
  }
  sum /= static_cast<double>(runs);
  return sum;
}

struct KoshaRun {
  trace::MabPhaseTimes times;
  double mean_hops = 0;  // average DHT hops per lookup
};

KoshaRun run_kosha(std::size_t nodes, std::size_t runs, std::uint64_t seed) {
  trace::MabPhaseTimes sum;
  std::uint64_t hops = 0;
  std::uint64_t lookups = 0;
  // Fresh cluster (fresh node-id assignment) per run, like the paper's
  // repeated measurements.
  for (std::size_t run = 0; run < runs; ++run) {
    ClusterConfig config;
    config.nodes = nodes;
    config.kosha.distribution_level = 1;
    config.kosha.replicas = 1;
    config.node_capacity_bytes = 64ull << 30;
    config.seed = seed + run * 1000;
    KoshaCluster cluster(config);
    KoshaMount mount(&cluster.daemon(0));

    trace::MabConfig mab;
    mab.seed = seed + run;
    mab.prefix = std::string("r").append(std::to_string(run));
    const auto workload = trace::generate_mab(mab);
    sum += trace::run_mab(mount, workload, cluster.clock());
    trace::cleanup_mab(mount, workload);
    hops += cluster.daemon(0).stats().dht_hops;
    lookups += cluster.daemon(0).stats().dht_lookups;
  }
  sum /= static_cast<double>(runs);
  KoshaRun result{sum, 0.0};
  if (lookups > 0) {
    result.mean_hops = static_cast<double>(hops) / static_cast<double>(lookups);
  }
  return result;
}

std::string overhead(double kosha_s, double nfs_s) {
  if (nfs_s <= 0) return "-";
  return TextTable::pct((kosha_s - nfs_s) / nfs_s, 1);
}

/// The committed perf trajectory: one fully-instrumented run per node
/// count, measuring the simulator itself (how fast does virtual time run
/// on this host) alongside the simulated system (where does virtual time
/// go). Virtual-time figures (ops, latency percentiles, stage shares) are
/// deterministic per seed; wall-derived figures (wall_ms, *_per_sec) vary
/// run to run and kosha_prof's compare gate treats them accordingly.
int run_sweep(const CliArgs& args) {
  const auto node_list = args.get_sizes("sweep-nodes", "64,256,1024");
  const auto clients = static_cast<std::size_t>(args.get_int("sweep-clients", 16));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string out = args.get_string("out", "results/BENCH_scale.json");

  std::printf("Scalability sweep: %zu clients per point, seed=%llu\n\n", clients,
              static_cast<unsigned long long>(seed));
  TextTable table({"nodes", "ops", "makespan (ms)", "p50 (us)", "p99 (us)", "events",
                   "events/sec", "wall (ms)"});

  std::string json = "{\n  \"bench\": \"table1_scalability_sweep\",\n";
  json += "  \"seed\": " + std::to_string(seed) + ",\n";
  json += "  \"clients\": " + std::to_string(clients) + ",\n";
  json += "  \"points\": [";
  bool first_point = true;
  for (const std::size_t n : node_list) {
    ClusterConfig config;
    config.nodes = n;
    config.seed = seed;
    config.kosha.distribution_level = 1;
    config.kosha.replicas = 1;
    config.node_capacity_bytes = 64ull << 30;
    config.observability.metrics = true;
    config.observability.tracing = true;
    config.observability.profiling = true;
    KoshaCluster cluster(config);
    // Construction (N joins) is profiled too, but the workload is what the
    // trajectory tracks: reset so events/sec measures steady state.
    cluster.profiler().reset();
    cluster.tracer().clear();

    sim::WorkloadConfig workload;
    workload.clients = clients;
    const auto result = sim::run_multi_client_workload(cluster, workload);

    const SimProfiler& prof = cluster.profiler();
    const double wall_s = static_cast<double>(prof.wall_elapsed_ns()) * 1e-9;
    const double events_per_sec =
        wall_s > 0 ? static_cast<double>(prof.events()) / wall_s : 0.0;
    const double ops_per_sec = wall_s > 0 ? static_cast<double>(prof.ops()) / wall_s : 0.0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    if (const Histogram* lat = cluster.metrics().find_histogram("sim.op.latency_us");
        lat != nullptr && lat->count() > 0) {
      p50 = lat->percentile(50);
      p95 = lat->percentile(95);
      p99 = lat->percentile(99);
    }
    const auto critical = prof::analyze_critical_path(cluster.tracer().spans());

    table.add_row({std::to_string(n), std::to_string(result.ops),
                   TextTable::fmt(result.makespan.to_millis()), TextTable::fmt(p50, 1),
                   TextTable::fmt(p99, 1), std::to_string(prof.events()),
                   TextTable::fmt(events_per_sec, 0), TextTable::fmt(wall_s * 1e3, 1)});

    if (!first_point) json += ",";
    first_point = false;
    json += "\n    {\"nodes\": " + std::to_string(n);
    json += ", \"ops\": " + std::to_string(result.ops);
    json += ", \"failures\": " + std::to_string(result.failures);
    json += ", \"events\": " + std::to_string(prof.events());
    json += ", \"makespan_ms\": " + json_number(result.makespan.to_millis());
    json += ", \"virtual_ms\": " + json_number(cluster.clock().now().to_millis());
    json += ", \"wall_ms\": " + json_number(wall_s * 1e3);
    json += ", \"events_per_sec\": " + json_number(events_per_sec);
    json += ", \"ops_per_sec\": " + json_number(ops_per_sec);
    json += ", \"p50_us\": " + json_number(p50);
    json += ", \"p95_us\": " + json_number(p95);
    json += ", \"p99_us\": " + json_number(p99);
    json += ", \"stages\": {";
    bool first_stage = true;
    for (const auto& [stage, total] : critical.stages) {
      if (!first_stage) json += ", ";
      first_stage = false;
      const double share = critical.critical_total_ns > 0
                               ? static_cast<double>(total.ns) /
                                     static_cast<double>(critical.critical_total_ns)
                               : 0.0;
      json += '"';
      json += json_escape(stage) + "\": {\"ns\": " + json_number(static_cast<double>(total.ns)) +
              ", \"share\": " + json_number(share) + "}";
    }
    json += "}}";
  }
  json += "\n  ]\n}\n";

  std::fputs(table.to_string().c_str(), stdout);
  std::ofstream file(out, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "cannot write %s (does the directory exist?)\n", out.c_str());
    return 1;
  }
  file << json;
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const kosha::CliArgs args(argc, argv);
  if (const auto err =
          args.check_known("runs,seed,model,csv,sweep,sweep-nodes,sweep-clients,out");
      !err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  if (args.get_bool("sweep", false)) return run_sweep(args);
  const auto runs = static_cast<std::size_t>(args.get_int("runs", 5));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

  std::printf("Table 1: Modified Andrew Benchmark, Kosha vs NFS (runs=%zu)\n", runs);
  std::printf("distribution level 1, replication factor 1, no redirection\n\n");

  const auto nfs = run_nfs_baseline(runs, seed);
  const std::size_t node_counts[] = {1, 2, 4, 8};
  std::vector<KoshaRun> kosha_runs;
  for (const std::size_t n : node_counts) kosha_runs.push_back(run_kosha(n, runs, seed));

  kosha::TextTable table({"Benchmark", "NFS", "K-1", "ov%", "K-2", "ov%", "K-4", "ov%", "K-8",
                          "ov%"});
  auto phase_row = [&](const char* name, auto select) {
    std::vector<std::string> row{name, kosha::TextTable::fmt(select(nfs), 2)};
    for (const auto& k : kosha_runs) {
      row.push_back(kosha::TextTable::fmt(select(k.times), 2));
      row.push_back(overhead(select(k.times), select(nfs)));
    }
    table.add_row(std::move(row));
  };
  phase_row("mkdir", [](const auto& t) { return t.mkdir_s; });
  phase_row("copy", [](const auto& t) { return t.copy_s; });
  phase_row("stat", [](const auto& t) { return t.stat_s; });
  phase_row("grep", [](const auto& t) { return t.grep_s; });
  phase_row("compile", [](const auto& t) { return t.compile_s; });
  phase_row("Total", [](const auto& t) { return t.total(); });

  std::fputs(table.to_string().c_str(), stdout);
  if (args.get_bool("csv", false)) std::fputs(table.to_csv().c_str(), stdout);

  if (args.get_bool("model", false)) {
    // Analytic model of §6.1.2: D = I + H*hc*(N-1)/N per operation.
    std::printf("\nOverhead model D = I + H*hc*(N-1)/N (per-op, microseconds):\n");
    kosha::ClusterConfig model_config;
    const double interposition_us =
        static_cast<double>(model_config.kosha.interposition_cost.ns) / 1000.0;
    const double hop_us = static_cast<double>(kosha::net::NetworkConfig{}.hop_latency.ns) / 1e3;
    for (std::size_t i = 0; i < 4; ++i) {
      const auto n = static_cast<double>(node_counts[i]);
      const double model =
          interposition_us + kosha_runs[i].mean_hops * hop_us * (n - 1.0) / n;
      std::printf("  N=%zu: measured mean DHT hops=%.2f, model D=%.1f us\n", node_counts[i],
                  kosha_runs[i].mean_hops, model);
    }
  }
  return 0;
}
