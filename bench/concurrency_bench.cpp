// Concurrency benchmark for the event-driven execution core.
//
// Multi-client scaling: for each clients count, one seeded workload runs
// with overlapping client timelines. Its busy time (the sum of per-op
// latencies, what charging every op back-to-back would cost) over its
// makespan is the concurrency win the event loop buys; N-client makespan
// below N x the 1-client run says the same. Replica mirroring cost is
// reported by bench/ablation_replication's K sweep.
//
// Flags: --clients=1,4,16 (csv), --nodes, --files, --bytes, --reads,
//        --zipf=S (read-pass Zipf popularity skew; 0 = legacy round-robin),
//        --seed, --metrics-out=FILE (JSON summary for CI artifacts),
//        --profile-out=FILE (BENCH_sim_profile.json: one profiling-enabled
//        run at the largest client count, with per-event-category costs,
//        throughput, latency percentiles and the critical-path breakdown).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/profile.hpp"
#include "common/table.hpp"
#include "kosha/cluster.hpp"
#include "sim/concurrency_driver.hpp"

namespace {

using namespace kosha;

std::vector<std::size_t> parse_csv_sizes(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(static_cast<std::size_t>(std::stoull(item)));
  }
  return out;
}

ClusterConfig base_config(std::size_t nodes, std::uint64_t seed) {
  ClusterConfig config;
  config.nodes = nodes;
  config.seed = seed;
  config.kosha.replicas = 1;
  return config;
}

/// One fully-instrumented run (metrics + tracing + profiling) whose
/// accounting becomes BENCH_sim_profile.json. Wall-derived numbers vary run
/// to run by nature; kosha_prof's compare mode skips/ratio-gates them.
int write_profile_json(const std::string& out, std::size_t nodes, std::uint64_t seed,
                       sim::WorkloadConfig workload, std::size_t clients) {
  ClusterConfig config = base_config(nodes, seed);
  config.observability.metrics = true;
  config.observability.tracing = true;
  config.observability.profiling = true;
  KoshaCluster cluster(config);
  workload.clients = clients;
  const auto result = sim::run_multi_client_workload(cluster, workload);

  const SimProfiler& prof = cluster.profiler();
  const double wall_s = static_cast<double>(prof.wall_elapsed_ns()) * 1e-9;
  std::string json = "{\n";
  json += "  \"bench\": \"concurrency_bench\",\n";
  json += "  \"nodes\": " + std::to_string(nodes) + ",\n";
  json += "  \"clients\": " + std::to_string(clients) + ",\n";
  json += "  \"seed\": " + std::to_string(seed) + ",\n";
  json += "  \"ops\": " + std::to_string(result.ops) + ",\n";
  json += "  \"failures\": " + std::to_string(result.failures) + ",\n";
  json += "  \"events\": " + std::to_string(prof.events()) + ",\n";
  json += "  \"virtual_ms\": " + json_number(cluster.clock().now().to_millis()) + ",\n";
  json += "  \"makespan_ms\": " + json_number(result.makespan.to_millis()) + ",\n";
  json += "  \"wall_ms\": " + json_number(wall_s * 1e3) + ",\n";
  json += "  \"events_per_sec\": " +
          json_number(wall_s > 0 ? static_cast<double>(prof.events()) / wall_s : 0) + ",\n";
  json += "  \"ops_per_sec\": " +
          json_number(wall_s > 0 ? static_cast<double>(prof.ops()) / wall_s : 0) + ",\n";
  json += "  \"categories\": {";
  bool first = true;
  for (const auto& [name, c] : prof.categories()) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + json_escape(name) + "\": {\"count\": " + std::to_string(c.count) +
            ", \"wall_us\": " + json_number(static_cast<double>(c.wall_ns) * 1e-3) + "}";
  }
  json += "},\n";
  if (const Histogram* lat = cluster.metrics().find_histogram("sim.op.latency_us");
      lat != nullptr && lat->count() > 0) {
    json += "  \"latency_us\": {\"p50\": " + json_number(lat->percentile(50)) +
            ", \"p95\": " + json_number(lat->percentile(95)) +
            ", \"p99\": " + json_number(lat->percentile(99)) + "},\n";
  }
  const auto critical = prof::analyze_critical_path(cluster.tracer().spans());
  json += "  \"critical\": " + prof::critical_report_json(critical) + "\n";
  json += "}\n";

  std::ofstream file(out, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  file << json;
  std::printf("\nwrote %s (%llu events, %zu ops, %.0f events/sec)\n", out.c_str(),
              static_cast<unsigned long long>(prof.events()), result.ops,
              wall_s > 0 ? static_cast<double>(prof.events()) / wall_s : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (const auto err =
          args.check_known("clients,nodes,files,bytes,reads,zipf,seed,metrics-out,profile-out");
      !err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  const auto clients_list = parse_csv_sizes(args.get_string("clients", "1,4,16"));
  const auto nodes = static_cast<std::size_t>(args.get_int("nodes", 8));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  sim::WorkloadConfig workload;
  workload.files_per_client = static_cast<std::size_t>(args.get_int("files", 4));
  workload.file_bytes = static_cast<std::size_t>(args.get_int("bytes", 4096));
  workload.reads_per_file = static_cast<std::size_t>(args.get_int("reads", 2));
  workload.zipf_s = args.get_double("zipf", 0.0);

  std::printf("Concurrency bench: event-driven core (%zu nodes, seed=%llu, zipf=%.2f)\n\n",
              nodes, static_cast<unsigned long long>(seed), workload.zipf_s);

  TextTable scaling({"clients", "makespan (ms)", "busy (ms)", "speedup", "mean op (us)",
                     "failures"});
  struct Row {
    std::size_t clients;
    double makespan_ms;
    double busy_ms;
    double speedup;
  };
  std::vector<Row> rows;
  for (const std::size_t n : clients_list) {
    sim::WorkloadConfig wl = workload;
    wl.clients = n;
    KoshaCluster cluster(base_config(nodes, seed));
    const auto result = sim::run_multi_client_workload(cluster, wl);
    const double speedup = result.makespan.ns > 0
                               ? result.busy.to_millis() / result.makespan.to_millis()
                               : 0.0;
    rows.push_back({n, result.makespan.to_millis(), result.busy.to_millis(), speedup});
    scaling.add_row({std::to_string(n), TextTable::fmt(result.makespan.to_millis()),
                     TextTable::fmt(result.busy.to_millis()), TextTable::fmt(speedup) + "x",
                     TextTable::fmt(result.mean_op_us(), 1), std::to_string(result.failures)});
  }
  std::fputs(scaling.to_string().c_str(), stdout);
  std::printf("\nSpeedup = busy/makespan: overlapping client timelines turn N clients'\n"
              "independent RPCs into concurrent in-flight work instead of a serial sum.\n");

  if (const std::string out = args.get_string("metrics-out", ""); !out.empty()) {
    std::ostringstream json;
    json << "{\n  \"seed\": " << seed << ",\n  \"nodes\": " << nodes << ",\n";
    json << "  \"scaling\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i != 0) json << ", ";
      json << "{\"clients\": " << rows[i].clients << ", \"makespan_ms\": " << rows[i].makespan_ms
           << ", \"busy_ms\": " << rows[i].busy_ms << ", \"speedup\": " << rows[i].speedup
           << "}";
    }
    json << "]\n}\n";
    std::ofstream file(out);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    file << json.str();
    std::printf("\nwrote %s\n", out.c_str());
  }

  if (const std::string out = args.get_string("profile-out", ""); !out.empty()) {
    const std::size_t profile_clients = clients_list.empty() ? 4 : clients_list.back();
    return write_profile_json(out, nodes, seed, workload, profile_clients);
  }
  return 0;
}
