// Figure 7 — file availability over an 840-hour machine-availability trace
// for replica counts 0-4 (paper §6.3). Distribution level 3. The trace has
// a mass correlated failure at hour 615 (the paper's 4890-machine event).
//
// Flags: --runs N (default 3; paper used 100), --machines N (default 2000),
// --files N, --seed, --repair-hours H (default 1: a fresh replica takes an
// hour to copy), --csv (per-hour series).
//
// --faults switches to the fault-injection sweep: a live KoshaCluster under
// a seeded FaultPlan, drop rates {0,1,2,5}% x replicas {0,2}, reporting
// first-try op success plus the retry/timeout/failover counters
// (--ops N sets the per-cell operation count, --nodes N the cluster size).
// A second table breaks the retry/timeout totals down per NFS procedure so
// loss-sensitive operations (multi-RPC writes vs. single-RPC stats) are
// visible separately.
//
// --churn switches to the continuous-churn soak (DESIGN §8): a live
// self-healing cluster under seeded exponential join/fail arrivals with no
// failure oracle, reporting time-to-detection, MTTR, read availability and
// data durability. Knobs: --nodes, --replicas, --duration S, --fail-mean S,
// --join-mean S, --churn-files N, --drop P, --oracle (ablation: instant
// failure verdicts, no heartbeat detectors), --seed; --csv dumps the
// deterministic timeline and --metrics-out=FILE writes the JSON summary CI
// archives.

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "nfs/wire.hpp"
#include "sim/availability_sim.hpp"

namespace {

/// One cell of the fault sweep: a fresh cluster soaked at `drop_probability`.
int run_fault_sweep(const kosha::CliArgs& args) {
  using namespace kosha;
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto nodes = static_cast<std::size_t>(args.get_int("nodes", 16));
  const auto ops = static_cast<int>(args.get_int("ops", 300));

  std::printf("Fault-injection sweep: %zu nodes, %d ops/cell, seed %llu\n"
              "success%% counts first-try completions (the retry schedule and\n"
              "failover ladder run underneath each op).\n\n",
              nodes, ops, static_cast<unsigned long long>(seed));

  TextTable table({"replicas", "drop%", "ops", "success%", "drops", "retries", "timeouts",
                   "failovers", "degraded"});
  TextTable proc_table({"replicas", "drop%", "proc", "messages", "bytes", "retries",
                        "timeouts"});
  bool any_proc_rows = false;
  for (const unsigned k : {0u, 2u}) {
    for (const double drop : {0.0, 0.01, 0.02, 0.05}) {
      ClusterConfig config;
      config.nodes = nodes;
      config.kosha.replicas = k;
      config.kosha.read_from_replicas = k > 0;
      config.seed = seed;
      KoshaCluster cluster(config);

      net::FaultPlanConfig fault;
      fault.seed = seed + 7;
      fault.drop_probability = drop;
      cluster.network().set_fault_plan(std::make_unique<net::FaultPlan>(fault));

      KoshaMount mount(&cluster.daemon(0));
      Rng rng(seed ^ 0xFA17ull);
      std::vector<std::string> written;
      int succeeded = 0;
      for (int i = 0; i < ops; ++i) {
        bool ok = false;
        if (written.empty() || rng.next_below(3) == 0) {
          const std::string dir = "/w" + std::to_string(rng.next_below(8));
          const std::string file = dir + "/f" + std::to_string(rng.next_below(4));
          ok = mount.mkdir_p(dir).ok() && mount.write_file(file, rng.next_name(16)).ok();
          if (ok) written.push_back(file);
        } else {
          // Read or stat a file known to exist, so every failure is
          // fault-attributable.
          const std::string& file = written[rng.next_below(written.size())];
          ok = rng.next_bool(0.5) ? mount.read_file(file).ok() : mount.stat(file).ok();
        }
        if (ok) ++succeeded;
      }

      const auto& nstats = cluster.network().stats();
      const auto& dstats = cluster.daemon(0).stats();
      table.add_row({"Kosha-" + std::to_string(k), TextTable::fmt(drop * 100.0, 1),
                     std::to_string(ops),
                     TextTable::pct(ops > 0 ? static_cast<double>(succeeded) / ops : 0.0, 2),
                     std::to_string(nstats.drops), std::to_string(nstats.retries),
                     std::to_string(nstats.timeouts), std::to_string(dstats.failovers),
                     std::to_string(dstats.degraded_reads)});

      // Per-procedure breakdown, restricted to procedures that actually had
      // to retry or time out in this cell — the fault-attributable traffic.
      for (const nfs::NfsProc proc : nfs::kAllProcs) {
        const net::ProcNetStats& slot = nstats.per_proc[nfs::proc_slot(proc)];
        if (slot.retries == 0 && slot.timeouts == 0) continue;
        any_proc_rows = true;
        proc_table.add_row({"Kosha-" + std::to_string(k), TextTable::fmt(drop * 100.0, 1),
                            nfs::proc_name(proc), std::to_string(slot.messages),
                            std::to_string(slot.bytes), std::to_string(slot.retries),
                            std::to_string(slot.timeouts)});
      }
    }
  }
  std::fputs(table.to_string().c_str(), stdout);
  if (any_proc_rows) {
    std::printf("\nPer-procedure retry/timeout breakdown (procedures with none are "
                "omitted):\n");
    std::fputs(proc_table.to_string().c_str(), stdout);
  }
  return 0;
}

/// Continuous-churn soak (DESIGN §8): seeded join/fail arrivals against a
/// self-healing cluster, no oracle.
int run_churn(const kosha::CliArgs& args) {
  using namespace kosha;
  sim::ChurnSimConfig config;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.nodes = static_cast<std::size_t>(args.get_int("nodes", 12));
  config.replicas = static_cast<unsigned>(args.get_int("replicas", 2));
  config.duration = SimDuration::seconds(args.get_double("duration", 20.0));
  config.mean_fail_interarrival = SimDuration::seconds(args.get_double("fail-mean", 3.0));
  config.mean_join_interarrival = SimDuration::seconds(args.get_double("join-mean", 5.0));
  config.files = static_cast<std::size_t>(args.get_int("churn-files", 24));
  config.drop_probability = args.get_double("drop", 0.0);
  config.oracle = args.get_bool("oracle", false);

  std::printf("Continuous-churn soak: %zu nodes, K=%u, %.0fs, fail mean %.1fs, "
              "join mean %.1fs, drop %.1f%%, seed %llu, %s repair\n\n",
              config.nodes, config.replicas, config.duration.to_seconds(),
              config.mean_fail_interarrival.to_seconds(),
              config.mean_join_interarrival.to_seconds(), config.drop_probability * 100.0,
              static_cast<unsigned long long>(config.seed),
              config.oracle ? "oracle-driven" : "self-healing");

  const auto result = sim::simulate_churn(config);

  TextTable table({"metric", "value"});
  table.add_row({"failures / joins",
                 std::to_string(result.failures) + " / " + std::to_string(result.joins)});
  table.add_row({"detected", std::to_string(result.detected) + "/" +
                                 std::to_string(result.failures)});
  table.add_row({"detection ms (mean/max)", TextTable::fmt(result.detect_ms_mean, 1) + " / " +
                                                TextTable::fmt(result.detect_ms_max, 1)});
  table.add_row({"repaired", std::to_string(result.repaired) + "/" +
                                 std::to_string(result.failures)});
  table.add_row({"MTTR ms (mean/max)", TextTable::fmt(result.mttr_ms_mean, 1) + " / " +
                                           TextTable::fmt(result.mttr_ms_max, 1)});
  table.add_row({"availability%", TextTable::fmt(result.availability_pct, 2)});
  table.add_row({"durability% (min/final)", TextTable::fmt(result.min_durability_pct, 2) +
                                                " / " +
                                                TextTable::fmt(result.final_durability_pct, 2)});
  table.add_row({"full replication% (final)", TextTable::fmt(result.final_full_pct, 2)});
  table.add_row({"converged", result.converged ? "yes" : "no"});
  table.add_row({"state digest", result.digest});
  std::fputs(table.to_string().c_str(), stdout);

  if (args.get_bool("csv", false)) {
    std::printf("\ntype,at_ns,...\n%s", result.timeline_csv.c_str());
  }

  if (const std::string out = args.get_string("metrics-out", ""); !out.empty()) {
    std::ostringstream json;
    json << "{\n  \"seed\": " << config.seed << ",\n  \"nodes\": " << config.nodes
         << ",\n  \"replicas\": " << config.replicas
         << ",\n  \"oracle\": " << (config.oracle ? "true" : "false")
         << ",\n  \"failures\": " << result.failures << ",\n  \"joins\": " << result.joins
         << ",\n  \"detected\": " << result.detected
         << ",\n  \"detect_ms_mean\": " << result.detect_ms_mean
         << ",\n  \"detect_ms_max\": " << result.detect_ms_max
         << ",\n  \"repaired\": " << result.repaired
         << ",\n  \"mttr_ms_mean\": " << result.mttr_ms_mean
         << ",\n  \"mttr_ms_max\": " << result.mttr_ms_max
         << ",\n  \"availability_pct\": " << result.availability_pct
         << ",\n  \"min_durability_pct\": " << result.min_durability_pct
         << ",\n  \"final_durability_pct\": " << result.final_durability_pct
         << ",\n  \"final_full_pct\": " << result.final_full_pct
         << ",\n  \"converged\": " << (result.converged ? "true" : "false")
         << ",\n  \"samples\": " << result.timeline.size() << ",\n  \"digest\": \""
         << result.digest << "\"\n}\n";
    std::ofstream file(out);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    file << json.str();
    std::printf("\nwrote %s\n", out.c_str());
  }
  // The soak fails loudly when self-healing did not do its job: every real
  // failure must be detected and the surviving files fully re-replicated.
  if (result.detected != result.failures || !result.converged) {
    std::fprintf(stderr, "churn soak FAILED: detected %zu/%zu, converged=%s\n", result.detected,
                 result.failures, result.converged ? "true" : "false");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kosha;
  const CliArgs args(argc, argv);
  if (const auto err = args.check_known(
          "runs,seed,files,machines,repair-hours,csv,faults,ops,nodes,churn,replicas,duration,"
          "fail-mean,join-mean,churn-files,drop,oracle,metrics-out");
      !err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  if (args.get_bool("churn", false)) return run_churn(args);
  if (args.get_bool("faults", false)) return run_fault_sweep(args);
  const auto runs = static_cast<std::size_t>(args.get_int("runs", 3));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  trace::FsTraceConfig fs_config;
  fs_config.seed = seed;
  fs_config.files = static_cast<std::size_t>(args.get_int("files", 221'000));
  const auto fs = trace::generate_fs_trace(fs_config);

  trace::AvailabilityConfig avail_config;
  avail_config.seed = seed + 1;
  avail_config.machines = static_cast<std::size_t>(args.get_int("machines", 2000));
  const auto machines = trace::generate_availability_trace(avail_config);

  std::printf("Figure 7: file availability over %zu hours, %zu machines "
              "(mean machine availability %s), level 3, runs=%zu\n",
              machines.hours, machines.machines,
              TextTable::pct(machines.mean_availability(), 2).c_str(), runs);
  std::printf("mass failure at hour %zu: %zu machines down\n\n", avail_config.spike_hour,
              machines.down_count(avail_config.spike_hour));

  TextTable table({"replicas", "avg avail%", "min avail%", "min hour", "avail@615%"});
  std::vector<sim::AvailabilityResult> results;
  for (unsigned k = 0; k <= 4; ++k) {
    sim::AvailabilitySimConfig config;
    config.replicas = k;
    config.runs = runs;
    config.seed = seed + 2;
    config.repair_hours = static_cast<std::size_t>(args.get_int("repair-hours", 1));
    results.push_back(sim::simulate_availability(fs, machines, config));
    const auto& r = results.back();
    table.add_row({"Kosha-" + std::to_string(k), TextTable::fmt(r.average_pct, 4),
                   TextTable::fmt(r.min_pct, 2), std::to_string(r.min_hour),
                   TextTable::fmt(r.available_pct[avail_config.spike_hour], 2)});
  }
  std::fputs(table.to_string().c_str(), stdout);

  if (args.get_bool("csv", false)) {
    std::printf("\nhour,k0,k1,k2,k3,k4\n");
    for (std::size_t h = 0; h < machines.hours; ++h) {
      std::printf("%zu,%.4f,%.4f,%.4f,%.4f,%.4f\n", h, results[0].available_pct[h],
                  results[1].available_pct[h], results[2].available_pct[h],
                  results[3].available_pct[h], results[4].available_pct[h]);
    }
  }
  return 0;
}
