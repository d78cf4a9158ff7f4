// Ablation: cost of the replication factor. Replica mirroring is
// asynchronous (off the client's critical path), so the foreground MAB
// time barely moves with K — the price is paid in network bytes and disk
// (the write amplification is K+1). This quantifies the design choice the
// paper makes implicitly by fixing the replication factor to 1 in its
// performance tables while using 3 for availability.
//
// Flags: --runs N (default 3), --seed.

#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "trace/mab.hpp"

int main(int argc, char** argv) {
  using namespace kosha;
  const CliArgs args(argc, argv);
  if (const auto err = args.check_known("runs,seed"); !err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  const auto runs = static_cast<std::size_t>(args.get_int("runs", 3));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

  std::printf("Ablation: replication factor vs foreground time and traffic "
              "(MAB, 8 nodes, runs=%zu)\n\n", runs);

  TextTable table({"replicas", "MAB total (s)", "net GiB", "stored GiB",
                   "write amplification"});
  double baseline_bytes = 0;
  for (unsigned k = 0; k <= 4; ++k) {
    double total_s = 0;
    double net_bytes = 0;
    double stored_bytes = 0;
    for (std::size_t run = 0; run < runs; ++run) {
      ClusterConfig config;
      config.nodes = 8;
      config.kosha.distribution_level = 1;
      config.kosha.replicas = k;
      config.node_capacity_bytes = 64ull << 30;
      config.seed = seed + run * 1000;
      KoshaCluster cluster(config);
      KoshaMount mount(&cluster.daemon(0));

      trace::MabConfig mab;
      mab.seed = seed + run;
      mab.prefix = std::string("r").append(std::to_string(run));
      const auto workload = trace::generate_mab(mab);
      total_s += trace::run_mab(mount, workload, cluster.clock()).total();
      net_bytes += static_cast<double>(cluster.network().stats().bytes);
      for (const auto host : cluster.live_hosts()) {
        stored_bytes += static_cast<double>(cluster.server(host).store().used_bytes());
      }
    }
    total_s /= static_cast<double>(runs);
    net_bytes /= static_cast<double>(runs);
    stored_bytes /= static_cast<double>(runs);
    if (k == 0) baseline_bytes = stored_bytes;
    table.add_row({"K=" + std::to_string(k), TextTable::fmt(total_s, 2),
                   TextTable::fmt(net_bytes / (1ull << 30), 2),
                   TextTable::fmt(stored_bytes / (1ull << 30), 2),
                   TextTable::fmt(baseline_bytes > 0 ? stored_bytes / baseline_bytes : 1.0, 2) +
                       "x"});
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("\nForeground time is flat (mirroring is asynchronous); storage and\n"
              "network traffic scale with K+1 — the cost availability is bought with.\n");
  return 0;
}
