// Table 2 — Modified Andrew Benchmark on Kosha as the distribution level
// grows (paper §6.1.4). 4 nodes; levels 1-4; overhead reported relative to
// level 1. Expect mkdir/copy to pay the most (extra hash + special-link
// creation), grep/compile the least.
//
// Flags: --runs N (default 5; paper used 50), --seed, --csv.

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "trace/mab.hpp"

namespace {

using namespace kosha;

trace::MabPhaseTimes run_level(unsigned level, std::size_t runs, std::uint64_t seed) {
  trace::MabPhaseTimes sum;
  for (std::size_t run = 0; run < runs; ++run) {
    ClusterConfig config;
    config.nodes = 4;  // paper: "the number of nodes was fixed at 4"
    config.kosha.distribution_level = level;
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
  }
  sum /= static_cast<double>(runs);
  return sum;
}

std::string overhead(double t, double base) {
  if (base <= 0) return "-";
  return TextTable::pct((t - base) / base, 1);
}

}  // namespace

int main(int argc, char** argv) {
  const kosha::CliArgs args(argc, argv);
  if (const auto err = args.check_known("runs,seed,csv"); !err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  const auto runs = static_cast<std::size_t>(args.get_int("runs", 5));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));

  std::printf("Table 2: MAB on Kosha, distribution level 1-4 (4 nodes, runs=%zu)\n\n", runs);

  std::vector<kosha::trace::MabPhaseTimes> levels;
  for (unsigned level = 1; level <= 4; ++level) levels.push_back(run_level(level, runs, seed));

  kosha::TextTable table(
      {"Benchmark", "L1", "L2", "ov%", "L3", "ov%", "L4", "ov%"});
  auto phase_row = [&](const char* name, auto select) {
    std::vector<std::string> row{name, kosha::TextTable::fmt(select(levels[0]), 2)};
    for (std::size_t i = 1; i < levels.size(); ++i) {
      row.push_back(kosha::TextTable::fmt(select(levels[i]), 2));
      row.push_back(overhead(select(levels[i]), select(levels[0])));
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
  return 0;
}
