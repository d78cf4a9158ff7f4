// Overload-control A/B: the flash-crowd metastability experiment.
//
// Runs sim::simulate_flash_crowd twice on the same seed — overload control
// disabled, then enabled — and prints the goodput trajectory of each arm
// side by side. The uncontrolled arm must exhibit the metastable failure
// (post-spike goodput pinned below 50% of the pre-spike baseline: dead work
// plus retry amplification sustain the collapse after the trigger ends);
// the controlled arm must shed during the spike and return to >= 95% of
// baseline within the recovery bound. The binary exits non-zero when either
// half of that story fails, so CI runs it as a gate, not a demo.
//
// Flags: --nodes N, --seed S, --base N, --spike N, --hot-files N,
// --file-kib K, --zipf S, --duration S, --spike-start S, --spike-end S,
// --window-ms MS, --base-think-ms MS, --spike-think-ms MS,
// --recovery-limit-ms MS (controlled arm must recover within this many ms
// of the spike ending; default 2000), --csv (both deterministic timelines),
// --metrics-out=FILE (flat JSON snapshot for the kosha_prof baseline gate).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "sim/overload_sim.hpp"

namespace {

kosha::sim::FlashCrowdConfig config_from(const kosha::CliArgs& args) {
  using kosha::SimDuration;
  kosha::sim::FlashCrowdConfig config;
  config.nodes = static_cast<std::size_t>(args.get_int("nodes", 4));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.base_clients = static_cast<std::size_t>(args.get_int("base", 24));
  config.spike_clients = static_cast<std::size_t>(args.get_int("spike", 60));
  config.hot_files = static_cast<std::size_t>(args.get_int("hot-files", 8));
  config.file_bytes = static_cast<std::size_t>(args.get_int("file-kib", 16)) * 1024;
  config.zipf_s = args.get_double("zipf", 1.1);
  config.duration = SimDuration::seconds(args.get_double("duration", 12.0));
  config.spike_start = SimDuration::seconds(args.get_double("spike-start", 3.0));
  config.spike_end = SimDuration::seconds(args.get_double("spike-end", 5.0));
  config.window = SimDuration::millis(args.get_double("window-ms", 500.0));
  config.base_think = SimDuration::millis(args.get_double("base-think-ms", 25.0));
  config.spike_think = SimDuration::millis(args.get_double("spike-think-ms", 2.0));
  return config;
}

void add_arm_rows(kosha::TextTable& table, const char* arm,
                  const kosha::sim::FlashCrowdResult& r) {
  using kosha::TextTable;
  table.add_row({arm, "goodput baseline/spike/post (ops per window)",
                 TextTable::fmt(r.baseline_ops, 1) + " / " + TextTable::fmt(r.spike_ops, 1) +
                     " / " + TextTable::fmt(r.post_ops, 1)});
  table.add_row({arm, "post/baseline ratio", TextTable::fmt(r.post_over_baseline, 3)});
  table.add_row({arm, "recovered (time after spike)",
                 std::string(r.recovered ? "yes" : "NO") + " (" +
                     TextTable::fmt(r.recovery_after_spike.to_millis(), 0) + " ms)"});
  table.add_row({arm, "ops ok/failed",
                 std::to_string(r.ops_ok) + " / " + std::to_string(r.ops_failed)});
  table.add_row({arm, "timeouts/retries",
                 std::to_string(r.timeouts) + " / " + std::to_string(r.retries)});
  table.add_row({arm, "rejected inflight/deadline, expired",
                 std::to_string(r.admission_rejected) + " / " +
                     std::to_string(r.deadline_rejected) + ", " + std::to_string(r.expired)});
  table.add_row({arm, "overloaded replies / budget exhausted",
                 std::to_string(r.overloaded_replies) + " / " +
                     std::to_string(r.budget_exhausted)});
  table.add_row({arm, "breaker opens / fast-fails",
                 std::to_string(r.breaker_opens) + " / " + std::to_string(r.breaker_fast_fails)});
  table.add_row({arm, "server deadline rejects / ladder aborts",
                 std::to_string(r.server_deadline_rejects) + " / " +
                     std::to_string(r.ladder_deadline_aborts)});
  table.add_row({arm, "digest", r.digest});
}

void emit_arm_json(std::ostringstream& json, const char* arm,
                   const kosha::sim::FlashCrowdResult& r) {
  json << "  \"" << arm << ".baseline_ops\": " << r.baseline_ops << ",\n"
       << "  \"" << arm << ".spike_ops\": " << r.spike_ops << ",\n"
       << "  \"" << arm << ".post_ops\": " << r.post_ops << ",\n"
       << "  \"" << arm << ".post_over_baseline\": " << r.post_over_baseline << ",\n"
       << "  \"" << arm << ".recovered\": " << (r.recovered ? 1 : 0) << ",\n"
       << "  \"" << arm << ".recovery_ms\": " << r.recovery_after_spike.to_millis() << ",\n"
       << "  \"" << arm << ".ops_ok\": " << r.ops_ok << ",\n"
       << "  \"" << arm << ".ops_failed\": " << r.ops_failed << ",\n"
       << "  \"" << arm << ".timeouts\": " << r.timeouts << ",\n"
       << "  \"" << arm << ".retries\": " << r.retries << ",\n"
       << "  \"" << arm << ".admission_rejected\": " << r.admission_rejected << ",\n"
       << "  \"" << arm << ".deadline_rejected\": " << r.deadline_rejected << ",\n"
       << "  \"" << arm << ".expired\": " << r.expired << ",\n"
       << "  \"" << arm << ".overloaded_replies\": " << r.overloaded_replies << ",\n"
       << "  \"" << arm << ".budget_exhausted\": " << r.budget_exhausted << ",\n"
       << "  \"" << arm << ".breaker_opens\": " << r.breaker_opens << ",\n"
       << "  \"" << arm << ".server_deadline_rejects\": " << r.server_deadline_rejects << ",\n"
       << "  \"" << arm << ".ladder_deadline_aborts\": " << r.ladder_deadline_aborts << ",\n"
       << "  \"" << arm << ".digest\": \"" << r.digest << "\",\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kosha;
  const CliArgs args(argc, argv);
  if (const auto err = args.check_known(
          "nodes,seed,base,spike,hot-files,file-kib,zipf,duration,spike-start,spike-end,"
          "window-ms,base-think-ms,spike-think-ms,recovery-limit-ms,csv,metrics-out");
      !err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }

  sim::FlashCrowdConfig config = config_from(args);
  const double recovery_limit_ms = args.get_double("recovery-limit-ms", 2000.0);
  if (config.spike_start >= config.duration || config.spike_end <= config.spike_start) {
    std::fprintf(stderr, "spike window [%.3fs, %.3fs) must start inside the %.3fs run and end "
                         "after it starts\n",
                 config.spike_start.to_seconds(), config.spike_end.to_seconds(),
                 config.duration.to_seconds());
    return 1;
  }

  std::printf("Flash crowd: %zu base + %zu spike clients on %zu nodes, %zu hot files "
              "(%zu KiB, Zipf %.2f), spike [%.1fs, %.1fs) of %.1fs, seed %llu\n\n",
              config.base_clients, config.spike_clients, config.nodes, config.hot_files,
              config.file_bytes / 1024, config.zipf_s, config.spike_start.to_seconds(),
              config.spike_end.to_seconds(), config.duration.to_seconds(),
              static_cast<unsigned long long>(config.seed));

  config.controlled = false;
  const auto uncontrolled = sim::simulate_flash_crowd(config);
  config.controlled = true;
  const auto controlled = sim::simulate_flash_crowd(config);

  TextTable table({"arm", "metric", "value"});
  add_arm_rows(table, "uncontrolled", uncontrolled);
  add_arm_rows(table, "controlled", controlled);
  std::fputs(table.to_string().c_str(), stdout);

  // Goodput trajectory side by side (ops OK per window).
  std::printf("\nwindow_ms  uncontrolled  controlled\n");
  for (std::size_t w = 0; w < uncontrolled.windows.size(); ++w) {
    const SimDuration start = uncontrolled.windows[w].start;
    const bool spike = start >= config.spike_start && start < config.spike_end;
    std::printf("%9lld  %12zu  %10zu%s\n", static_cast<long long>(start.ns / 1'000'000),
                uncontrolled.windows[w].ok,
                w < controlled.windows.size() ? controlled.windows[w].ok : 0,
                spike ? "  <- spike" : "");
  }

  if (args.get_bool("csv", false)) {
    std::printf("\n%s\n%s", uncontrolled.timeline_csv.c_str(), controlled.timeline_csv.c_str());
  }

  if (const std::string out = args.get_string("metrics-out", ""); !out.empty()) {
    std::ostringstream json;
    json << "{\n  \"bench\": \"overload_bench\",\n  \"seed\": " << config.seed << ",\n";
    emit_arm_json(json, "uncontrolled", uncontrolled);
    emit_arm_json(json, "controlled", controlled);
    json << "  \"recovery_limit_ms\": " << recovery_limit_ms << "\n}\n";
    std::ofstream file(out);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    file << json.str();
    std::printf("\nwrote %s\n", out.c_str());
  }

  // The gate: collapse without overload control, shed-and-recover with it.
  bool ok = true;
  if (uncontrolled.post_over_baseline >= 0.5) {
    std::fprintf(stderr,
                 "FAIL: uncontrolled arm did not collapse (post/baseline %.3f >= 0.5) — "
                 "the metastable regime was not reached\n",
                 uncontrolled.post_over_baseline);
    ok = false;
  }
  if (!controlled.recovered || controlled.post_over_baseline < 0.95) {
    std::fprintf(stderr,
                 "FAIL: controlled arm did not recover (recovered=%s, post/baseline %.3f)\n",
                 controlled.recovered ? "yes" : "no", controlled.post_over_baseline);
    ok = false;
  } else if (controlled.recovery_after_spike.to_millis() > recovery_limit_ms) {
    std::fprintf(stderr, "FAIL: controlled arm recovered too slowly (%.0f ms > %.0f ms)\n",
                 controlled.recovery_after_spike.to_millis(), recovery_limit_ms);
    ok = false;
  }
  return ok ? 0 : 1;
}
