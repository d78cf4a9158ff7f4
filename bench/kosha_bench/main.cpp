// kosha_bench — one command, five workloads, end-to-end and per-layer
// numbers (see README.md in this directory).
//
//   kosha_bench [--workload NAME] [--seed N] [--reps N] [--seconds S]
//               [--scale X] [--trace 0|1] [--out FILE] [--benchmark FILE]
//   kosha_bench compare A.json B.json [--benchmark FILE]
//
// With --workload one workload runs in this process: at least --reps reps
// (each a fresh cluster from --seed), more until --seconds have passed.
// Its outputs are checked, every metric is printed by name and unit, and
// the last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the manifest's end-to-end
// metrics, or with --trace 1 its per-layer ones. The manifest is
// --benchmark (default BENCHMARK.json, read from the repository root).
// Without --workload every workload runs, each in its own process (this
// binary re-invoked with --workload). --out writes one JSON line per
// workload with every metric and its spread over the reps; `compare`
// judges two such files.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/profile.hpp"
#include "compare.hpp"
#include "manifest.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace kosha;
using namespace kosha::bench;

double wall_s() { return static_cast<double>(SimProfiler::wall_now_ns()) * 1e-9; }

/// This process's resident high-water mark (VmHWM). Not getrusage's
/// ru_maxrss: Linux carries that across execve, so a launcher's footprint
/// (a Python runner is about 14 MB) would mask a smaller workload's.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  std::size_t min_reps = 5;
  double seconds = 0;
  double scale = 1.0;
  bool trace = false;
  std::string out;
  Manifest manifest;
};

/// Everything one workload's run concluded.
struct Outcome {
  std::string name;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t reps = 0;
  /// Per-rep host seconds, in rep order.
  std::vector<double> setup_samples;
  std::vector<double> run_samples;
  Report metrics;

  [[nodiscard]] bool correct() const { return errors.empty(); }
};

/// Reps never exceed this many, whatever --seconds asks for.
constexpr std::size_t kMaxReps = 50;

/// Median and spread over reps of every host-measured per-layer figure.
Report host_medians(const std::vector<RepResult>& reps) {
  Report out;
  for (const RepResult& rep : reps) {
    for (const Metric& metric : rep.host.metrics()) {
      if (out.find(metric.name) != nullptr) continue;
      std::vector<double> values;
      for (const RepResult& other : reps) {
        if (const Metric* v = other.host.find(metric.name)) values.push_back(v->value);
      }
      out.set(metric.name, metric.unit, median(values), iqr_share(values));
    }
  }
  return out;
}

Outcome run_workload(const WorkloadInfo& workload, const Options& opt) {
  Outcome outcome;
  outcome.name = workload.name;
  RepOptions rep_opt;
  rep_opt.seed = opt.seed;
  rep_opt.scale = opt.scale;

  std::string first_digest;
  const auto check = [&](const RepResult& rep, const char* what) {
    if (!rep.error.empty()) outcome.errors.push_back(std::string(what) + ": " + rep.error);
    const std::string d = digest(rep.virt);
    if (first_digest.empty()) first_digest = d;
    if (d != first_digest) {
      outcome.errors.push_back(std::string(what) + ": virtual results (digest " + d +
                               ") differ from the first rep's (" + first_digest + ")");
    }
    outcome.attempted += rep.attempted;
    outcome.failed += rep.failed;
  };

  // A warm-up rep first: the process's first cluster pays for heap growth
  // and lazy statics (up to twice a later rep's host time), which no later
  // rep does.
  // Its outputs are checked but its times are not used. Peak memory is
  // read after it, so it is one rep's footprint however many reps fit.
  // Timed reps then run until --seconds would be overrun by one more (at
  // least --reps of them).
  const double start = wall_s();
  check(workload.run(rep_opt), "warm-up rep");
  const double rss_mb = peak_rss_mb();
  std::vector<RepResult> reps;
  while (reps.size() < kMaxReps) {
    const double rep_start = wall_s();
    reps.push_back(workload.run(rep_opt));
    check(reps.back(), "rep");
    const double now = wall_s();
    if (reps.size() >= opt.min_reps && now + (now - rep_start) - start > opt.seconds) break;
  }

  RepResult traced;
  if (opt.trace) {
    RepOptions ladder_opt = rep_opt;
    ladder_opt.ladder = true;
    reps.push_back(workload.run(ladder_opt));
    check(reps.back(), "ladder rep");
    RepOptions traced_opt = rep_opt;
    traced_opt.traced = true;
    traced = workload.run(traced_opt);
    check(traced, "traced rep");
  }
  outcome.reps = reps.size();
  if (outcome.failed > 0) {
    outcome.errors.push_back(std::to_string(outcome.failed) + " ops failed or read wrong data");
  }

  std::vector<double>& setup = outcome.setup_samples;
  std::vector<double>& run = outcome.run_samples;
  for (const RepResult& rep : reps) {
    setup.push_back(rep.setup_s);
    run.push_back(rep.run_s);
  }
  Report& m = outcome.metrics;
  m.set("setup_s", "s", median(setup), iqr_share(setup));
  m.set("run_s", "s", median(run), iqr_share(run));
  m.set("peak_rss_mb", "MB", rss_mb);
  m.merge(reps.front().virt);
  m.merge(host_medians(reps));
  m.set("pastry.join.host_us", "us",
        median(setup) * 1e6 / static_cast<double>(std::max<std::size_t>(1, reps.front().nodes)));
  if (opt.trace) {
    m.merge(traced.traced);
    m.set("trace.overhead_pct", "%", (traced.run_s - median(run)) / median(run) * 100.0);
  }
  return outcome;
}

/// Hold the outcome to the manifest: every end-to-end metric must be
/// measured, and every metric in the manifest's unit. A per-layer metric
/// of a layer this workload does not exercise is absent and reads 0.
void check_against(const Manifest& manifest, Outcome& o) {
  const auto check = [&o](const ManifestMetric& want, bool required) {
    const Metric* got = o.metrics.find(want.name);
    if (got == nullptr) {
      if (required) o.errors.push_back("end-to-end metric " + want.name + " was not measured");
    } else if (got->unit != want.unit) {
      o.errors.push_back(want.name + " is in " + got->unit + ", the manifest says " + want.unit);
    }
  };
  for (const ManifestMetric& m : manifest.end_to_end) check(m, true);
  for (const ManifestMetric& m : manifest.per_layer) check(m, false);
}

/// The result line: correct/attempted/failed plus one manifest list.
std::string result_line(const Outcome& o, const std::vector<ManifestMetric>& list) {
  std::string json = std::string("{\"correct\": ") + (o.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(o.attempted) +
                     ", \"failed\": " + std::to_string(o.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < list.size(); ++i) {
    const Metric* m = o.metrics.find(list[i].name);
    json += (i == 0 ? "\"" : ", \"") + list[i].name +
            "\": {\"value\": " + exact_number(m == nullptr ? 0.0 : m->value) +
            ", \"unit\": \"" + list[i].unit + "\"}";
  }
  return json + "}}";
}

/// One --out line: the workload, its checks, and every metric with its
/// spread over the reps.
std::string out_line(const Options& opt, const Outcome& o) {
  std::string json = "{\"workload\": \"" + json_escape(o.name) +
                     "\", \"seed\": " + std::to_string(opt.seed) +
                     ", \"scale\": " + exact_number(opt.scale) +
                     ", \"correct\": " + (o.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(o.attempted) +
                     ", \"failed\": " + std::to_string(o.failed) +
                     ", \"reps\": " + std::to_string(o.reps);
  const auto samples = [&json](const char* key, const std::vector<double>& values) {
    json += std::string(", \"") + key + "\": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      json += (i == 0 ? "" : ", ") + exact_number(values[i]);
    }
    json += "]";
  };
  samples("setup_s_reps", o.setup_samples);
  samples("run_s_reps", o.run_samples);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : o.metrics.metrics()) {
    json += first ? "\"" : ", \"";
    first = false;
    json += json_escape(m.name) + "\": {\"value\": " + exact_number(m.value) + ", \"unit\": \"" +
            json_escape(m.unit) + "\", \"spread\": " + exact_number(m.spread) + "}";
  }
  return json + "}}\n";
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << text;
  if (!file) std::fprintf(stderr, "kosha_bench: cannot write %s\n", path.c_str());
  return static_cast<bool>(file);
}

void print_outcome(const Outcome& o) {
  std::printf("== %s: %zu reps, %llu ops, %llu failed, %s\n", o.name.c_str(), o.reps,
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed), o.correct() ? "correct" : "INCORRECT");
  for (const std::string& e : o.errors) std::printf("   error: %s\n", e.c_str());
  for (const Metric& m : o.metrics.metrics()) {
    std::printf("   %-36s %16.9g %-6s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.spread > 0) std::printf(" spread %.2f%%", m.spread * 100);
    std::printf("\n");
  }
}

int run_single(const Options& opt) {
  for (const WorkloadInfo& w : workloads()) {
    if (opt.workload != w.name) continue;
    Outcome outcome = run_workload(w, opt);
    check_against(opt.manifest, outcome);
    print_outcome(outcome);
    if (!opt.out.empty() && !write_text(opt.out, out_line(opt, outcome))) return 2;
    const auto& list = opt.trace ? opt.manifest.per_layer : opt.manifest.end_to_end;
    std::printf("%s\n", result_line(outcome, list).c_str());
    std::fflush(stdout);
    return outcome.correct() ? 0 : 1;
  }
  std::fprintf(stderr, "kosha_bench: unknown workload %s\n", opt.workload.c_str());
  return 2;
}

/// Every workload, each in a child process running this binary with
/// --workload; their --out lines are concatenated into --out.
int run_all(const Options& opt, const std::vector<std::string>& passthrough) {
  std::string lines;
  bool all_ok = true;
  for (const WorkloadInfo& w : workloads()) {
    const std::string part = opt.out.empty() ? std::string() : opt.out + "." + w.name;
    std::vector<std::string> args = {"kosha_bench", std::string("--workload=") + w.name};
    args.insert(args.end(), passthrough.begin(), passthrough.end());
    if (!part.empty()) args.push_back("--out=" + part);
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid == 0) {
      execv("/proc/self/exe", argv.data());
      _exit(127);
    }
    int status = 0;
    const bool ok = pid > 0 && waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                    WEXITSTATUS(status) == 0;
    if (!ok) {
      std::fprintf(stderr, "kosha_bench: workload %s failed\n", w.name);
      all_ok = false;
    }
    if (part.empty()) continue;
    std::ifstream in(part, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    lines += text.str();
    in.close();
    std::remove(part.c_str());
  }
  if (!opt.out.empty() && !write_text(opt.out, lines)) return 2;
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "compare") return compare_main(argc - 1, argv + 1);
  try {
    const CliArgs args(argc, argv);
    if (const auto err =
            args.check_known("workload,seed,reps,seconds,scale,trace,out,benchmark");
        !err.empty()) {
      std::fprintf(stderr, "kosha_bench: %s\n", err.c_str());
      return 2;
    }
    Options opt;
    opt.workload = args.get_string("workload", "");
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
    opt.seconds = args.get_double("seconds", 0);
    opt.min_reps = static_cast<std::size_t>(
        std::max<std::int64_t>(1, args.get_int("reps", opt.seconds > 0 ? 3 : 5)));
    opt.scale = args.get_double("scale", 1.0);
    opt.trace = args.get_bool("trace", false);
    opt.out = args.get_string("out", "");
    if (opt.scale <= 0 || opt.scale > 1) {
      std::fprintf(stderr, "kosha_bench: --scale must be in (0, 1]\n");
      return 2;
    }
    auto manifest = load_manifest(args.get_string("benchmark", "BENCHMARK.json"));
    if (!manifest.ok()) {
      std::fprintf(stderr, "kosha_bench: %s\n", manifest.error().c_str());
      return 2;
    }
    opt.manifest = std::move(manifest.value());
    if (!opt.workload.empty()) return run_single(opt);

    std::vector<std::string> passthrough;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--out") {
        ++i;  // and its value
      } else if (arg.rfind("--out=", 0) != 0) {
        passthrough.push_back(arg);
      }
    }
    return run_all(opt, passthrough);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kosha_bench: %s\n", e.what());
    return 2;
  }
}
