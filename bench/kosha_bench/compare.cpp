#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "manifest.hpp"

namespace kosha::bench {
namespace {

/// One run's --out file: a JSON line per workload.
struct RunFile {
  std::vector<std::string> workloads;  // in file order
  std::vector<JsonValue> lines;

  [[nodiscard]] const JsonValue* metric(const std::string& workload,
                                        const std::string& name) const {
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      if (workloads[i] != workload) continue;
      const JsonValue* metrics = lines[i].find("metrics");
      return metrics == nullptr ? nullptr : metrics->find(name);
    }
    return nullptr;
  }
};

bool load_run(const std::string& path, RunFile* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "kosha_bench compare: cannot read %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = parse_json(line);
    if (!parsed.ok() || parsed.value().string_or("workload", "").empty()) {
      std::fprintf(stderr, "kosha_bench compare: %s: not a kosha_bench --out line\n",
                   path.c_str());
      return false;
    }
    out->workloads.push_back(parsed.value().string_or("workload", ""));
    out->lines.push_back(std::move(parsed).value());
  }
  return true;
}

}  // namespace

int compare_main(int argc, char** argv) {
  std::vector<std::string> files;
  std::string bench_path = "BENCHMARK.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--benchmark=", 0) == 0) {
      bench_path = arg.substr(12);
    } else if (arg == "--benchmark" && i + 1 < argc) {
      bench_path = argv[++i];
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: kosha_bench compare A.json B.json [--benchmark BENCHMARK.json]\n");
    return 2;
  }
  const auto manifest = load_manifest(bench_path);
  if (!manifest.ok()) {
    std::fprintf(stderr, "kosha_bench compare: %s\n", manifest.error().c_str());
    return 2;
  }
  RunFile a;
  RunFile b;
  if (!load_run(files[0], &a) || !load_run(files[1], &b)) return 2;

  std::size_t worse = 0;
  std::size_t unresolved = 0;
  std::printf("%-10s %-18s %14s %14s %9s %7s  verdict\n", "workload", "metric", "A", "B",
              "change", "bound");
  for (const std::string& workload : a.workloads) {
    for (const ManifestMetric& bound : manifest.value().end_to_end) {
      const JsonValue* ma = a.metric(workload, bound.name);
      const JsonValue* mb = b.metric(workload, bound.name);
      if (ma == nullptr || mb == nullptr) {
        std::printf("%-10s %-18s %14s %14s %9s %6.1f%%  unresolved (missing)\n",
                    workload.c_str(), bound.name.c_str(), "-", "-", "-", bound.bound * 100);
        ++unresolved;
        continue;
      }
      const double va = ma->number_or("value", 0);
      const double vb = mb->number_or("value", 0);
      // Positive change means B is worse than A.
      double change = 0;
      if (va != 0) change = (bound.lower_is_better ? vb - va : va - vb) / std::fabs(va);
      else if (vb != 0) change = bound.lower_is_better ? 1.0 : -1.0;
      const double noise = std::max(ma->number_or("spread", 0), mb->number_or("spread", 0));
      const char* verdict = "ok";
      if (noise > bound.bound) {
        verdict = "unresolved (spread above bound)";
        ++unresolved;
      } else if (change > bound.bound) {
        verdict = "worse";
        ++worse;
      }
      std::printf("%-10s %-18s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n", workload.c_str(),
                  bound.name.c_str(), va, vb, change * 100, bound.bound * 100, verdict);
    }
  }
  std::printf("%zu worse, %zu unresolved\n", worse, unresolved);
  return worse > 0 ? 1 : 0;
}

}  // namespace kosha::bench
