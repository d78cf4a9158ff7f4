// kosha_stat — inspect Kosha observability dumps.
//
// Reads the deterministic snapshots the cluster exports and renders them for
// humans; it never re-derives numbers, so what it prints is exactly what the
// run recorded.
//
//   --metrics FILE   metrics snapshot (export_metrics_json output). Prints a
//                    readable table; --csv re-emits `type,name,field,value`
//                    rows instead (MetricsRegistry::to_csv's shape).
//   --trace FILE     trace stream (export_trace_jsonl output). Prints a
//                    per-span-name summary; --tree renders the span forest.
//   --prof FILE      simulator profile (BENCH_sim_profile.json from
//                    concurrency_bench --profile-out, or a kosha_prof
//                    --json critical-path report). Renders throughput,
//                    per-category event costs, and the critical-path stage
//                    shares as tables.
//   --detector FILE  failure-detector summary from a metrics snapshot
//                    (probes / suspicions / declarations / reinstatements).
//   --repair FILE    repair-daemon summary from a metrics snapshot.
//   --overload FILE  overload-control summary from a metrics snapshot
//                    (admission/deadline rejections, expired dead work,
//                    retry-budget and circuit-breaker state, repair yields).
//   --demo           run a small observability-enabled cluster, perform one
//                    cross-node CREATE, and print its span tree plus the
//                    metrics snapshot (--nodes N, --replicas K, --seed S).

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/tracing.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"

namespace {

using namespace kosha;

bool slurp(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

void print_section(const JsonValue& snapshot, const char* section, const char* heading) {
  const JsonValue* values = snapshot.find(section);
  if (values == nullptr || values->members().empty()) return;
  std::printf("%s\n", heading);
  for (const auto& [name, value] : values->members()) {
    std::printf("  %-48s %s\n", name.c_str(), json_number(value.as_number()).c_str());
  }
  std::printf("\n");
}

int show_metrics(const std::string& path, bool as_csv) {
  std::string text;
  if (!slurp(path, text)) {
    std::fprintf(stderr, "kosha_stat: cannot open %s\n", path.c_str());
    return 1;
  }
  const auto parsed = parse_json(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "kosha_stat: %s: %s\n", path.c_str(), parsed.error().c_str());
    return 1;
  }
  const JsonValue& snapshot = parsed.value();

  if (as_csv) {
    std::printf("type,name,field,value\n");
    for (const char* section : {"counters", "gauges"}) {
      const JsonValue* values = snapshot.find(section);
      if (values == nullptr) continue;
      const char* type = section[0] == 'c' ? "counter" : "gauge";
      for (const auto& [name, value] : values->members()) {
        std::printf("%s,%s,value,%s\n", type, name.c_str(),
                    json_number(value.as_number()).c_str());
      }
    }
    if (const JsonValue* hists = snapshot.find("histograms"); hists != nullptr) {
      for (const auto& [name, h] : hists->members()) {
        for (const auto& [field, value] : h.members()) {
          std::printf("histogram,%s,%s,%s\n", name.c_str(), field.c_str(),
                      json_number(value.as_number()).c_str());
        }
      }
    }
    return 0;
  }

  print_section(snapshot, "counters", "counters");
  print_section(snapshot, "gauges", "gauges");
  if (const JsonValue* hists = snapshot.find("histograms");
      hists != nullptr && !hists->members().empty()) {
    std::printf("histograms%42s %10s %10s %10s %10s\n", "count", "mean", "p50", "p95", "p99");
    for (const auto& [name, h] : hists->members()) {
      std::printf("  %-48s %10.0f %10.1f %10.1f %10.1f %10.1f\n", name.c_str(),
                  h.number_or("count", 0), h.number_or("mean", 0), h.number_or("p50", 0),
                  h.number_or("p95", 0), h.number_or("p99", 0));
    }
  }
  return 0;
}

int show_trace(const std::string& path, bool as_tree) {
  std::string text;
  if (!slurp(path, text)) {
    std::fprintf(stderr, "kosha_stat: cannot open %s\n", path.c_str());
    return 1;
  }
  const auto spans = parse_trace_jsonl(text);
  if (!spans.ok()) {
    std::fprintf(stderr, "kosha_stat: %s: %s\n", path.c_str(), spans.error().c_str());
    return 1;
  }
  if (as_tree) {
    std::fputs(render_span_forest(spans.value()).c_str(), stdout);
    return 0;
  }

  // Per-name rollup: how many spans, total self-reported time, error count.
  struct Roll {
    std::uint64_t count = 0;
    std::uint64_t errors = 0;
    std::int64_t total_ns = 0;
  };
  std::map<std::string, Roll> by_name;
  std::map<std::uint64_t, std::uint64_t> traces;  // trace_id -> span count
  for (const SpanRecord& span : spans.value()) {
    Roll& roll = by_name[span.name];
    ++roll.count;
    roll.total_ns += span.end_ns - span.start_ns;
    if (span.status != "ok") ++roll.errors;
    ++traces[span.trace_id];
  }
  std::printf("%zu spans across %zu traces\n\n", spans.value().size(), traces.size());
  std::printf("%-32s %8s %8s %12s\n", "span", "count", "errors", "total_us");
  for (const auto& [name, roll] : by_name) {
    std::printf("%-32s %8llu %8llu %12.1f\n", name.c_str(),
                static_cast<unsigned long long>(roll.count),
                static_cast<unsigned long long>(roll.errors),
                static_cast<double>(roll.total_ns) / 1000.0);
  }
  return 0;
}

/// Render the "critical" / critical-path-report section of a profile dump
/// (the shape critical_report_json emits): stage shares then flame paths.
void print_critical(const JsonValue& critical) {
  const double total_ns = critical.number_or("critical_ns", 0);
  std::printf("critical path: %s trace(s), %s span(s), %.3f ms total\n",
              json_number(critical.number_or("traces", 0)).c_str(),
              json_number(critical.number_or("spans", 0)).c_str(), total_ns * 1e-6);
  if (const JsonValue* stages = critical.find("stages");
      stages != nullptr && !stages->members().empty()) {
    std::printf("  %-12s %7s %12s %10s\n", "stage", "share", "ms", "slices");
    for (const auto& [name, st] : stages->members()) {
      std::printf("  %-12s %6.1f%% %12.3f %10s\n", name.c_str(),
                  st.number_or("share", 0) * 100.0, st.number_or("ns", 0) * 1e-6,
                  json_number(st.number_or("slices", 0)).c_str());
    }
  }
  if (const JsonValue* flame = critical.find("flame");
      flame != nullptr && !flame->items().empty()) {
    std::printf("  top flame paths (self ms):\n");
    for (const JsonValue& entry : flame->items()) {
      std::printf("  %12.3f %8s x  %s\n", entry.number_or("self_ns", 0) * 1e-6,
                  json_number(entry.number_or("count", 0)).c_str(),
                  entry.string_or("path", "?").c_str());
    }
  }
}

int show_prof(const std::string& path) {
  std::string text;
  if (!slurp(path, text)) {
    std::fprintf(stderr, "kosha_stat: cannot open %s\n", path.c_str());
    return 1;
  }
  const auto parsed = parse_json(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "kosha_stat: %s: %s\n", path.c_str(), parsed.error().c_str());
    return 1;
  }
  const JsonValue& dump = parsed.value();

  // A bare kosha_prof --json report has "stages" at top level; a
  // BENCH_sim_profile.json wraps one under "critical" next to throughput.
  if (dump.find("stages") != nullptr && dump.find("events") == nullptr) {
    print_critical(dump);
    return 0;
  }

  std::printf("simulator profile: %s\n", path.c_str());
  std::printf("  %-24s %s\n", "events", json_number(dump.number_or("events", 0)).c_str());
  std::printf("  %-24s %s\n", "ops", json_number(dump.number_or("ops", 0)).c_str());
  std::printf("  %-24s %.3f\n", "virtual_ms", dump.number_or("virtual_ms", 0));
  std::printf("  %-24s %.3f\n", "wall_ms", dump.number_or("wall_ms", 0));
  std::printf("  %-24s %.0f\n", "events_per_sec", dump.number_or("events_per_sec", 0));
  std::printf("  %-24s %.0f\n", "ops_per_sec", dump.number_or("ops_per_sec", 0));
  if (const JsonValue* cats = dump.find("categories");
      cats != nullptr && !cats->members().empty()) {
    std::printf("\nevent categories%20s %14s\n", "count", "wall_us");
    for (const auto& [name, c] : cats->members()) {
      std::printf("  %-32s %8s %14.1f\n", name.c_str(),
                  json_number(c.number_or("count", 0)).c_str(), c.number_or("wall_us", 0));
    }
  }
  if (const JsonValue* lat = dump.find("latency_us");
      lat != nullptr && !lat->members().empty()) {
    std::printf("\nop latency (virtual us):");
    for (const auto& [q, v] : lat->members()) {
      std::printf("  %s=%.1f", q.c_str(), v.as_number());
    }
    std::printf("\n");
  }
  if (const JsonValue* critical = dump.find("critical"); critical != nullptr) {
    std::printf("\n");
    print_critical(*critical);
  }
  return 0;
}

/// Print every gauge under `prefix` (as `name minus prefix: value`) plus any
/// histogram whose name starts with `hist_prefix`. The self-heal views are
/// exactly this filter applied to a metrics snapshot.
int show_prefixed(const std::string& path, const char* title, const std::string& prefix,
                  const std::string& hist_prefix) {
  std::string text;
  if (!slurp(path, text)) {
    std::fprintf(stderr, "kosha_stat: cannot open %s\n", path.c_str());
    return 1;
  }
  const auto parsed = parse_json(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "kosha_stat: %s: %s\n", path.c_str(), parsed.error().c_str());
    return 1;
  }
  const JsonValue& snapshot = parsed.value();
  std::printf("%s\n", title);
  bool any = false;
  if (const JsonValue* gauges = snapshot.find("gauges"); gauges != nullptr) {
    for (const auto& [name, value] : gauges->members()) {
      if (name.rfind(prefix, 0) != 0) continue;
      any = true;
      std::printf("  %-24s %s\n", name.substr(prefix.size()).c_str(),
                  json_number(value.as_number()).c_str());
    }
  }
  if (const JsonValue* hists = snapshot.find("histograms"); hists != nullptr) {
    for (const auto& [name, h] : hists->members()) {
      if (name.rfind(hist_prefix, 0) != 0) continue;
      any = true;
      std::printf("  %-24s count=%s p50=%.1f p95=%.1f p99=%.1f\n", name.c_str(),
                  json_number(h.number_or("count", 0)).c_str(), h.number_or("p50", 0),
                  h.number_or("p95", 0), h.number_or("p99", 0));
    }
  }
  if (!any) {
    std::printf("  (no matching metrics — was the feature enabled and metrics on?)\n");
  }
  return 0;
}

/// A tiny live run so operators can see a real span tree without wiring a
/// harness: one cross-node CREATE (mount -> koshad forward -> server, plus
/// the replica fan-out when replicas > 0).
int run_demo(const CliArgs& args) {
  ClusterConfig config;
  config.nodes = static_cast<std::size_t>(args.get_int("nodes", 4));
  config.kosha.replicas = static_cast<unsigned>(args.get_int("replicas", 2));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  config.observability.metrics = true;
  config.observability.tracing = true;
  KoshaCluster cluster(config);

  KoshaMount mount(&cluster.daemon(0));
  if (const auto made = mount.mkdir_p("/home/alice"); !made.ok()) {
    std::fprintf(stderr, "kosha_stat: demo mkdir failed: %s\n",
                 nfs::to_string(made.error()));
    return 1;
  }
  // Isolate the CREATE: everything below is the trace of this one write.
  cluster.tracer().clear();
  if (const auto wrote = mount.write_file("/home/alice/report.txt", "kosha demo\n");
      !wrote.ok()) {
    std::fprintf(stderr, "kosha_stat: demo write failed: %s\n",
                 nfs::to_string(wrote.error()));
    return 1;
  }

  std::printf("span tree for write_file(\"/home/alice/report.txt\") on a %zu-node cluster\n"
              "(seed %llu, %u replicas):\n\n",
              config.nodes, static_cast<unsigned long long>(config.seed),
              config.kosha.replicas);
  std::fputs(render_span_forest(cluster.tracer().spans()).c_str(), stdout);
  std::printf("\nmetrics snapshot:\n%s", cluster.export_metrics_json().c_str());
  return 0;
}

int usage(int code) {
  std::fputs(
      "usage: kosha_stat (--metrics FILE [--csv] | --trace FILE [--tree] | --prof FILE\n"
      "                   | --detector FILE | --repair FILE | --overload FILE | --demo)\n"
      "  --metrics FILE   render a metrics snapshot (JSON) as a table; --csv for rows\n"
      "  --trace FILE     summarize a trace stream (JSONL); --tree for the span forest\n"
      "  --prof FILE      render a simulator profile / critical-path report (JSON)\n"
      "  --detector FILE  failure-detector summary from a metrics snapshot\n"
      "  --repair FILE    repair-daemon summary from a metrics snapshot\n"
      "  --overload FILE  overload-control summary from a metrics snapshot\n"
      "  --demo           trace one cross-node CREATE on a live cluster\n"
      "                   (--nodes N, --replicas K, --seed S)\n",
      code == 0 ? stdout : stderr);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const kosha::CliArgs args(argc, argv);
    if (const std::string err = args.check_known(
            "metrics,trace,csv,tree,prof,detector,repair,overload,demo,nodes,replicas,seed,"
            "help");
        !err.empty()) {
      std::fprintf(stderr, "kosha_stat: %s\n", err.c_str());
      return usage(2);
    }
    if (args.get_bool("help", false)) return usage(0);
    if (args.has("metrics")) {
      return show_metrics(args.get_string("metrics", ""), args.get_bool("csv", false));
    }
    if (args.has("trace")) {
      return show_trace(args.get_string("trace", ""), args.get_bool("tree", false));
    }
    if (args.has("prof")) return show_prof(args.get_string("prof", ""));
    if (args.has("detector")) {
      return show_prefixed(args.get_string("detector", ""), "failure detector",
                           "selfheal.detector.", "selfheal.detect");
    }
    if (args.has("repair")) {
      return show_prefixed(args.get_string("repair", ""), "repair daemon", "selfheal.repair.",
                           "selfheal.repair");
    }
    if (args.has("overload")) {
      return show_prefixed(args.get_string("overload", ""), "overload control", "overload.",
                           "overload.");
    }
    if (args.get_bool("demo", false)) return run_demo(args);
    return usage(2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kosha_stat: %s\n", e.what());
    return 2;
  }
}
