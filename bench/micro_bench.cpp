// Microbenchmarks of the substrates (google-benchmark): SHA-1 hashing,
// ring arithmetic, Pastry routing (hop counts scale O(log N)), local-FS
// metadata ops, and koshad placement resolution. Not a paper table —
// supporting data for the overhead discussion in §6.1.2.
//
// --metrics-out=PATH additionally runs a short fixed-seed instrumented
// workload after the benchmarks and writes its metrics snapshot (the
// export_metrics_json format kosha_stat reads) to PATH; CI archives it as
// results/BENCH_micro.json.
//
// --backend=flat|cas switches the snapshot to the dedup ablation: a
// duplicate-heavy synthetic tree (many files sharing few distinct
// payloads) on a cluster backed by the chosen storage backend, with
// bench.dedup.* gauges (logical/physical bytes, dedup_ratio) added to the
// export. Without the flag the snapshot workload and its byte-stable
// export are unchanged.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/rng.hpp"
#include "common/sha1.hpp"
#include "fs/storage_backend.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "pastry/overlay.hpp"

namespace {

using namespace kosha;

void BM_Sha1Name(benchmark::State& state) {
  const std::string name = "some_directory_name";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash128(name));
  }
}
BENCHMARK(BM_Sha1Name);

void BM_Sha1Throughput(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha1Throughput)->Arg(1 << 10)->Arg(1 << 16);

void BM_RingDistance(benchmark::State& state) {
  Rng rng(1);
  const Uint128 a = rng.next_id();
  const Uint128 b = rng.next_id();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring_distance(a, b));
  }
}
BENCHMARK(BM_RingDistance);

void BM_PastryRoute(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  SimClock clock;
  net::SimNetwork network({}, &clock);
  pastry::PastryOverlay overlay({}, &network);
  Rng rng(7);
  for (std::size_t i = 0; i < nodes; ++i) overlay.join(rng.next_id(), network.add_host());

  std::uint64_t hops = 0;
  std::uint64_t routes = 0;
  for (auto _ : state) {
    const auto result = overlay.route(0, rng.next_id());
    hops += result.hops;
    ++routes;
    benchmark::DoNotOptimize(result.owner);
  }
  state.counters["mean_hops"] =
      static_cast<double>(hops) / static_cast<double>(routes ? routes : 1);
}
BENCHMARK(BM_PastryRoute)->Arg(16)->Arg(128)->Arg(1024);

void BM_StoreCreate(benchmark::State& state) {
  fs::StorageConfig config;
  if (state.range(0) != 0) config.backend = fs::BackendKind::kCas;
  const auto store = fs::make_backend(config);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store->create(store->root(), std::string("f").append(std::to_string(i++))));
  }
}
BENCHMARK(BM_StoreCreate)->Arg(0)->Arg(1)->ArgName("cas");

void BM_StoreWrite4k(benchmark::State& state) {
  fs::StorageConfig config;
  if (state.range(0) != 0) config.backend = fs::BackendKind::kCas;
  config.chunk_bytes = 1024;
  const auto store = fs::make_backend(config);
  const fs::InodeId file = store->create(store->root(), "f").value();
  const std::string payload(4096, 'x');
  std::uint64_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store->write(file, offset, payload));
    offset = (offset + 4096) % (1 << 20);
  }
}
BENCHMARK(BM_StoreWrite4k)->Arg(0)->Arg(1)->ArgName("cas");

void BM_KoshaWriteSmallFile(benchmark::State& state) {
  ClusterConfig config;
  config.nodes = 8;
  config.kosha.distribution_level = 2;
  // range(0) == 1 runs the identical workload with metrics + tracing live,
  // so the two rows bracket the observability overhead per client op.
  config.observability.metrics = state.range(0) != 0;
  config.observability.tracing = state.range(0) != 0;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));
  if (!mount.mkdir_p("/bench/dir").ok()) return;
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mount.write_file("/bench/dir/f" + std::to_string(i++), "payload"));
  }
}
BENCHMARK(BM_KoshaWriteSmallFile)->Arg(0)->Arg(1)
    ->ArgName("observed");

/// The snapshot behind results/BENCH_micro.json: a fixed-seed instrumented
/// workload (mixed writes/reads/stats on an 8-node cluster) whose export is
/// byte-stable across runs, so CI can diff it between commits.
int write_metrics_snapshot(const std::string& path) {
  ClusterConfig config;
  config.nodes = 8;
  config.seed = 42;
  config.kosha.replicas = 2;
  config.observability.metrics = true;
  config.observability.tracing = true;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));
  Rng rng(42);
  for (int i = 0; i < 64; ++i) {
    const std::string dir = "/bench/d" + std::to_string(rng.next_below(4));
    const std::string file = dir + "/f" + std::to_string(i);
    if (!mount.mkdir_p(dir).ok() || !mount.write_file(file, rng.next_name(32)).ok()) {
      std::fprintf(stderr, "micro_bench: snapshot workload write failed\n");
      return 1;
    }
    if (!mount.read_file(file).ok() || !mount.stat(file).ok()) {
      std::fprintf(stderr, "micro_bench: snapshot workload read-back failed\n");
      return 1;
    }
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "micro_bench: cannot write %s\n", path.c_str());
    return 1;
  }
  out << cluster.export_metrics_json();
  std::printf("metrics snapshot written to %s\n", path.c_str());
  return 0;
}

/// The dedup ablation behind results/BENCH_dedup_{flat,cas}.json: the same
/// fixed-seed cluster as the default snapshot, but the workload is
/// duplicate-heavy — 96 files drawn from only 6 distinct payloads, spread
/// over 4 directories — and the store backend is the one under test. On
/// top of the cluster's own export (which carries store.dedup_bytes /
/// store.blocks_live on the cas backend), bench.dedup.* gauges record the
/// logical footprint, the physical footprint, and their ratio so the two
/// backends' JSON files are directly comparable.
int write_dedup_snapshot(const std::string& path, fs::BackendKind backend) {
  ClusterConfig config;
  config.nodes = 8;
  config.seed = 42;
  config.kosha.replicas = 2;
  config.kosha.storage.backend = backend;
  config.kosha.storage.chunk_bytes = 512;
  config.observability.metrics = true;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));
  Rng rng(42);
  std::vector<std::string> payloads;
  payloads.reserve(6);
  for (int i = 0; i < 6; ++i) payloads.push_back(rng.next_name(2048));
  for (int i = 0; i < 96; ++i) {
    const std::string dir = "/dedup/d" + std::to_string(rng.next_below(4));
    const std::string file = dir + "/f" + std::to_string(i);
    const std::string& payload = payloads[rng.next_below(payloads.size())];
    if (!mount.mkdir_p(dir).ok() || !mount.write_file(file, payload).ok()) {
      std::fprintf(stderr, "micro_bench: dedup workload write failed\n");
      return 1;
    }
  }
  // Refresh the derived store gauges, then fold them into the ablation's
  // own bench.dedup.* summary and export once more.
  (void)cluster.export_metrics_json();
  std::uint64_t logical = 0;
  std::uint64_t physical = 0;
  for (net::HostId host = 0; host < config.nodes; ++host) {
    const fs::StorageBackend& store = cluster.server(host).store();
    const std::uint64_t used = store.used_bytes();
    logical += used;
    physical += used - store.stats().dedup_bytes;
  }
  cluster.metrics().gauge("bench.dedup.backend")->set(backend == fs::BackendKind::kCas ? 1 : 0);
  cluster.metrics().gauge("bench.dedup.logical_bytes")->set(static_cast<double>(logical));
  cluster.metrics().gauge("bench.dedup.physical_bytes")->set(static_cast<double>(physical));
  cluster.metrics().gauge("bench.dedup.dedup_ratio")
      ->set(physical > 0 ? static_cast<double>(logical) / static_cast<double>(physical) : 1.0);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "micro_bench: cannot write %s\n", path.c_str());
    return 1;
  }
  out << cluster.export_metrics_json();
  std::printf("dedup ablation (%s) written to %s: logical=%llu physical=%llu\n",
              fs::to_string(backend), path.c_str(),
              static_cast<unsigned long long>(logical),
              static_cast<unsigned long long>(physical));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off --metrics-out / --backend before google-benchmark sees (and
  // rejects) them.
  std::string metrics_out;
  std::string backend_text;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kMetricsFlag = "--metrics-out=";
    constexpr const char* kBackendFlag = "--backend=";
    if (std::strncmp(argv[i], kMetricsFlag, std::strlen(kMetricsFlag)) == 0) {
      metrics_out = argv[i] + std::strlen(kMetricsFlag);
    } else if (std::strncmp(argv[i], kBackendFlag, std::strlen(kBackendFlag)) == 0) {
      backend_text = argv[i] + std::strlen(kBackendFlag);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  fs::BackendKind backend = fs::BackendKind::kFlat;
  if (!backend_text.empty() && !fs::parse_backend(backend_text, &backend)) {
    std::fprintf(stderr, "micro_bench: unknown --backend=%s (flat|cas)\n", backend_text.c_str());
    return 1;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metrics_out.empty()) {
    return backend_text.empty() ? write_metrics_snapshot(metrics_out)
                                : write_dedup_snapshot(metrics_out, backend);
  }
  return 0;
}
