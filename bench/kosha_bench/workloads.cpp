#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "alloc_count.hpp"
#include "baseline/nfs_mount.hpp"
#include "common/metrics.hpp"
#include "common/profile.hpp"
#include "common/rng.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "ladder.hpp"
#include "nfs/nfs_server.hpp"
#include "sim/availability_sim.hpp"
#include "sim/concurrency_driver.hpp"
#include "trace/mab.hpp"

namespace kosha::bench {
namespace {

double wall_s() { return static_cast<double>(SimProfiler::wall_now_ns()) * 1e-9; }

std::size_t scaled(std::size_t n, double scale) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(static_cast<double>(n) * scale)));
}

ClusterConfig cluster_config(std::size_t nodes, unsigned replicas, unsigned level,
                             std::uint64_t seed, bool traced) {
  ClusterConfig config;
  config.nodes = nodes;
  config.seed = seed;
  config.kosha.replicas = replicas;
  config.kosha.distribution_level = level;
  config.node_capacity_bytes = 64ull << 30;
  config.observability.metrics = traced;
  config.observability.tracing = traced;
  config.observability.profiling = traced;
  return config;
}

/// Forget what cluster construction fed the tracer and profiler, so a
/// traced rep describes the measured phase only.
void reset_observers(KoshaCluster& cluster) {
  cluster.tracer().clear();
  cluster.profiler().reset();
}

// ---------------------------------------------------------------------------
// Mount-level timing: a Mount wrapper handed to run_mab and the homes driver
// ---------------------------------------------------------------------------

/// Per-op virtual latency (us) on log-spaced buckets 0.05% wide: the
/// percentiles interpolate by rank inside a bucket, as Histogram does, so
/// the many equal latencies a simulator produces resolve to the bucket.
/// Unlike Histogram it can fold in other histograms, which `contended`
/// needs to pool its clusters' registries.
class LatencyHistogram {
 public:
  static const std::vector<double>& bounds() {
    static const std::vector<double> kBounds = [] {
      std::vector<double> b;
      for (double v = 0.1; v < 1e9; v *= 1.0005) b.push_back(v);
      return b;
    }();
    return kBounds;
  }

  LatencyHistogram() : buckets_(bounds().size() + 1, 0) {}

  void record(double us) {
    ++buckets_[bucket_of(us)];
    min_ = count_ == 0 ? us : std::min(min_, us);
    max_ = count_ == 0 ? us : std::max(max_, us);
    ++count_;
    sum_ += us;
  }

  /// Fold in a registry histogram registered with bounds().
  void merge(const Histogram& h) {
    if (h.count() == 0 || h.buckets().size() != buckets_.size()) return;
    for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += h.buckets()[i];
    min_ = count_ == 0 ? h.min() : std::min(min_, h.min());
    max_ = count_ == 0 ? h.max() : std::max(max_, h.max());
    count_ += h.count();
    sum_ += h.sum();
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  [[nodiscard]] double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double rank = p / 100.0 * static_cast<double>(count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] == 0) continue;
      const std::uint64_t next = seen + buckets_[i];
      if (static_cast<double>(next) >= rank) {
        const double lo = std::max(i == 0 ? min_ : bounds()[i - 1], min_);
        const double hi = std::min(i < bounds().size() ? bounds()[i] : max_, max_);
        if (hi <= lo) return hi;
        const double frac = (rank - static_cast<double>(seen)) / static_cast<double>(buckets_[i]);
        return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      }
      seen = next;
    }
    return max_;
  }

 private:
  static std::size_t bucket_of(double v) {
    return static_cast<std::size_t>(std::lower_bound(bounds().begin(), bounds().end(), v) -
                                    bounds().begin());
  }

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Per-op latency of the client's mount calls, and availability: the
/// share of those calls that succeeded with the right content.
void report_ops(const LatencyHistogram& h, std::uint64_t failed, Report& out) {
  out.set("mount.op_p50_us", "us", h.percentile(50));
  out.set("mount.op_p99_us", "us", h.percentile(99));
  out.set("mount.op_mean_us", "us", h.mean());
  const double attempted = static_cast<double>(std::max<std::uint64_t>(1, h.count()));
  out.set("availability_pct", "%", 100.0 * (attempted - static_cast<double>(failed)) / attempted);
}

enum OpKind : std::size_t { kMkdirP, kWriteFile, kReadFile, kStat, kOpKinds };
constexpr std::array<const char*, kOpKinds> kOpNames = {"mkdir_p", "write_file", "read_file",
                                                        "stat"};

/// Host and virtual latency of every mount call in the measured phase, and
/// the content check of every read.
struct OpLog {
  LatencyHistogram all;
  std::array<LatencyHistogram, kOpKinds> vt_us;
  std::array<std::vector<std::uint64_t>, kOpKinds> host_ns;
  std::uint64_t failed = 0;
  /// Reads that succeeded with other bytes than the last write of the path.
  std::uint64_t wrong = 0;
  std::uint64_t written_bytes = 0;
  /// What every successful write stored, by path: the expected content of
  /// later reads.
  std::unordered_map<std::string, std::string> expected_content;
  /// Host time and heap allocations of the content check itself, which the
  /// workload takes out of run_s and mount.allocs_per_op.
  std::uint64_t check_ns = 0;
  std::uint64_t check_allocs = 0;

  /// Reserve up front so the log itself allocates nothing while timing.
  void reserve(std::size_t per_kind) {
    for (auto& v : host_ns) v.reserve(per_kind);
  }

  [[nodiscard]] std::uint64_t ops() const { return all.count(); }

  /// Run `check` as benchmark-side work: its cost is tallied apart.
  template <typename Check>
  void check(Check&& check) {
    const std::uint64_t a0 = allocation_count();
    const std::uint64_t t0 = SimProfiler::wall_now_ns();
    check();
    check_ns += SimProfiler::wall_now_ns() - t0;
    check_allocs += allocation_count() - a0;
  }
};

template <typename Mount>
class TimedMount {
 public:
  TimedMount(Mount* inner, const SimClock* clock, OpLog* log)
      : inner_(inner), clock_(clock), log_(log) {}

  auto mkdir_p(std::string_view path) {
    return timed(kMkdirP, [&] { return inner_->mkdir_p(path); });
  }
  auto write_file(std::string_view path, std::string_view content) {
    log_->written_bytes += content.size();
    auto result = timed(kWriteFile, [&] { return inner_->write_file(path, content); });
    if (result.ok()) log_->check([&] { log_->expected_content[std::string(path)] = content; });
    return result;
  }
  auto read_file(std::string_view path) {
    auto result = timed(kReadFile, [&] { return inner_->read_file(path); });
    if (result.ok()) {
      log_->check([&] {
        const auto it = log_->expected_content.find(std::string(path));
        if (it == log_->expected_content.end() || it->second != *result) ++log_->wrong;
      });
    }
    return result;
  }
  auto stat(std::string_view path) {
    return timed(kStat, [&] { return inner_->stat(path); });
  }

 private:
  template <typename Call>
  auto timed(OpKind kind, Call&& call) {
    const SimDuration vt0 = clock_->now();
    const std::uint64_t t0 = SimProfiler::wall_now_ns();
    auto result = call();
    const std::uint64_t t1 = SimProfiler::wall_now_ns();
    const double vt_us = (clock_->now() - vt0).to_micros();
    log_->host_ns[kind].push_back(t1 - t0);
    log_->vt_us[kind].record(vt_us);
    log_->all.record(vt_us);
    if (!result.ok()) ++log_->failed;
    return result;
  }

  Mount* inner_;
  const SimClock* clock_;
  OpLog* log_;
};

/// Latency over every op, and per-call medians per mount op.
void report_ops(const OpLog& log, std::uint64_t failed, RepResult& r) {
  report_ops(log.all, failed, r.virt);
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    if (log.vt_us[k].count() == 0) continue;
    const std::string prefix = std::string("mount.") + kOpNames[k];
    r.virt.set(prefix + ".vt_us", "us", log.vt_us[k].percentile(50));
    r.host.set(prefix + ".host_us", "us",
               median(std::vector<double>(log.host_ns[k].begin(), log.host_ns[k].end())) * 1e-3);
  }
}

// ---------------------------------------------------------------------------
// Layer counters and traced-rep analysis
// ---------------------------------------------------------------------------

/// Per-layer work counts of the measured phase, summed over a workload's
/// clusters.
struct LayerCounters {
  std::uint64_t rpcs = 0;
  std::uint64_t remote_rpcs = 0;
  std::uint64_t routes = 0;
  std::uint64_t hops = 0;
  std::uint64_t mirror_rpcs = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t queue_delay_ns = 0;
  std::uint64_t inflight_peak = 0;
  std::uint64_t stored_bytes = 0;
  std::uint64_t nodes = 0;
  std::uint64_t anchors = 0;
  std::uint64_t anchors_max = 0;

  /// Fold in `cluster`; `before` is its network stats when the measured
  /// phase began (construction traffic is not the workload's). Daemon
  /// counters start at zero, since construction routes nothing.
  void add(KoshaCluster& cluster, const net::NetStats& before) {
    for (const net::HostId host : cluster.live_hosts()) {
      const KoshadStats& s = cluster.daemon(host).stats();
      rpcs += s.rpcs_forwarded;
      remote_rpcs += s.remote_rpcs;
      routes += s.dht_lookups;
      hops += s.dht_hops;
      mirror_rpcs += s.mirror_rpcs;
      stored_bytes += cluster.server(host).store().used_bytes();
      const std::uint64_t anchored = cluster.replicas(host).primaries().size();
      ++nodes;
      anchors += anchored;
      anchors_max = std::max(anchors_max, anchored);
    }
    const net::NetStats& after = cluster.network().stats();
    messages += after.messages - before.messages;
    bytes += after.bytes - before.bytes;
    queue_delay_ns += after.queue_delay_ns - before.queue_delay_ns;
    inflight_peak = std::max(inflight_peak, after.inflight_peak);
  }

  void report(std::uint64_t ops, std::uint64_t user_bytes, Report& out) const {
    const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const auto per_op = [&](std::uint64_t v) {
      return ratio(static_cast<double>(v), static_cast<double>(ops));
    };
    out.set("koshad.rpcs_per_op", "count", per_op(rpcs));
    out.set("koshad.remote_rpc_ratio", "ratio",
            ratio(static_cast<double>(remote_rpcs), static_cast<double>(rpcs)));
    out.set("pastry.routes_per_op", "count", per_op(routes));
    out.set("pastry.hops_per_route", "count",
            ratio(static_cast<double>(hops), static_cast<double>(routes)));
    out.set("replica.anchors_per_node.mean", "count",
            ratio(static_cast<double>(anchors), static_cast<double>(nodes)));
    out.set("replica.anchors_per_node.max", "count", static_cast<double>(anchors_max));
    out.set("replica.mirror_rpcs_per_op", "count", per_op(mirror_rpcs));
    out.set("net.messages_per_op", "count", per_op(messages));
    out.set("net.bytes_per_op", "B", per_op(bytes));
    out.set("net.queue_delay_us_per_op", "us", per_op(queue_delay_ns) * 1e-3);
    out.set("net.inflight_peak", "count", static_cast<double>(inflight_peak));
    out.set("fs.stored_per_user_byte", "ratio",
            ratio(static_cast<double>(stored_bytes), static_cast<double>(user_bytes)));
  }
};

/// Critical-path stages every traced rep reports (prof::classify_stage).
constexpr std::array<const char*, 11> kStages = {
    "client", "koshad",  "failover", "rpc_wire", "rpc_timeout", "rpc_backoff",
    "queue",  "service", "replica",  "selfheal", "other"};
/// Event categories of the RPC pipeline, the bulk of every op workload's
/// dispatched events.
constexpr std::array<const char*, 4> kEventCategories = {"rpc.arrive", "rpc.execute",
                                                         "rpc.depart", "rpc.done"};

/// The traced rep's view: critical-path stage totals from the span DAG and
/// the profiler's per-category host cost, summed over clusters.
struct TraceTotals {
  std::map<std::string, std::int64_t> stage_ns;
  std::int64_t critical_ns = 0;
  std::uint64_t events = 0;
  std::map<std::string, SimProfiler::CategoryStats> categories;
  bool stages_sum_to_total = true;

  void add(KoshaCluster& cluster) {
    const prof::CriticalPathReport critical = prof::analyze_critical_path(cluster.tracer().spans());
    std::int64_t sum = 0;
    for (const auto& [stage, total] : critical.stages) {
      stage_ns[stage] += total.ns;
      sum += total.ns;
    }
    critical_ns += critical.critical_total_ns;
    stages_sum_to_total = stages_sum_to_total && sum == critical.critical_total_ns;
    const SimProfiler& profiler = cluster.profiler();
    events += profiler.events();
    for (const auto& [name, stats] : profiler.categories()) {
      categories[name].count += stats.count;
      categories[name].wall_ns += stats.wall_ns;
    }
  }

  void report(std::uint64_t ops, RepResult& r) const {
    const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
    for (const char* stage : kStages) {
      const auto it = stage_ns.find(stage);
      const double ns = it == stage_ns.end() ? 0.0 : static_cast<double>(it->second);
      r.traced.set(std::string("vt.") + stage + "_us_per_op", "us", ns / n * 1e-3);
    }
    r.traced.set("prof.events_per_op", "count", static_cast<double>(events) / n);
    for (const char* category : kEventCategories) {
      const auto it = categories.find(category);
      const double per_event =
          it == categories.end() || it->second.count == 0
              ? 0.0
              : static_cast<double>(it->second.wall_ns) / static_cast<double>(it->second.count);
      r.traced.set(std::string("prof.") + category + ".host_ns_per_event", "ns", per_event);
    }
    if (!stages_sum_to_total) {
      r.error = "critical-path stage totals do not sum to the root-span total";
    }
  }
};

// ---------------------------------------------------------------------------
// mab: Table 1's K-8 setup, the paper's headline
// ---------------------------------------------------------------------------

/// The same tree on the unmodified-NFS baseline (untimed; virtual only).
double nfs_mab_total(const trace::MabWorkload& work) {
  SimClock clock;
  net::SimNetwork network({}, &clock);
  const net::HostId client = network.add_host();
  const net::HostId server_host = network.add_host();
  fs::StorageConfig storage;
  storage.fs.capacity_bytes = 64ull << 30;
  nfs::NfsServer server(server_host, storage, {}, &clock);
  nfs::ServerDirectory directory;
  directory.add(&server);
  baseline::NfsMount mount(&network, &directory, client, server_host);
  return trace::run_mab(mount, work, clock).total();
}

/// MAB trees per rep, each on a fresh cluster (Table 1 averages runs).
constexpr std::size_t kMabIterations = 8;

RepResult run_mab_workload(const RepOptions& opt) {
  RepResult r;
  const std::size_t iterations = scaled(kMabIterations, opt.scale);
  OpLog log;
  log.reserve(iterations * 1024);
  LayerCounters counters;
  TraceTotals traces;
  double kosha_s = 0;
  double nfs_s = 0;
  std::uint64_t expected_ops = 0;
  std::uint64_t allocs = 0;
  for (std::size_t i = 0; i < iterations; ++i) {
    const double t0 = wall_s();
    const std::uint64_t seed = opt.seed * kMabIterations + i;
    KoshaCluster cluster(cluster_config(8, 1, 1, seed, opt.traced));
    r.nodes += 8;
    trace::MabConfig mab;
    mab.seed = seed;
    const trace::MabWorkload work = trace::generate_mab(mab);
    KoshaMount mount(&cluster.daemon(0));
    TimedMount<KoshaMount> timed(&mount, &cluster.clock(), &log);
    reset_observers(cluster);
    const net::NetStats before = cluster.network().stats();
    const std::uint64_t check_ns0 = log.check_ns;
    const std::uint64_t check_allocs0 = log.check_allocs;
    const std::uint64_t allocs0 = allocation_count();
    const double t1 = wall_s();
    const trace::MabPhaseTimes times = trace::run_mab(timed, work, cluster.clock());
    const double t2 = wall_s();
    allocs += allocation_count() - allocs0 - (log.check_allocs - check_allocs0);
    r.setup_s += t1 - t0;
    r.run_s += t2 - t1 - static_cast<double>(log.check_ns - check_ns0) * 1e-9;

    if (times.mkdir_s <= 0 || times.copy_s <= 0 || times.stat_s <= 0 || times.grep_s <= 0 ||
        times.compile_s <= 0) {
      r.error = "MAB iteration " + std::to_string(i) + " stopped before all five phases ran";
    }
    expected_ops += 3 * work.directories.size() + 5 * work.files.size();
    kosha_s += times.total();
    nfs_s += nfs_mab_total(work);
    counters.add(cluster, before);
    if (opt.traced) traces.add(cluster);
    if (opt.ladder && i + 1 == iterations) {
      LadderInputs in{&cluster, work.directories, {}, 0};
      for (const trace::MabFile& file : work.files) in.files.push_back(trace::mab_copy_path(file.path));
      in.file_bytes = static_cast<std::size_t>(work.total_bytes / std::max<std::size_t>(1, work.files.size()));
      r.host.merge(run_ladder(in));
    }
    log.expected_content.clear();  // untimed; the next tree writes other paths
  }

  r.attempted = log.ops();
  r.failed = log.failed + log.wrong;
  if (r.attempted != expected_ops) {
    r.error = "mab ran " + std::to_string(r.attempted) + " ops, expected " +
              std::to_string(expected_ops);
  }
  const double overhead_pct = nfs_s > 0 ? (kosha_s - nfs_s) / nfs_s * 100.0 : 0.0;
  if (overhead_pct >= 6.0) {
    r.error = "Kosha's MAB overhead over NFS is " + std::to_string(overhead_pct) +
              "%, above the paper's 6%";
  }
  r.virt.set("makespan_s", "s", kosha_s / static_cast<double>(iterations));
  report_ops(log, r.failed, r);
  r.virt.set("mab.nfs_overhead_pct", "%", overhead_pct);
  counters.report(r.attempted, log.written_bytes, r.virt);
  r.host.set("mount.allocs_per_op", "count",
             static_cast<double>(allocs) / static_cast<double>(std::max<std::uint64_t>(1, r.attempted)));
  if (opt.traced) traces.report(r.attempted, r);
  return r;
}

// ---------------------------------------------------------------------------
// homes and scale_10k: home directories created by one client through one
// mount per host, then scanned cold from the next host's mount
// ---------------------------------------------------------------------------

/// The testbed of homes and scale_10k: node ids and the daemons' jitter
/// streams. It stays fixed while the seed draws the home directories'
/// names and contents. The host cost of these workloads grows with the
/// square of the anchors per node, and random node ids alone would swing
/// that load by a quarter from seed to seed.
constexpr std::uint64_t kTestbedSeed = 1;

RepResult run_homes_like(const RepOptions& opt, std::size_t nodes, std::size_t dirs) {
  RepResult r;
  const std::size_t n_dirs = scaled(dirs, opt.scale);
  constexpr std::size_t kFileBytes = 256;

  const double t0 = wall_s();
  KoshaCluster cluster(cluster_config(nodes, 1, 1, kTestbedSeed, opt.traced));
  r.nodes = nodes;
  const std::size_t n_mounts = std::min<std::size_t>(64, nodes);
  std::vector<KoshaMount> mounts;
  mounts.reserve(n_mounts);
  for (std::size_t h = 0; h < n_mounts; ++h) {
    mounts.emplace_back(&cluster.daemon(static_cast<net::HostId>(h)));
  }
  OpLog log;
  log.reserve(2 * n_dirs);
  std::vector<TimedMount<KoshaMount>> timed;
  timed.reserve(n_mounts);
  for (KoshaMount& mount : mounts) timed.emplace_back(&mount, &cluster.clock(), &log);

  Rng rng(opt.seed);
  std::vector<std::string> homes;
  std::vector<std::string> files;
  std::vector<std::string> contents;
  homes.reserve(n_dirs);
  files.reserve(n_dirs);
  contents.reserve(n_dirs);
  for (std::size_t i = 0; i < n_dirs; ++i) {
    homes.push_back("/h" + std::to_string(i) + "-" + rng.next_name(6));
    files.push_back(homes.back() + "/profile");
    contents.push_back(rng.next_name(kFileBytes));
  }
  reset_observers(cluster);
  const net::NetStats before = cluster.network().stats();
  const SimDuration vt0 = cluster.clock().now();
  const std::uint64_t allocs0 = allocation_count();
  const double t1 = wall_s();

  // Every call runs even after a failure, so the op count stays exact; the
  // log counts the failures.
  for (std::size_t i = 0; i < n_dirs; ++i) {
    TimedMount<KoshaMount>& mount = timed[i % n_mounts];
    [[maybe_unused]] const auto made = mount.mkdir_p(homes[i]);
    [[maybe_unused]] const auto wrote = mount.write_file(files[i], contents[i]);
  }
  std::uint64_t wrong_size = 0;
  for (std::size_t i = 0; i < n_dirs; ++i) {
    TimedMount<KoshaMount>& mount = timed[(i + 1) % n_mounts];
    const auto attr = mount.stat(files[i]);
    if (attr.ok() && attr->size != contents[i].size()) ++wrong_size;
    [[maybe_unused]] const auto data = mount.read_file(files[i]);
  }

  const double t2 = wall_s();
  const std::uint64_t allocs = allocation_count() - allocs0 - log.check_allocs;
  r.setup_s = t1 - t0;
  r.run_s = t2 - t1 - static_cast<double>(log.check_ns) * 1e-9;
  r.attempted = log.ops();
  r.failed = log.failed + log.wrong + wrong_size;
  if (r.attempted != 4 * n_dirs) {
    r.error = "ran " + std::to_string(r.attempted) + " ops, expected " + std::to_string(4 * n_dirs);
  }
  r.virt.set("makespan_s", "s", (cluster.clock().now() - vt0).to_seconds());
  report_ops(log, r.failed, r);
  LayerCounters counters;
  counters.add(cluster, before);
  counters.report(r.attempted, log.written_bytes, r.virt);
  r.host.set("mount.allocs_per_op", "count",
             static_cast<double>(allocs) / static_cast<double>(std::max<std::uint64_t>(1, r.attempted)));
  if (opt.traced) {
    TraceTotals traces;
    traces.add(cluster);
    traces.report(r.attempted, r);
  }
  if (opt.ladder) r.host.merge(run_ladder({&cluster, homes, files, kFileBytes}));
  return r;
}

RepResult run_homes(const RepOptions& opt) { return run_homes_like(opt, 64, 8192); }

RepResult run_scale_10k(const RepOptions& opt) {
  return run_homes_like(opt, scaled(10000, opt.scale), 16384);
}

// ---------------------------------------------------------------------------
// contended: 64 closed-loop clients on 8 nodes, Zipf reads
// ---------------------------------------------------------------------------

/// Independent clusters per rep: where the 64 client directories hash
/// decides which node queues longest, so one placement alone would make
/// the tail a property of the seed rather than of the system.
constexpr std::size_t kContendedRuns = 16;

RepResult run_contended(const RepOptions& opt) {
  RepResult r;
  sim::WorkloadConfig work;
  work.clients = scaled(64, opt.scale);
  work.files_per_client = scaled(16, opt.scale);
  work.file_bytes = 4096;
  work.reads_per_file = 6;
  work.zipf_s = 1.1;
  const std::size_t runs = scaled(kContendedRuns, opt.scale);
  LatencyHistogram latency;
  std::array<LatencyHistogram, kOpKinds> per_kind;
  LayerCounters counters;
  TraceTotals traces;
  double makespan_s = 0;
  std::uint64_t allocs = 0;
  std::uint64_t expected = 0;
  for (std::size_t run = 0; run < runs; ++run) {
    const double t0 = wall_s();
    ClusterConfig config = cluster_config(8, 1, 1, opt.seed * kContendedRuns + run, opt.traced);
    config.observability.metrics = true;  // the per-op latency histograms
    KoshaCluster cluster(config);
    r.nodes += 8;
    // Registered first, so the driver and the mounts record into these.
    (void)cluster.metrics().histogram("sim.op.latency_us", LatencyHistogram::bounds());
    for (const char* op : kOpNames) {
      (void)cluster.metrics().histogram(std::string("mount.") + op + ".latency_us",
                                        LatencyHistogram::bounds());
    }
    reset_observers(cluster);
    const net::NetStats before = cluster.network().stats();
    const std::uint64_t allocs0 = allocation_count();
    const double t1 = wall_s();
    const sim::WorkloadResult result = sim::run_multi_client_workload(cluster, work);
    const double t2 = wall_s();
    allocs += allocation_count() - allocs0;
    r.setup_s += t1 - t0;
    r.run_s += t2 - t1;
    r.attempted += result.ops;
    r.failed += result.failures;
    expected +=
        work.clients * (1 + work.files_per_client + work.files_per_client * work.reads_per_file);
    makespan_s += result.makespan.to_seconds();
    if (const Histogram* h = cluster.metrics().find_histogram("sim.op.latency_us")) latency.merge(*h);
    for (std::size_t k = 0; k < kOpKinds; ++k) {
      const std::string name = std::string("mount.") + kOpNames[k] + ".latency_us";
      if (const Histogram* h = cluster.metrics().find_histogram(name)) per_kind[k].merge(*h);
    }
    counters.add(cluster, before);
    if (opt.traced) traces.add(cluster);
    if (opt.ladder && run + 1 == runs) {
      LadderInputs in{&cluster, {}, {}, work.file_bytes};
      for (std::size_t c = 0; c < work.clients; ++c) {
        in.names.push_back("/u" + std::to_string(c));
        in.files.push_back(in.names.back() + "/f0");
      }
      r.host.merge(run_ladder(in));
    }
  }

  if (r.attempted != expected) {
    r.error = "ran " + std::to_string(r.attempted) + " ops, expected " + std::to_string(expected);
  }
  r.virt.set("makespan_s", "s", makespan_s / static_cast<double>(runs));
  report_ops(latency, r.failed, r.virt);
  for (std::size_t k = 0; k < kOpKinds; ++k) {
    if (per_kind[k].count() > 0) {
      r.virt.set(std::string("mount.") + kOpNames[k] + ".vt_us", "us", per_kind[k].percentile(50));
    }
  }
  counters.report(r.attempted, runs * work.clients * work.files_per_client * work.file_bytes,
                  r.virt);
  r.host.set("mount.allocs_per_op", "count",
             static_cast<double>(allocs) / static_cast<double>(std::max<std::uint64_t>(1, r.attempted)));
  if (opt.traced) traces.report(r.attempted, r);
  return r;
}

// ---------------------------------------------------------------------------
// churn: paper §4.3 / Fig 7, continuous failures and joins under self-healing
// ---------------------------------------------------------------------------

/// Independent soaks per rep: one soak's failure and join arrivals, and its
/// convergence tail, vary too much from seed to seed to measure alone.
constexpr std::size_t kChurnSoaks = 8;

RepResult run_churn(const RepOptions& opt) {
  RepResult r;
  sim::ChurnSimConfig config;
  config.nodes = 48;
  config.replicas = 2;
  config.level = 2;
  config.duration = SimDuration::seconds(60.0 * std::min(1.0, opt.scale * 10));
  config.mean_fail_interarrival = SimDuration::seconds(3);
  config.mean_join_interarrival = SimDuration::seconds(3);
  config.min_live = 24;
  config.drop_probability = 0.01;
  config.files = scaled(24, opt.scale);
  const std::size_t soaks = scaled(kChurnSoaks, opt.scale);

  double span_s = 0;
  double available = 0;
  std::uint64_t samples = 0;
  double detect_ms = 0;
  std::uint64_t detected = 0;
  double mttr_ms = 0;
  std::uint64_t repaired = 0;
  double detect_max = 0;
  double mttr_max = 0;
  double durability_min = 100;
  double full_min = 100;
  std::uint64_t failures = 0;
  std::uint64_t joins = 0;
  for (std::size_t soak = 0; soak < soaks; ++soak) {
    config.seed = opt.seed * kChurnSoaks + soak;
    // simulate_churn builds its own cluster, so set-up is measured on a
    // twin: the same self-healing cluster seeded with the same dataset.
    const double t0 = wall_s();
    ClusterConfig twin_config =
        cluster_config(config.nodes, config.replicas, config.level, config.seed, false);
    twin_config.self_heal.enabled = true;
    KoshaCluster twin(twin_config);
    r.nodes += config.nodes;
    KoshaMount mount(&twin.daemon(0));
    LadderInputs in{&twin, {}, {}, 0};
    for (std::size_t i = 0; i < config.files; ++i) {
      const std::string dir = "/churn/d" + std::to_string(i % 6);
      const std::string path = dir + "/f" + std::to_string(i);
      const std::string content =
          "content-" + std::to_string(i) + "-" + std::to_string(config.seed);
      if (!mount.mkdir_p(dir).ok() || !mount.write_file(path, content).ok()) {
        r.error = "churn dataset write failed on the set-up twin";
      }
      in.names.push_back(dir);
      in.files.push_back(path);
      in.file_bytes = content.size();
    }
    const double t1 = wall_s();
    const sim::ChurnResult result = sim::simulate_churn(config);
    const double t2 = wall_s();
    r.setup_s += t1 - t0;
    r.run_s += t2 - t1;
    if (opt.ladder && soak + 1 == soaks) r.host.merge(run_ladder(in));

    if (result.timeline.empty()) {
      r.error = "churn took no samples";
      continue;
    }
    if (!result.converged) r.error = "churn did not converge to full replication";
    if (result.final_durability_pct < 100.0) r.error = "churn lost data";
    // Client view: every sample re-reads every file through the mount. A
    // read refused during the soak is the availability being measured; one
    // refused once repair has converged (the last sample) is a failure.
    const double files = static_cast<double>(config.files);
    for (const sim::ChurnSample& sample : result.timeline) {
      available += sample.availability_pct / 100.0 * files;
    }
    r.failed += static_cast<std::uint64_t>(
        std::llround((100.0 - result.timeline.back().availability_pct) / 100.0 * files));
    samples += result.timeline.size();
    span_s += (result.timeline.back().at - result.timeline.front().at + config.sample_period)
                  .to_seconds();
    detect_ms += result.detect_ms_mean * static_cast<double>(result.detected);
    detected += result.detected;
    mttr_ms += result.mttr_ms_mean * static_cast<double>(result.repaired);
    repaired += result.repaired;
    detect_max = std::max(detect_max, result.detect_ms_max);
    mttr_max = std::max(mttr_max, result.mttr_ms_max);
    durability_min = std::min(durability_min, result.min_durability_pct);
    full_min = std::min(full_min, result.final_full_pct);
    failures += result.failures;
    joins += result.joins;
  }

  r.attempted = samples * config.files;
  const auto mean = [](double sum, std::uint64_t n) {
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  r.virt.set("makespan_s", "s", span_s / static_cast<double>(soaks));
  r.virt.set("availability_pct", "%", 100.0 * mean(available, r.attempted));
  r.virt.set("churn.durability_min_pct", "%", durability_min);
  r.virt.set("churn.detect_ms", "ms", mean(detect_ms, detected));
  r.virt.set("churn.mttr_ms", "ms", mean(mttr_ms, repaired));
  r.virt.set("fd.detect_ms_max", "ms", detect_max);
  r.virt.set("repair.mttr_ms_max", "ms", mttr_max);
  r.virt.set("fd.detected_per_failure", "ratio",
             static_cast<double>(detected) / static_cast<double>(std::max<std::uint64_t>(1, failures)));
  r.virt.set("repair.repaired_per_failure", "ratio",
             static_cast<double>(repaired) / static_cast<double>(std::max<std::uint64_t>(1, failures)));
  r.virt.set("repair.repaired", "count", static_cast<double>(repaired));
  r.virt.set("churn.failures", "count", static_cast<double>(failures));
  r.virt.set("churn.joins", "count", static_cast<double>(joins));
  r.virt.set("churn.full_replication_pct", "%", full_min);
  return r;
}

}  // namespace

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> kWorkloads = {
      {"mab", run_mab_workload},   {"homes", run_homes},  {"scale_10k", run_scale_10k},
      {"contended", run_contended}, {"churn", run_churn},
  };
  return kWorkloads;
}

}  // namespace kosha::bench
