#include "sim/concurrency_driver.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"

namespace kosha::sim {

namespace {

/// The stamp a file's content repeats: depends only on (client, file).
std::string file_stamp(std::size_t client, std::size_t file) {
  // Appended, not `"c" + ...`: GCC 12 at -O3 reports a false -Wrestrict there.
  return std::string("c").append(std::to_string(client)).append("f").append(
      std::to_string(file)).append(":");
}

struct Client {
  std::unique_ptr<KoshaMount> mount;
  std::string root;       // "/u<c>"
  std::size_t next_op = 0;
  Rng zipf_rng{0};        // per-client popularity stream (zipf_s > 0 only)
};

}  // namespace

std::string repeat_stamp(std::string_view stamp, std::size_t bytes) {
  assert(!stamp.empty());
  std::string out(bytes, '\0');
  std::size_t filled = std::min(stamp.size(), bytes);
  std::memcpy(out.data(), stamp.data(), filled);
  // The filled prefix is a whole number of stamps until the last copy, so
  // copying it to its own end keeps the period.
  while (filled < bytes) {
    const std::size_t n = std::min(filled, bytes - filled);
    std::memcpy(out.data() + filled, out.data(), n);
    filled += n;
  }
  return out;
}

bool is_repeated_stamp(std::string_view got, std::string_view stamp, std::size_t bytes) {
  assert(!stamp.empty());
  if (got.size() != bytes) return false;
  const std::size_t k = std::min(stamp.size(), bytes);
  return got.substr(0, k) == stamp.substr(0, k) && got.substr(k) == got.substr(0, bytes - k);
}

WorkloadResult run_multi_client_workload(KoshaCluster& cluster,
                                         const WorkloadConfig& config) {
  WorkloadResult result;
  const std::vector<net::HostId> hosts = cluster.live_hosts();
  if (config.clients == 0 || hosts.empty()) return result;

  SimClock& clock = cluster.clock();
  const SimDuration t0 = clock.now();
  const std::size_t ops_per_client =
      1 + config.files_per_client + config.files_per_client * config.reads_per_file;

  // Optional Zipf read popularity: one sampler, one forked stream per
  // client, both derived from the cluster seed. With zipf_s == 0 neither
  // exists and the read pass is the legacy round-robin — numerically
  // identical to runs predating the knob.
  const bool zipf = config.zipf_s > 0.0 && config.files_per_client > 0;
  const ZipfSampler popularity(zipf ? config.files_per_client : 1, config.zipf_s);
  const Rng zipf_root(cluster.config().seed ^ 0x5a1full);

  std::vector<Client> clients(config.clients);
  for (std::size_t c = 0; c < clients.size(); ++c) {
    clients[c].mount =
        std::make_unique<KoshaMount>(&cluster.daemon(hosts[c % hosts.size()]));
    clients[c].root = "/u" + std::to_string(c);
    if (zipf) clients[c].zipf_rng = zipf_root.fork(c);
  }

  // Per-op virtual latency distribution (p50/p95/p99 for the scalability
  // sweep). Resolved once; null when metrics are off, so each op pays one
  // pointer test and nothing else.
  MetricsRegistry* metrics = cluster.network().metrics();
  Histogram* op_latency = metrics != nullptr ? metrics->histogram("sim.op.latency_us") : nullptr;

  // Every client starts at t0 and issues its ops back to back.
  const auto run_op = [&](std::size_t c) {
    Client& cl = clients[c];
    const std::size_t op = cl.next_op++;
    if (op == 0) return cl.mount->mkdir_p(cl.root).ok();
    if (op <= config.files_per_client) {
      const std::size_t file = op - 1;
      const std::string path = cl.root + "/f" + std::to_string(file);
      return cl.mount->write_file(path, repeat_stamp(file_stamp(c, file), config.file_bytes))
          .ok();
    }
    const std::size_t file =
        zipf ? popularity.sample(cl.zipf_rng)
             : (op - 1 - config.files_per_client) % config.files_per_client;
    const std::string path = cl.root + "/f" + std::to_string(file);
    const auto read = cl.mount->read_file(path);
    return read.ok() && is_repeated_stamp(read.value(), file_stamp(c, file), config.file_bytes);
  };
  const auto record = [&](std::size_t c, OpSpan span, bool ok) -> std::optional<SimDuration> {
    const SimDuration took = span.took();
    ++result.ops;
    if (!ok) ++result.failures;
    result.busy += took;
    if (op_latency != nullptr) op_latency->record(took.to_micros());
    return clients[c].next_op < ops_per_client ? std::optional(span.done) : std::nullopt;
  };
  const SimDuration finish = run_closed_loop(
      clock, clients.size(), [t0](std::size_t) { return Timeline{.start = t0}; }, run_op, record);
  clock.advance_to(finish);  // the workload ends with its last client
  result.makespan = finish - t0;
  return result;
}

}  // namespace kosha::sim
