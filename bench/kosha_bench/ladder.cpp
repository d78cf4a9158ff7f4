#include "ladder.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "common/event_loop.hpp"
#include "common/profile.hpp"
#include "common/sha1.hpp"
#include "fs/storage_backend.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "nfs/nfs_client.hpp"
#include "nfs/wire.hpp"

namespace kosha::bench {
namespace {

/// Results are folded into this sink so the timed calls cannot be elided.
volatile std::uint64_t g_sink = 0;

constexpr int kBatches = 7;
/// Calls per batch are sized so one batch takes about this long.
constexpr std::uint64_t kBatchNs = 3'000'000;

/// Time `call(i)` for i = 0, 1, ... in kBatches batches after one warm-up
/// batch that also sizes them. Reports the median ns per call over the
/// batches and the heap allocations per call over all of them.
template <typename Call>
void rung(Report& out, const std::string& name, std::size_t max_calls, Call&& call) {
  std::size_t i = 0;
  const std::uint64_t w0 = SimProfiler::wall_now_ns();
  call(i++);
  const std::uint64_t once = std::max<std::uint64_t>(1, SimProfiler::wall_now_ns() - w0);
  const std::size_t calls = std::clamp<std::size_t>(kBatchNs / once, 8, max_calls);
  std::vector<double> per_call;
  std::uint64_t allocs = 0;
  for (int b = 0; b < kBatches; ++b) {
    const std::uint64_t a0 = allocation_count();
    const std::uint64_t t0 = SimProfiler::wall_now_ns();
    for (std::size_t k = 0; k < calls; ++k) call(i++);
    const std::uint64_t t1 = SimProfiler::wall_now_ns();
    allocs += allocation_count() - a0;
    per_call.push_back(static_cast<double>(t1 - t0) / static_cast<double>(calls));
  }
  out.set(name + ".host_ns", "ns", median(per_call));
  out.set(name + ".allocs", "count",
          static_cast<double>(allocs) / static_cast<double>(kBatches * calls));
}

/// Upper bound on the calls a rung makes: warm-up plus the largest batches.
constexpr std::size_t kMaxCalls = 4096;
constexpr std::size_t kCallSlots = 1 + kBatches * kMaxCalls;

void store_rungs(Report& out, std::size_t file_bytes) {
  fs::StorageConfig config;
  config.fs.capacity_bytes = 64ull << 30;
  const std::unique_ptr<fs::StorageBackend> store = fs::make_backend(config);
  const std::string content(std::max<std::size_t>(1, file_bytes), 'k');
  std::vector<std::string> names;
  names.reserve(kCallSlots);
  for (std::size_t i = 0; i < kCallSlots; ++i) names.push_back("f" + std::to_string(i));
  std::vector<fs::InodeId> inodes;
  inodes.reserve(kCallSlots);
  rung(out, "fs.create", kMaxCalls, [&](std::size_t i) {
    const auto made = store->create(store->root(), names[i]);
    inodes.push_back(made.ok() ? made.value() : fs::kInvalidInode);
  });
  rung(out, "fs.write", kMaxCalls, [&](std::size_t i) {
    const auto wrote = store->write(inodes[i % inodes.size()], 0, content);
    g_sink = wrote.ok() ? wrote.value() : 0;
  });
  const auto count = static_cast<std::uint32_t>(content.size());
  rung(out, "fs.read", kMaxCalls, [&](std::size_t i) {
    const auto data = store->read(inodes[i % inodes.size()], 0, count);
    g_sink = data.ok() ? data.value().size() : 0;
  });
}

void wire_rungs(Report& out, const std::vector<std::string>& names, std::size_t file_bytes) {
  const nfs::FileHandle handle{1, 2, 3};
  const std::string data(std::max<std::size_t>(1, file_bytes), 'w');
  rung(out, "nfs.wire.encode_write", kMaxCalls, [&](std::size_t i) {
    g_sink = nfs::encode_write_call(static_cast<std::uint32_t>(i), handle, 0, data).size();
  });
  rung(out, "nfs.wire.encode_dirop", kMaxCalls, [&](std::size_t i) {
    g_sink = nfs::encode_diropargs_call(static_cast<std::uint32_t>(i), nfs::NfsProc::kLookup,
                                        handle, names[i % names.size()])
                 .size();
  });
}

void event_rung(Report& out) {
  SimClock clock;
  EventLoop loop(&clock, 1);
  rung(out, "common.event", kMaxCalls, [&](std::size_t) {
    loop.schedule_after(SimDuration::nanos(1), [] { g_sink = g_sink + 1; });
    loop.step();
  });
}

/// One GETATTR through NfsClient, the network and the event loop, wired the
/// way baseline::NfsMount wires its client.
void nfs_rpc_rung(Report& out) {
  SimClock clock;
  EventLoop loop(&clock, 1);
  net::SimNetwork network({}, &clock);
  network.set_event_loop(&loop);
  const net::HostId client_host = network.add_host();
  const net::HostId server_host = network.add_host();
  fs::StorageConfig storage;
  storage.fs.capacity_bytes = 64ull << 30;
  nfs::NfsServer server(server_host, storage, {}, &clock);
  nfs::ServerDirectory directory;
  directory.add(&server);
  nfs::NfsClient client(&network, &directory, client_host);
  const auto root = client.mount(server_host);
  if (!root.ok()) return;
  rung(out, "nfs.rpc", kMaxCalls, [&](std::size_t) {
    const auto attr = client.getattr(root.value());
    g_sink = attr.ok() ? attr.value().inode : 0;
  });
}

}  // namespace

Report run_ladder(const LadderInputs& in) {
  Report out;
  std::vector<std::string> names = in.names;
  if (names.empty()) names.push_back("/bench");

  std::vector<pastry::Key> keys;
  keys.reserve(names.size());
  for (const std::string& name : names) keys.push_back(Sha1::hash128(name));
  rung(out, "common.sha1", kMaxCalls,
       [&](std::size_t i) { g_sink = Sha1::hash128(names[i % names.size()]).lo; });
  rung(out, "pastry.route", kMaxCalls, [&](std::size_t i) {
    g_sink = in.cluster->overlay().route(0, keys[i % keys.size()]).hops;
  });
  store_rungs(out, in.file_bytes);
  wire_rungs(out, names, in.file_bytes);
  event_rung(out);
  nfs_rpc_rung(out);

  // koshad on the workload's cluster: resolve once, then time GETATTR on
  // the virtual handles (the daemon's own routing and forwarding).
  KoshaMount mount(&in.cluster->daemon(0));
  std::vector<VirtualHandle> handles;
  for (std::size_t i = 0; i < in.files.size() && handles.size() < 256; ++i) {
    const auto vh = mount.resolve(in.files[i]);
    if (vh.ok()) handles.push_back(vh.value());
  }
  if (!handles.empty()) {
    Koshad& daemon = in.cluster->daemon(0);
    rung(out, "koshad.getattr", kMaxCalls, [&](std::size_t i) {
      const auto attr = daemon.getattr(handles[i % handles.size()]);
      g_sink = attr.ok() ? attr.value().size : 0;
    });
  }
  return out;
}

}  // namespace kosha::bench
