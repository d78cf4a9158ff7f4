// Quickstart: stand up an 8-node Kosha cluster, mount it from one host,
// and use it like an ordinary file system. Shows the single file-system
// image, location transparency, and where the data physically lives.

#include <cstdio>

#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"

int main() {
  using namespace kosha;

  // 1. Eight desktops contribute 4 GB each and join the Pastry overlay.
  ClusterConfig config;
  config.nodes = 8;
  config.node_capacity_bytes = 4ull << 30;
  config.kosha.distribution_level = 2;  // distribute two directory levels
  config.kosha.replicas = 2;            // two extra copies of everything
  KoshaCluster cluster(config);
  std::printf("cluster up: %zu nodes, distribution level %u, %u replicas\n\n",
              cluster.live_hosts().size(), config.kosha.distribution_level,
              config.kosha.replicas);

  // 2. Mount /kosha on host 0 and use it like a normal file system.
  KoshaMount mount(&cluster.daemon(0));
  if (!mount.mkdir_p("/alice/papers").ok() || !mount.mkdir_p("/alice/src/kosha").ok()) {
    std::fprintf(stderr, "mkdir failed\n");
    return 1;
  }
  (void)mount.write_file("/alice/papers/sc04.txt", "Kosha: a p2p enhancement for NFS");
  (void)mount.write_file("/alice/src/kosha/main.c", "int main() { return 0; }");

  const auto text = mount.read_file("/alice/papers/sc04.txt");
  const std::string_view shown = text.ok() ? text->view() : "<error>";
  std::printf("read back: \"%.*s\"\n\n", static_cast<int>(shown.size()), shown.data());

  // 3. The same namespace is visible from every other host.
  KoshaMount other(&cluster.daemon(5));
  const auto listing = other.list("/alice");
  std::printf("/alice as seen from host 5:\n");
  if (listing.ok()) {
    for (const auto& entry : listing.value()) {
      std::printf("  %-8s %s\n",
                  entry.type == fs::FileType::kDirectory ? "dir" : "file",
                  entry.name.c_str());
    }
  }

  // 4. Peek under the hood: which nodes actually store the bytes?
  std::printf("\nphysical placement (bytes in each node's kosha_store):\n");
  for (const auto host : cluster.live_hosts()) {
    std::printf("  host %u: %8llu bytes, primary for %zu anchors\n", host,
                static_cast<unsigned long long>(cluster.server(host).store().used_bytes()),
                cluster.replicas(host).primaries().size());
  }
  return 0;
}
