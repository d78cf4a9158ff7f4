// kosha_shell — an interactive (or scriptable: pipe commands on stdin)
// shell driving a live Kosha cluster. Useful for poking at placement,
// failures, and recovery by hand.
//
//   $ build/examples/kosha_shell <<'EOF'
//   mkdir /alice
//   write /alice/hi hello world
//   cat /alice/hi
//   where /alice/hi
//   fail 3
//   cat /alice/hi
//   audit
//   EOF

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "kosha/audit.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"

namespace {

using namespace kosha;

void print_help() {
  std::printf(
      "commands:\n"
      "  mkdir <path>            create directories (mkdir -p)\n"
      "  write <path> <text...>  write a file\n"
      "  cat <path>              print a file\n"
      "  ls <path>               list a directory\n"
      "  stat <path>             show attributes\n"
      "  rm <path>               remove a file\n"
      "  rmdir <path>            remove an empty directory\n"
      "  mv <from> <to>          rename\n"
      "  where <path>            show which host stores the primary copy\n"
      "  nodes                   list hosts, liveness, utilization\n"
      "  fail <host> | revive <host> | retire <host> | add\n"
      "  audit                   run the consistency audit\n"
      "  stats                   daemon counters\n"
      "  help | quit\n");
}

void print_status(const char* op, nfs::NfsStat status) {
  std::printf("%s: %s\n", op, nfs::to_string(status));
}

}  // namespace

int main() {
  ClusterConfig config;
  config.nodes = 8;
  config.kosha.distribution_level = 2;
  config.kosha.replicas = 2;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));
  std::printf("kosha_shell: %zu nodes, level %u, %u replicas. 'help' for commands.\n",
              cluster.live_hosts().size(), config.kosha.distribution_level,
              config.kosha.replicas);

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream input(line);
    std::string command;
    if (!(input >> command) || command[0] == '#') continue;
    std::string arg1;
    input >> arg1;

    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      print_help();
    } else if (command == "mkdir") {
      const auto result = mount.mkdir_p(arg1);
      if (!result.ok()) print_status("mkdir", result.error());
    } else if (command == "write") {
      std::string text;
      std::getline(input, text);
      if (!text.empty() && text[0] == ' ') text.erase(0, 1);
      const auto result = mount.write_file(arg1, text);
      if (!result.ok()) print_status("write", result.error());
    } else if (command == "cat") {
      const auto content = mount.read_file(arg1);
      if (content.ok()) {
        std::printf("%.*s\n", static_cast<int>(content->size()), content->data());
      } else {
        print_status("cat", content.error());
      }
    } else if (command == "ls") {
      const auto listing = mount.list(arg1.empty() ? "/" : arg1);
      if (!listing.ok()) {
        print_status("ls", listing.error());
        continue;
      }
      for (const auto& entry : listing.value()) {
        std::printf("  %-4s %s\n", entry.type == fs::FileType::kDirectory ? "dir" : "file",
                    entry.name.c_str());
      }
    } else if (command == "stat") {
      const auto attr = mount.stat(arg1);
      if (attr.ok()) {
        std::printf("  type=%s size=%llu mode=%o uid=%u\n",
                    attr->type == fs::FileType::kDirectory ? "dir" : "file",
                    static_cast<unsigned long long>(attr->size), attr->mode, attr->uid);
      } else {
        print_status("stat", attr.error());
      }
    } else if (command == "rm") {
      const auto result = mount.remove(arg1);
      if (!result.ok()) print_status("rm", result.error());
    } else if (command == "rmdir") {
      const auto result = mount.rmdir(arg1);
      if (!result.ok()) print_status("rmdir", result.error());
    } else if (command == "mv") {
      std::string arg2;
      input >> arg2;
      const auto result = mount.rename(arg1, arg2);
      if (!result.ok()) print_status("mv", result.error());
    } else if (command == "where") {
      const auto vh = mount.resolve(arg1);
      if (!vh.ok()) {
        print_status("where", vh.error());
        continue;
      }
      const auto* entry = cluster.daemon(0).handle_table().find(*vh);
      std::printf("  host %u, stored path %s\n", entry->real.server,
                  entry->stored_path.c_str());
    } else if (command == "nodes") {
      for (net::HostId host = 0; host < cluster.network().host_count(); ++host) {
        const bool up = cluster.is_up(host);
        std::printf("  host %u: %s", host, up ? "up  " : "down");
        if (up) {
          std::printf("  %6.1f%% used, primary for %zu anchors",
                      100.0 * cluster.server(host).store().utilization(),
                      cluster.replicas(host).primaries().size());
        }
        std::printf("\n");
      }
    } else if (command == "fail") {
      const auto host = static_cast<net::HostId>(std::stoul(arg1));
      if (host == 0) {
        std::printf("host 0 runs this shell's daemon; pick another\n");
      } else {
        cluster.fail_node(host);
        std::printf("host %s crashed\n", arg1.c_str());
      }
    } else if (command == "revive") {
      cluster.revive_node(static_cast<net::HostId>(std::stoul(arg1)));
      std::printf("host %s revived (purged, fresh node id)\n", arg1.c_str());
    } else if (command == "retire") {
      const auto host = static_cast<net::HostId>(std::stoul(arg1));
      if (host == 0) {
        std::printf("host 0 runs this shell's daemon; pick another\n");
      } else {
        cluster.retire_node(host);
        std::printf("host %s retired gracefully\n", arg1.c_str());
      }
    } else if (command == "add") {
      const auto host = cluster.add_node();
      std::printf("host %u joined\n", host);
    } else if (command == "audit") {
      std::printf("%s", audit_cluster(cluster).to_string().c_str());
      std::printf("\n");
    } else if (command == "stats") {
      const auto& stats = cluster.daemon(0).stats();
      std::printf("  rpcs=%llu remote=%llu dht_lookups=%llu hops=%llu failovers=%llu "
                  "redirects=%llu\n",
                  static_cast<unsigned long long>(stats.rpcs_forwarded),
                  static_cast<unsigned long long>(stats.remote_rpcs),
                  static_cast<unsigned long long>(stats.dht_lookups),
                  static_cast<unsigned long long>(stats.dht_hops),
                  static_cast<unsigned long long>(stats.failovers),
                  static_cast<unsigned long long>(stats.redirects));
    } else {
      std::printf("unknown command '%s' ('help' lists commands)\n", command.c_str());
    }
  }
  return 0;
}
