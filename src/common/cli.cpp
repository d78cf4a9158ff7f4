#include "common/cli.hpp"

#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>

namespace kosha {

CliArgs::CliArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --flag, got: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag
    }
  }
}

bool CliArgs::has(const std::string& name) const { return values_.count(name) > 0; }

std::string CliArgs::get_string(const std::string& name, std::string fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? std::move(fallback) : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::stoll(it->second);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::stod(it->second);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::size_t> CliArgs::get_sizes(const std::string& name,
                                            const std::string& fallback) const {
  std::vector<std::size_t> out;
  std::stringstream items(get_string(name, fallback));
  for (std::string item; std::getline(items, item, ',');) {
    if (!item.empty()) out.push_back(static_cast<std::size_t>(std::stoull(item)));
  }
  return out;
}

std::string CliArgs::check_known(const std::string& known) const {
  std::set<std::string> allowed;
  std::size_t start = 0;
  while (start <= known.size()) {
    const auto comma = known.find(',', start);
    const auto end = (comma == std::string::npos) ? known.size() : comma;
    if (end > start) allowed.insert(known.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  for (const auto& [name, value] : values_) {
    (void)value;
    if (allowed.count(name) == 0) return "unknown flag: --" + name;
  }
  return {};
}

std::string env_or(const char* name, std::string fallback) {
  const char* value = std::getenv(name);
  return value == nullptr ? std::move(fallback) : std::string(value);
}

}  // namespace kosha
