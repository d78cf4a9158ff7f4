#pragma once

// Tiny command-line flag parser for bench/example binaries.
//
// Supports "--name value" and "--name=value". Unknown flags are an error so
// typos in sweep scripts fail loudly.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace kosha {

class CliArgs {
 public:
  /// Parse argv; throws std::invalid_argument on malformed input.
  CliArgs(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name, std::string fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  /// A comma-separated list of sizes ("1,4,16"); empty items are skipped.
  [[nodiscard]] std::vector<std::size_t> get_sizes(const std::string& name,
                                                   const std::string& fallback) const;

  /// Reject flags outside `known` (comma-separated list); returns an error
  /// message or empty string.
  [[nodiscard]] std::string check_known(const std::string& known) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Environment-variable lookup with a fallback — the one sanctioned seam
/// for out-of-band test/bench configuration (e.g. KOSHA_TEST_BACKEND).
/// Reading the environment is not a determinism leak: the value only ever
/// selects *which* deterministic configuration runs, never feeds entropy
/// into a run.
[[nodiscard]] std::string env_or(const char* name, std::string fallback);

}  // namespace kosha
