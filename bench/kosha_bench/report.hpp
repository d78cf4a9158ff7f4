#pragma once

// Named metrics, the statistics the benchmark reports over them, and the
// JSON forms it prints and reads back.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kosha::bench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  /// Interquartile range over the reps as a share of the median; 0 for
  /// figures every rep reproduces exactly (virtual time, counts).
  double spread = 0;
};

/// Metrics in insertion order; setting an existing name overwrites it.
class Report {
 public:
  void set(std::string_view name, std::string_view unit, double value, double spread = 0);
  [[nodiscard]] const Metric* find(std::string_view name) const;
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  /// Append every metric of `other` (overwriting same-named ones).
  void merge(const Report& other);

 private:
  std::vector<Metric> metrics_;
};

/// Median of `values` (mean of the middle two for even sizes); 0 if empty.
[[nodiscard]] double median(std::vector<double> values);
/// (Q3 - Q1) / median with Python's statistics.quantiles(n=4) exclusive
/// method; 0 for fewer than two values or a zero median.
[[nodiscard]] double iqr_share(std::vector<double> values);

/// Shortest decimal form that reads back as exactly `v` (JSON number).
[[nodiscard]] std::string exact_number(double v);

/// FNV-1a over the metrics' names, units and exact values: two runs whose
/// deterministic figures agree bit for bit produce the same digest.
[[nodiscard]] std::string digest(const Report& report);

}  // namespace kosha::bench
