#pragma once

// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// Design constraints, in order:
//   1. Determinism. Instruments only ever record values derived from the
//      virtual clock or integer counts — never wall time — so same-seed runs
//      produce byte-identical snapshots. Export iterates a sorted map.
//   2. Zero overhead when off. The hot paths hold a nullable
//      `MetricsRegistry*`; a null pointer means a single branch per seam.
//      Recording never advances the SimClock and never consumes RNG, so an
//      instrumented run is numerically identical to an uninstrumented one.
//   3. Stable references. Instruments live in node-based maps; a `Counter*`
//      cached by a client survives later registrations.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace kosha {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram. Bucket upper bounds are chosen at registration
/// and never change, so two runs that record the same values produce the
/// same bucket counts regardless of arrival order.
class Histogram {
 public:
  /// Default bounds: a 1/2/5 ladder from 1 to 1e7, intended for latencies
  /// recorded in microseconds (1us .. 10s), plus an overflow bucket.
  [[nodiscard]] static std::vector<double> default_bounds();

  explicit Histogram(std::vector<double> bounds = {});

  void record(double v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }

  /// p-th percentile (0..100) estimated by linear interpolation within the
  /// containing bucket. Exact min/max are used to clamp the first and last
  /// occupied buckets so small samples don't overshoot.
  [[nodiscard]] double percentile(double p) const;

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const { return buckets_; }

 private:
  std::vector<double> bounds_;           // ascending upper bounds
  std::vector<std::uint64_t> buckets_;   // bounds_.size() + 1 (overflow last)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Registry of named instruments. Lookup by name registers on first use;
/// returned pointers are stable for the registry's lifetime.
class MetricsRegistry {
 public:
  [[nodiscard]] Counter* counter(std::string_view name);
  [[nodiscard]] Gauge* gauge(std::string_view name);
  /// `bounds` applies only on first registration; later calls with the same
  /// name return the existing histogram unchanged.
  [[nodiscard]] Histogram* histogram(std::string_view name, std::vector<double> bounds = {});

  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view name) const;

  /// Deterministic snapshot: one JSON object with sorted "counters",
  /// "gauges", "histograms" sections. Histograms include count/sum/min/max/
  /// mean and interpolated p50/p95/p99.
  [[nodiscard]] std::string to_json() const;

  /// Flat CSV: `type,name,field,value` rows in the same sorted order.
  [[nodiscard]] std::string to_csv() const;

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace kosha
