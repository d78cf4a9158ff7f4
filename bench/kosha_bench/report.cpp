#include "report.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace kosha::bench {

void Report::set(std::string_view name, std::string_view unit, double value, double spread) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.unit = unit;
      m.value = value;
      m.spread = spread;
      return;
    }
  }
  metrics_.push_back({std::string(name), std::string(unit), value, spread});
}

const Metric* Report::find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::merge(const Report& other) {
  for (const Metric& m : other.metrics_) set(m.name, m.unit, m.value, m.spread);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double iqr_share(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n < 2) return 0;
  std::sort(values.begin(), values.end());
  // statistics.quantiles(method="exclusive"): position p*(n+1), 1-based.
  const auto quantile = [&](double p) {
    const double pos = p * static_cast<double>(n + 1);
    const auto j = static_cast<std::size_t>(std::clamp(std::floor(pos), 1.0,
                                                       static_cast<double>(n - 1)));
    const double delta = pos - static_cast<double>(j);
    return values[j - 1] + (values[j] - values[j - 1]) * delta;
  };
  const double mid = median(values);
  return mid == 0 ? 0 : (quantile(0.75) - quantile(0.25)) / mid;
}

std::string exact_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string digest(const Report& report) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;
    h *= 0x100000001b3ull;
  };
  for (const Metric& m : report.metrics()) {
    mix(m.name);
    mix(m.unit);
    mix(exact_number(m.value));
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace kosha::bench
