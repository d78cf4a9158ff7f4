#include "common/metrics.hpp"

#include <algorithm>

#include "common/json.hpp"

namespace kosha {

std::vector<double> Histogram::default_bounds() {
  std::vector<double> bounds;
  double decade = 1.0;
  for (int i = 0; i < 8; ++i) {  // 1 .. 5e7
    bounds.push_back(decade);
    bounds.push_back(decade * 2.0);
    bounds.push_back(decade * 5.0);
    decade *= 10.0;
  }
  return bounds;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = default_bounds();
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::record(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0 || v < min_) min_ = v;
  if (count_ == 0 || v > max_) max_ = v;
  sum_ += v;
  ++count_;
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const std::uint64_t next = seen + buckets_[i];
    if (static_cast<double>(next) >= rank) {
      // Bucket i spans (lo, hi]; interpolate by the fraction of the rank
      // that falls inside it, clamped to the observed extremes.
      double lo = i == 0 ? min_ : bounds_[i - 1];
      double hi = i < bounds_.size() ? bounds_[i] : max_;
      lo = std::max(lo, min_);
      hi = std::min(hi, max_);
      if (hi <= lo) return hi;
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(buckets_[i]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
    seen = next;
  }
  return max_;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return &it->second;
  return &counters_.emplace(std::string(name), Counter{}).first->second;
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return &it->second;
  return &gauges_.emplace(std::string(name), Gauge{}).first->second;
}

Histogram* MetricsRegistry::histogram(std::string_view name, std::vector<double> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return &it->second;
  return &histograms_.emplace(std::string(name), Histogram(std::move(bounds))).first->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? &it->second : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? &it->second : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? &it->second : nullptr;
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + json_number(static_cast<double>(c.value()));
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + json_number(g.value());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": {";
    out += "\"count\": " + json_number(static_cast<double>(h.count()));
    out += ", \"sum\": " + json_number(h.sum());
    out += ", \"min\": " + json_number(h.min());
    out += ", \"max\": " + json_number(h.max());
    out += ", \"mean\": " + json_number(h.mean());
    out += ", \"p50\": " + json_number(h.percentile(50.0));
    out += ", \"p95\": " + json_number(h.percentile(95.0));
    out += ", \"p99\": " + json_number(h.percentile(99.0));
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

namespace {
void csv_row(std::string& out, const char* type, const std::string& name, const char* field,
             double value) {
  out += type;
  out += ',';
  out += name;
  out += ',';
  out += field;
  out += ',';
  out += json_number(value);
  out += '\n';
}
}  // namespace

std::string MetricsRegistry::to_csv() const {
  std::string out = "type,name,field,value\n";
  for (const auto& [name, c] : counters_) {
    csv_row(out, "counter", name, "value", static_cast<double>(c.value()));
  }
  for (const auto& [name, g] : gauges_) {
    csv_row(out, "gauge", name, "value", g.value());
  }
  for (const auto& [name, h] : histograms_) {
    csv_row(out, "histogram", name, "count", static_cast<double>(h.count()));
    csv_row(out, "histogram", name, "sum", h.sum());
    csv_row(out, "histogram", name, "min", h.min());
    csv_row(out, "histogram", name, "max", h.max());
    csv_row(out, "histogram", name, "mean", h.mean());
    csv_row(out, "histogram", name, "p50", h.percentile(50.0));
    csv_row(out, "histogram", name, "p95", h.percentile(95.0));
    csv_row(out, "histogram", name, "p99", h.percentile(99.0));
  }
  return out;
}

}  // namespace kosha
