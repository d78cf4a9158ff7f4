#include "manifest.hpp"

#include <fstream>
#include <sstream>

#include "common/json.hpp"

namespace kosha::bench {
namespace {

bool read_list(const JsonValue& doc, const char* key, std::vector<ManifestMetric>* out) {
  const JsonValue* list = doc.find(key);
  if (list == nullptr || !list->is_array()) return false;
  for (const JsonValue& m : list->items()) {
    ManifestMetric metric;
    metric.name = m.string_or("name", "");
    metric.unit = m.string_or("unit", "");
    metric.lower_is_better = m.string_or("better", "lower") == "lower";
    metric.bound = m.number_or("bound", 0);
    if (metric.name.empty() || metric.unit.empty()) return false;
    out->push_back(std::move(metric));
  }
  return true;
}

}  // namespace

Result<Manifest, std::string> load_manifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::string("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = parse_json(text.str());
  if (!doc.ok()) return path + ": " + doc.error();
  Manifest manifest;
  if (!read_list(doc.value(), "end_to_end", &manifest.end_to_end) ||
      !read_list(doc.value(), "per_layer", &manifest.per_layer)) {
    return path + ": end_to_end and per_layer must list metrics with a name and a unit";
  }
  return manifest;
}

}  // namespace kosha::bench
