#include "common/path.hpp"

namespace kosha {

namespace {

/// The component of `path` that starts at or after `*pos` (separators
/// skipped), advancing `*pos` past it; empty once none remain.
std::string_view next_component(std::string_view path, std::size_t* pos) {
  std::size_t i = *pos;
  while (i < path.size() && path[i] == '/') ++i;
  std::size_t j = i;
  while (j < path.size() && path[j] != '/') ++j;
  *pos = j;
  return path.substr(i, j - i);
}

}  // namespace

std::vector<std::string> split_path(std::string_view path) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  for (std::string_view c = next_component(path, &pos); !c.empty();
       c = next_component(path, &pos)) {
    parts.emplace_back(c);
  }
  return parts;
}

std::string join_path(const std::vector<std::string>& components) {
  if (components.empty()) return "/";
  std::string out;
  for (const auto& c : components) {
    out += '/';
    out += c;
  }
  return out;
}

std::string path_child(std::string_view parent, std::string_view name) {
  std::string out(parent);
  if (out.empty() || out.back() != '/') out += '/';
  out += name;
  return out;
}

std::string path_parent(std::string_view path) {
  // Every component but the last, each behind one separator.
  std::string out;
  out.reserve(path.size());
  std::size_t pos = 0;
  std::string_view prev = next_component(path, &pos);
  for (std::string_view c = next_component(path, &pos); !c.empty();
       c = next_component(path, &pos)) {
    out += '/';
    out += prev;
    prev = c;
  }
  if (out.empty()) out += '/';
  return out;
}

std::string path_basename(std::string_view path) {
  std::size_t end = path.size();
  while (end > 0 && path[end - 1] == '/') --end;
  std::size_t begin = end;
  while (begin > 0 && path[begin - 1] != '/') --begin;
  return std::string(path.substr(begin, end - begin));
}

std::string normalize_path(std::string_view path) {
  std::vector<std::string> out;
  for (auto& part : split_path(path)) {
    if (part == ".") continue;
    if (part == "..") return {};
    out.push_back(std::move(part));
  }
  return join_path(out);
}

std::size_t path_depth(std::string_view path) {
  std::size_t depth = 0;
  std::size_t pos = 0;
  while (!next_component(path, &pos).empty()) ++depth;
  return depth;
}

bool path_is_within(std::string_view path, std::string_view ancestor) {
  // Walk both paths one component at a time: `ancestor` must run out
  // first (or together) with every component matching.
  std::size_t p = 0;
  std::size_t a = 0;
  for (;;) {
    const std::string_view want = next_component(ancestor, &a);
    if (want.empty()) return true;
    if (next_component(path, &p) != want) return false;
  }
}

}  // namespace kosha
