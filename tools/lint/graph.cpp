#include "lint/graph.hpp"

#include <algorithm>
#include <deque>
#include <sstream>

namespace kosha::lint {

bool call_blocklisted(const std::string& name) {
  static const std::set<std::string> kSet = {
      "if",           "for",        "while",      "switch",
      "return",       "sizeof",     "catch",      "new",
      "delete",       "throw",      "alignof",    "decltype",
      "operator",     "defined",    "static_assert", "assert",
      "noexcept",     "alignas",    "typeid",     "static_cast",
      "dynamic_cast", "const_cast", "reinterpret_cast"};
  return kSet.count(name) > 0;
}

int count_call_args(const std::vector<Token>& t, std::size_t open, std::size_t close) {
  int depth = 0;
  int commas = 0;
  bool any = false;
  for (std::size_t k = open; k < close; ++k) {
    if (is_punct(t[k], "(") || is_punct(t[k], "{") || is_punct(t[k], "[")) ++depth;
    else if (is_punct(t[k], ")") || is_punct(t[k], "}") || is_punct(t[k], "]")) --depth;
    else if (depth == 1 && is_punct(t[k], ",")) ++commas;
    else if (depth >= 1) any = true;
  }
  return any ? commas + 1 : 0;
}

namespace {

bool arity_compatible(const Function& f, int args) {
  return args >= f.min_arity && args <= f.arity;
}

bool in_src(const std::string& path) { return path.rfind("src/", 0) == 0; }

}  // namespace

EdgeKind resolve_call(const Index& idx, const std::vector<Token>& t, std::size_t k,
                      int args, const Function& caller, std::vector<int>* out_funcs) {
  const std::string& name = t[k].text;
  auto push = [&](const std::vector<int>* ids, bool methods_only, bool free_only) {
    if (ids == nullptr) return;
    for (const int id : *ids) {
      const Function& cand = idx.functions()[id];
      if (methods_only && cand.cls.empty()) continue;
      if (free_only && !cand.cls.empty()) continue;
      if (!arity_compatible(cand, args)) continue;
      out_funcs->push_back(id);
    }
  };
  if (k >= 2 && is_punct(t[k - 1], "::") && t[k - 2].kind == TokKind::kIdent) {
    const std::string& qual = t[k - 2].text;
    if (qual == "std") return EdgeKind::kDirect;  // std:: call, no edge
    if (idx.is_class(qual)) {
      push(idx.by_qual(qual + "::" + name), false, false);
      return EdgeKind::kDirect;
    }
    // Namespace qualifier: free-function lookup.
    push(idx.by_name(name), false, true);
    return EdgeKind::kDirect;
  }
  if (k >= 2 && (is_punct(t[k - 1], ".") || is_punct(t[k - 1], "->"))) {
    const Token& recv = t[k - 2];
    if (is_ident(recv, "this")) {
      push(idx.by_qual(caller.cls + "::" + name), false, false);
      return EdgeKind::kResolved;
    }
    if (recv.kind == TokKind::kIdent) {
      const std::string type = idx.type_of(recv.text);
      if (!type.empty()) {
        const auto* ids = idx.by_qual(type + "::" + name);
        if (ids != nullptr) {
          push(ids, false, false);
          return EdgeKind::kResolved;
        }
      }
    }
    // Unknown receiver: over-approximate across every same-name method of
    // compatible arity (virtual dispatch / unresolved member types).
    push(idx.by_name(name), true, false);
    return EdgeKind::kOverApprox;
  }
  // Plain call: the enclosing class's method, else a free function.
  if (!caller.cls.empty()) {
    const auto* ids = idx.by_qual(caller.cls + "::" + name);
    if (ids != nullptr) {
      push(ids, false, false);
      return EdgeKind::kResolved;
    }
  }
  push(idx.by_name(name), false, true);
  return EdgeKind::kDirect;
}

int CallGraph::node_for(const Index& idx, int func) {
  const Function& f = idx.functions()[func];
  const std::string key = f.qual() + "/" + std::to_string(f.arity);
  auto [it, inserted] = node_ids_.emplace(key, static_cast<int>(nodes_.size()));
  if (inserted) {
    nodes_.push_back({key, f.qual(), {}});
    out_.emplace_back();
  }
  nodes_[it->second].funcs.push_back(func);
  return it->second;
}

void CallGraph::add_edge(int from_node, int to_node, int file, int line, EdgeKind kind) {
  if (from_node < 0 || to_node < 0) return;
  if (!edge_set_.emplace(from_node, to_node).second) return;
  out_[from_node].push_back(static_cast<int>(edges_.size()));
  edges_.push_back({from_node, to_node, file, line, kind});
}

int CallGraph::find_node(const std::string& display) const {
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].display == display) return static_cast<int>(n);
  }
  return -1;
}

void CallGraph::build(const Index& idx) {
  nodes_.clear();
  edges_.clear();
  bad_edges_.clear();
  out_.clear();
  node_ids_.clear();
  event_roots_.clear();
  edge_set_.clear();

  const auto& funcs = idx.functions();
  node_of_func_.assign(funcs.size(), -1);
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    node_of_func_[i] = node_for(idx, static_cast<int>(i));
  }

  // Per-file schedule-callback line ranges, so an edge() annotation inside a
  // scheduled callback can root its target too.
  struct Region {
    int first_line, last_line;
  };
  std::vector<std::vector<Region>> regions(idx.files().size());

  for (std::size_t fi = 0; fi < funcs.size(); ++fi) {
    const Function& f = funcs[fi];
    if (!f.has_body()) continue;
    const SourceFile& file = idx.files()[f.file];
    const auto& t = file.tokens;
    const bool src_file = in_src(file.path);
    const int from = node_of_func_[fi];

    // Pass 1 over the body: the argument token ranges of every
    // schedule_at/schedule_after call — those arguments are the event-loop
    // callbacks, and every callee inside them is an event root.
    struct TokRegion {
      std::size_t begin, end;
    };
    std::vector<TokRegion> local;
    for (std::size_t k = f.body_begin + 1; k + 1 < f.body_end; ++k) {
      if (t[k].kind != TokKind::kIdent) continue;
      if (t[k].text != "schedule_at" && t[k].text != "schedule_after") continue;
      if (!is_punct(t[k + 1], "(")) continue;
      const std::size_t close = skip_balanced(t, k + 1, "(", ")");
      local.push_back({k + 1, close});
      if (src_file) {
        regions[f.file].push_back(
            {t[k].line, t[close < t.size() ? close - 1 : k].line});
      }
    }
    auto in_region = [&](std::size_t tok_index) {
      for (const TokRegion& r : local) {
        if (tok_index > r.begin && tok_index < r.end) return true;
      }
      return false;
    };

    // Pass 2: call sites.
    for (std::size_t k = f.body_begin + 1; k + 1 < f.body_end; ++k) {
      if (t[k].kind != TokKind::kIdent) continue;
      std::size_t arg_open = 0;
      if (is_punct(t[k + 1], "(")) {
        arg_open = k + 1;
      } else if (is_punct(t[k + 1], "<")) {
        const std::size_t after = skip_angles(t, k + 1);
        if (after < f.body_end && is_punct(t[after], "(")) arg_open = after;
      }
      if (arg_open == 0) continue;
      if (call_blocklisted(t[k].text)) continue;
      const std::size_t close = skip_balanced(t, arg_open, "(", ")");
      const int args = count_call_args(t, arg_open, close);
      std::vector<int> targets;
      const EdgeKind kind = resolve_call(idx, t, k, args, f, &targets);
      std::vector<int> target_nodes;
      for (const int id : targets) target_nodes.push_back(node_of_func_[id]);
      std::sort(target_nodes.begin(), target_nodes.end());
      target_nodes.erase(std::unique(target_nodes.begin(), target_nodes.end()),
                         target_nodes.end());
      for (const int to : target_nodes) {
        add_edge(from, to, f.file, t[k].line, kind);
        if (src_file && in_region(k)) event_roots_.insert(to);
      }
    }
  }

  // Hand-asserted edges for dynamic seams.
  for (std::size_t fidx = 0; fidx < idx.files().size(); ++fidx) {
    const SourceFile& file = idx.files()[fidx];
    for (const EdgeAnnotation& ann : file.edge_annotations) {
      if (!ann.has_reason) {
        bad_edges_.push_back({static_cast<int>(fidx), ann.line, ann.target, true});
        continue;
      }
      const int target = find_node(ann.target);
      if (target < 0) {
        bad_edges_.push_back({static_cast<int>(fidx), ann.line, ann.target, false});
        continue;
      }
      const int encl = idx.enclosing_function(static_cast<int>(fidx), ann.line);
      if (encl >= 0) {
        add_edge(node_of_func_[encl], target, static_cast<int>(fidx), ann.line,
                 EdgeKind::kAnnotated);
      }
      // Inside a scheduled callback the asserted call runs in event context,
      // so the target is an event root as well.
      for (const auto& r : regions[fidx]) {
        if (ann.line >= r.first_line && ann.line <= r.last_line) {
          event_roots_.insert(target);
          break;
        }
      }
    }
  }

  // Named roots: the dispatch loop itself and the SimNetwork
  // service/delivery surface.
  static const char* kNamedRoots[] = {
      "EventLoop::step", "SimNetwork::plan_message", "SimNetwork::admit",
      "SimNetwork::begin_service", "SimNetwork::end_service"};
  for (const char* name : kNamedRoots) {
    const int n = find_node(name);
    if (n >= 0) event_roots_.insert(n);
  }
}

std::vector<int> CallGraph::reach_from_roots(const std::set<int>& stop) const {
  std::vector<int> parent(nodes_.size(), -1);
  std::deque<int> queue;
  for (const int r : event_roots_) {
    parent[r] = -2;
    if (stop.count(r) == 0) queue.push_back(r);
  }
  while (!queue.empty()) {
    const int n = queue.front();
    queue.pop_front();
    for (const int e : out_[n]) {
      const int to = edges_[e].to;
      if (parent[to] != -1) continue;
      parent[to] = e;
      if (stop.count(to) == 0) queue.push_back(to);
    }
  }
  return parent;
}

std::string CallGraph::path_to(const std::vector<int>& parent, int node) const {
  std::vector<std::string> chain;
  int n = node;
  while (n >= 0 && chain.size() < 32) {
    chain.push_back(nodes_[n].display);
    const int e = parent[n];
    if (e == -2 || e == -1) break;
    n = edges_[e].from;
  }
  std::reverse(chain.begin(), chain.end());
  std::string out = "event-dispatch";
  for (const std::string& c : chain) {
    out += " -> " + c;
  }
  return out;
}

std::string CallGraph::to_dot(const std::set<int>& hot, const std::set<int>& sink) const {
  // Deterministic: nodes sorted by key; only nodes with at least one edge
  // (or a highlight) are emitted, keeping the dump readable on a real tree.
  std::vector<int> degree(nodes_.size(), 0);
  for (const Edge& e : edges_) {
    ++degree[e.from];
    ++degree[e.to];
  }
  std::vector<int> order(nodes_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return nodes_[a].key < nodes_[b].key; });

  std::ostringstream out;
  out << "digraph kosha_calls {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  for (const int n : order) {
    if (degree[n] == 0 && event_roots_.count(n) == 0 && hot.count(n) == 0 &&
        sink.count(n) == 0) {
      continue;
    }
    out << "  \"" << nodes_[n].key << "\" [label=\"" << nodes_[n].display << "\"";
    if (sink.count(n) > 0) out << ", style=filled, fillcolor=orange";
    else if (hot.count(n) > 0) out << ", style=filled, fillcolor=mistyrose";
    if (event_roots_.count(n) > 0) out << ", penwidth=2, color=red";
    out << "];\n";
  }
  std::vector<int> edge_order(edges_.size());
  for (std::size_t i = 0; i < edges_.size(); ++i) edge_order[i] = static_cast<int>(i);
  std::sort(edge_order.begin(), edge_order.end(), [&](int a, int b) {
    const Edge& ea = edges_[a];
    const Edge& eb = edges_[b];
    if (nodes_[ea.from].key != nodes_[eb.from].key)
      return nodes_[ea.from].key < nodes_[eb.from].key;
    return nodes_[ea.to].key < nodes_[eb.to].key;
  });
  for (const int ei : edge_order) {
    const Edge& e = edges_[ei];
    out << "  \"" << nodes_[e.from].key << "\" -> \"" << nodes_[e.to].key << "\"";
    switch (e.kind) {
      case EdgeKind::kDirect: break;
      case EdgeKind::kResolved: out << " [color=blue]"; break;
      case EdgeKind::kOverApprox: out << " [style=dashed]"; break;
      case EdgeKind::kAnnotated: out << " [color=red, penwidth=2]"; break;
    }
    out << ";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace kosha::lint
