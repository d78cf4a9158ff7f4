#include "pastry/leaf_set.hpp"

#include <algorithm>

namespace kosha::pastry {

namespace {

/// Total order on (distance to target, id) used for "numerically closest"
/// with a deterministic tie-break.
bool closer(Key target, NodeId a, NodeId b) {
  const Uint128 da = ring_distance(a, target);
  const Uint128 db = ring_distance(b, target);
  if (da != db) return da < db;
  return a < b;
}

}  // namespace

LeafSet::LeafSet(NodeId owner, unsigned half) : owner_(owner), half_(half) {
  members_.reserve(2 * static_cast<std::size_t>(half_) + 1);  // a full set plus one insert
}

bool LeafSet::insert(NodeId id) {
  if (id == owner_) return false;
  const Uint128 down = owner_ - id;  // offset walking counter-clockwise
  const Uint128 up = id - owner_;    // offset walking clockwise
  // Assign to the nearer side (ties go to the larger side). A member's side
  // depends only on (owner, id), so a present `id` sits on this side.
  const bool larger_side = up <= down;
  auto offset_of = [&](NodeId n) { return larger_side ? n - owner_ : owner_ - n; };
  const Uint128 offset = larger_side ? up : down;

  const auto middle = members_.begin() + static_cast<std::ptrdiff_t>(split_);
  const auto begin = larger_side ? middle : members_.begin();
  const auto end = larger_side ? members_.end() : middle;
  const auto side_size = static_cast<std::size_t>(end - begin);
  // Farther than the last member of a full side: rejected without a scan.
  if (side_size >= half_ && (begin == end || offset_of(*(end - 1)) < offset)) return false;
  // Offsets on a side are distinct and ascending, so the first member not
  // closer than `id` is `id` itself when it is already a member.
  const auto pos = std::find_if(begin, end, [&](NodeId n) { return !(offset_of(n) < offset); });
  if (pos != end && *pos == id) return false;
  members_.insert(pos, id);
  if (larger_side) {
    if (side_size + 1 > half_) members_.pop_back();
  } else if (++split_ > half_) {
    members_.erase(members_.begin() + static_cast<std::ptrdiff_t>(--split_));
  }
  ++version_;
  return true;
}

bool LeafSet::remove(NodeId id) {
  const auto it = std::find(members_.begin(), members_.end(), id);
  if (it == members_.end()) return false;
  if (static_cast<std::size_t>(it - members_.begin()) < split_) --split_;
  members_.erase(it);
  ++version_;
  return true;
}

bool LeafSet::contains(NodeId id) const {
  return std::find(members_.begin(), members_.end(), id) != members_.end();
}

std::vector<NodeId> LeafSet::closest_members(std::size_t k) const {
  std::vector<NodeId> out = members_;
  std::sort(out.begin(), out.end(), [&](NodeId a, NodeId b) { return closer(owner_, a, b); });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<NodeId> LeafSet::alternating_members(std::size_t k) const {
  const auto small = smaller();
  const auto large = larger();
  std::vector<NodeId> out;
  std::size_t si = 0;
  std::size_t li = 0;
  // Start with the closer of the two immediate neighbors, then alternate.
  bool take_larger =
      !large.empty() && (small.empty() || closer(owner_, large.front(), small.front()));
  while (out.size() < k && (si < small.size() || li < large.size())) {
    if (take_larger && li < large.size()) {
      out.push_back(large[li++]);
    } else if (!take_larger && si < small.size()) {
      out.push_back(small[si++]);
    }
    take_larger = !take_larger;
    // If one side is exhausted, keep draining the other.
    if (si >= small.size()) take_larger = true;
    if (li >= large.size()) take_larger = false;
  }
  return out;
}

bool LeafSet::covers(Key key) const {
  if (underfull()) return true;  // the node knows the entire (small) network
  const NodeId leftmost = members_[split_ - 1];
  const NodeId rightmost = members_.back();
  return in_clockwise_range(key, leftmost, rightmost);
}

NodeId LeafSet::closest_to(Key key) const {
  NodeId best = owner_;
  for (const NodeId id : members_) {
    if (closer(key, id, best)) best = id;
  }
  return best;
}

std::vector<NodeId> LeafSet::side(bool larger_side) const {
  const auto s = larger_side ? larger() : smaller();
  return {s.begin(), s.end()};
}

}  // namespace kosha::pastry
