#include "pastry/routing_table.hpp"

#include <algorithm>
#include <stdexcept>

namespace kosha::pastry {

RoutingTable::RoutingTable(NodeId owner, const PastryConfig& config)
    : owner_(owner), config_(config) {}

std::size_t RoutingTable::slot_index(unsigned row, unsigned column) const {
  return static_cast<std::size_t>(row) * config_.columns() + column;
}

const NodeId* RoutingTable::slot_for(NodeId id) const {
  const unsigned row = owner_.shared_prefix_length(id, config_.bits_per_digit);
  if (row >= depth()) return nullptr;  // unstored row, or id == owner
  return &slots_[slot_index(row, id.digit(row, config_.bits_per_digit))];
}

std::optional<NodeId> RoutingTable::entry(unsigned row, unsigned column) const {
  if (row >= config_.digits() || column >= config_.columns()) {
    throw std::out_of_range("routing table slot out of range");
  }
  if (row >= depth()) return std::nullopt;
  const NodeId slot = slots_[slot_index(row, column)];
  if (slot == owner_) return std::nullopt;
  return slot;
}

bool RoutingTable::insert(NodeId id) {
  if (id == owner_) return false;
  const unsigned row = owner_.shared_prefix_length(id, config_.bits_per_digit);
  if (row >= depth()) slots_.resize(slot_index(row + 1, 0), owner_);
  NodeId& slot = slots_[slot_index(row, id.digit(row, config_.bits_per_digit))];
  if (slot != owner_) return false;
  slot = id;
  ++populated_;
  return true;
}

bool RoutingTable::remove(NodeId id) {
  const NodeId* found = slot_for(id);
  if (found == nullptr || *found != id) return false;
  slots_[static_cast<std::size_t>(found - slots_.data())] = owner_;
  --populated_;
  // Drop trailing rows left empty, so depth() stays the deepest filled row.
  const auto empty = [&](NodeId slot) { return slot == owner_; };
  while (!slots_.empty() && std::all_of(slots_.end() - config_.columns(), slots_.end(), empty)) {
    slots_.resize(slots_.size() - config_.columns());
  }
  return true;
}

bool RoutingTable::contains(NodeId id) const {
  const NodeId* found = slot_for(id);
  return found != nullptr && *found == id;
}

std::optional<NodeId> RoutingTable::next_hop(Key key) const {
  const NodeId* found = slot_for(key);
  if (found == nullptr || *found == owner_) return std::nullopt;
  return *found;
}

std::vector<NodeId> RoutingTable::entries() const {
  std::vector<NodeId> out;
  out.reserve(populated_);
  for_each_entry([&out](NodeId id) { out.push_back(id); });
  return out;
}

}  // namespace kosha::pastry
