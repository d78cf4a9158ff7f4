#pragma once

// Pastry routing table: digits() rows of columns() entries.
//
// Row r holds nodes whose ids share exactly r leading digits with the
// owner; the column is the (r+1)-th digit of the stored node's id. Prefix
// routing resolves a key in O(log N) hops by fixing one digit per step.
//
// Storage is flat and only as deep as it is filled: in an N-node overlay
// just the first ~log16(N) rows ever hold anything, so rows past the
// deepest populated one are not stored and read as empty. An empty slot
// holds the owner's own id, which is never a legal entry.

#include <optional>
#include <vector>

#include "pastry/types.hpp"

namespace kosha::pastry {

class RoutingTable {
 public:
  RoutingTable(NodeId owner, const PastryConfig& config);

  [[nodiscard]] NodeId owner() const { return owner_; }

  /// Entry at (row, column); nullopt when empty. Throws std::out_of_range
  /// when row >= digits() or column >= columns().
  [[nodiscard]] std::optional<NodeId> entry(unsigned row, unsigned column) const;

  /// Offer a node id; stored if its slot is empty. Returns true if stored.
  /// (Proximity-based slot replacement is not modeled — the simulated LAN
  /// has uniform latency, so all candidates are equally good.)
  bool insert(NodeId id);

  /// Remove a (failed) node wherever it appears.
  bool remove(NodeId id);

  [[nodiscard]] bool contains(NodeId id) const;

  /// The entry prefix-routing would forward a message for `key` to:
  /// row = shared prefix length, column = next digit of the key.
  [[nodiscard]] std::optional<NodeId> next_hop(Key key) const;

  /// All populated entries, row-major.
  [[nodiscard]] std::vector<NodeId> entries() const;

  /// Call `visit(id)` for every populated entry, row-major: entries()
  /// without building a vector. `visit` must not change this table.
  template <typename Visit>
  void for_each_entry(Visit&& visit) const {
    for (const NodeId slot : slots_) {
      if (slot != owner_) visit(slot);
    }
  }

  [[nodiscard]] std::size_t size() const { return populated_; }

  /// Rows currently stored: one past the deepest populated row.
  [[nodiscard]] unsigned depth() const {
    return static_cast<unsigned>(slots_.size() / config_.columns());
  }

 private:
  [[nodiscard]] std::size_t slot_index(unsigned row, unsigned column) const;
  /// The stored slot for `id`'s position, or nullptr when its row is not
  /// stored (or `id` is the owner).
  [[nodiscard]] const NodeId* slot_for(NodeId id) const;

  NodeId owner_;
  PastryConfig config_;
  std::vector<NodeId> slots_;  // depth() x columns(), row-major; owner_ = empty
  std::size_t populated_ = 0;
};

}  // namespace kosha::pastry
