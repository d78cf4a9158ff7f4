#pragma once

// Pastry leaf set.
//
// Each node tracks the l/2 numerically closest smaller and l/2 closest
// larger node ids (with wrap-around). The leaf set delivers messages in the
// final routing step and — in Kosha — defines where the K file replicas
// live (paper §4.2).

#include <span>
#include <vector>

#include "pastry/types.hpp"

namespace kosha::pastry {

class LeafSet {
 public:
  /// `half` is l/2: the capacity of each side.
  LeafSet(NodeId owner, unsigned half);

  [[nodiscard]] NodeId owner() const { return owner_; }

  /// Offer a node id; keeps it only if it belongs among the closest on its
  /// side. Returns true if membership changed.
  bool insert(NodeId id);

  /// Remove an id if present; returns true if it was a member.
  bool remove(NodeId id);

  [[nodiscard]] bool contains(NodeId id) const;

  /// All members, smaller side then larger side, each closest-first. The
  /// view is invalidated by insert/remove: a caller that changes the leaf
  /// set while walking it copies first.
  [[nodiscard]] std::span<const NodeId> members() const { return members_; }

  /// Members sorted by ring distance from the owner, closest first.
  [[nodiscard]] std::vector<NodeId> closest_members(std::size_t k) const;

  /// Members alternating sides (closest smaller, closest larger, second
  /// smaller, ...), starting with the overall closest. Kosha places its K
  /// replicas on the first K of these: with K >= 2 both immediate ring
  /// neighbors hold a copy, so whichever node inherits a failed primary's
  /// key space already stores the data (paper §4.4).
  [[nodiscard]] std::vector<NodeId> alternating_members(std::size_t k) const;

  /// True when `key` falls inside the id range spanned by the leaf set
  /// (routing can finish here). An underfull leaf set — the node knows the
  /// whole network — covers everything.
  [[nodiscard]] bool covers(Key key) const;

  /// Numerically closest node to `key` among the owner and all members.
  [[nodiscard]] NodeId closest_to(Key key) const;

  /// The members on the smaller/larger side, closest first.
  [[nodiscard]] std::vector<NodeId> side(bool larger_side) const;

  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] bool underfull() const {
    return split_ < half_ || members_.size() - split_ < half_;
  }

 private:
  [[nodiscard]] std::span<const NodeId> smaller() const {
    return std::span<const NodeId>(members_).first(split_);
  }
  [[nodiscard]] std::span<const NodeId> larger() const {
    return std::span<const NodeId>(members_).subspan(split_);
  }

  NodeId owner_;
  unsigned half_;
  // One array: the smaller side sorted by (owner - id), then the larger
  // side sorted by (id - owner), both ascending (closest neighbor first).
  // split_ is the smaller side's length.
  std::vector<NodeId> members_;
  std::size_t split_ = 0;
};

}  // namespace kosha::pastry
