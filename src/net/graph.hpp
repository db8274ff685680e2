// Undirected overlay graph.
//
// Adjacency is stored as per-node sorted vectors: neighbour sets are small
// (M≈5) and iterated every scheduling period by every node, so contiguous
// storage beats hash sets for both speed and determinism of iteration order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace gs::net {

using NodeId = std::uint32_t;

class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t node_count) : adjacency_(node_count) {}

  [[nodiscard]] std::size_t node_count() const noexcept { return adjacency_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }

  /// Appends a new isolated node, returning its id.
  NodeId add_node();

  /// Adds the undirected edge {u, v}.  Self-loops and duplicate edges are
  /// rejected (returns false).
  bool add_edge(NodeId u, NodeId v);

  /// Removes the undirected edge {u, v}; false if absent.
  bool remove_edge(NodeId u, NodeId v);

  /// Detaches `v` from all neighbours (the node id remains valid but
  /// isolated; ids are never reused so metrics stay keyed consistently).
  void isolate(NodeId v);

  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const;
  [[nodiscard]] std::size_t degree(NodeId v) const;

  /// Minimum degree over `nodes`; 0 for an empty set.
  [[nodiscard]] std::size_t min_degree(std::span<const NodeId> nodes) const;

  /// True if every node in `nodes` can reach the first one using only edges
  /// between nodes in `nodes`.
  [[nodiscard]] bool connected(std::span<const NodeId> nodes) const;

  /// BFS hop distances from `origin` (unreachable = SIZE_MAX).
  [[nodiscard]] std::vector<std::size_t> bfs_hops(NodeId origin) const;

  /// Heap bytes of the adjacency lists.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t total = adjacency_.capacity() * sizeof(std::vector<NodeId>);
    for (const std::vector<NodeId>& list : adjacency_) total += list.capacity() * sizeof(NodeId);
    return total;
  }

 private:
  void check_node(NodeId v) const;

  std::vector<std::vector<NodeId>> adjacency_;
  std::size_t edge_count_ = 0;
};

}  // namespace gs::net
