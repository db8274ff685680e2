// Pairwise link latency derived from per-node crawl ping times.
//
// Crawl records carry one RTT per node (crawler -> peer).  Following common
// practice for reconstructing pairwise delay from single-point pings, the
// one-way latency of link (u, v) is modelled as half of each node's
// crawler RTT contribution: (ping_u + ping_v) / 4 one-way (i.e. the peers
// sit "behind" their measured access delay).  A multiplicative jitter keeps
// ties broken realistically.
#pragma once

#include <vector>

#include "net/graph.hpp"
#include "util/rng.hpp"

namespace gs::net {

class LatencyModel {
 public:
  LatencyModel() = default;

  /// Builds from per-node ping milliseconds.
  explicit LatencyModel(std::vector<double> ping_ms) : ping_ms_(std::move(ping_ms)) {}

  [[nodiscard]] std::size_t node_count() const noexcept { return ping_ms_.size(); }

  /// Registers an additional node (joiners under churn).
  void add_node(double ping_ms) { ping_ms_.push_back(ping_ms); }

  [[nodiscard]] double ping_ms(NodeId v) const;

  /// Deterministic one-way delay of link (u, v), in seconds.
  [[nodiscard]] double link_delay_s(NodeId u, NodeId v) const;

  /// link_delay_s with +-20% multiplicative jitter from `rng`.
  [[nodiscard]] double jittered_delay_s(NodeId u, NodeId v, util::Rng& rng) const;

  /// Heap bytes of the per-node ping table.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return ping_ms_.capacity() * sizeof(double);
  }

 private:
  std::vector<double> ping_ms_;
};

}  // namespace gs::net
