#include "stream/peer_pool.hpp"

#include <type_traits>

namespace gs::stream {

void PeerPool::resize(std::size_t n) {
  is_source_.resize(n, 0);
  alive_.resize(n, 1);
  sw_finished_.resize(n, 0);
  sw_prepared_.resize(n, 0);
  tracked_.resize(n, 0);
  gate_armed_.resize(n, 0);
  // Work lane defaults to "has work" so peers never get gated before the
  // availability plane builds their view.
  has_work_.resize(n, 1);
  strategy_.resize(n, 0);
  inbound_rate_.resize(n, 0.0);
  outbound_rate_.resize(n, 0.0);
  in_budget_.resize(n);
  start_id_.resize(n, 0);
  sw_lo_.resize(n, 0);
  start_run_.resize(n, 0);
  q1_missing_.resize(n, 0);
  q2_missing_.resize(n, 0);
  q0_at_switch_.resize(n, 0);
  known_boundary_.resize(n, -1);
  active_switch_.resize(n, -1);
}

std::size_t PeerPool::memory_bytes() const noexcept {
  std::size_t total = 0;
  const auto count = [&total](const auto& v) {
    using T = typename std::decay_t<decltype(v)>::value_type;
    total += v.capacity() * sizeof(T);
  };
  count(is_source_);
  count(alive_);
  count(sw_finished_);
  count(sw_prepared_);
  count(tracked_);
  count(gate_armed_);
  count(has_work_);
  count(strategy_);
  count(inbound_rate_);
  count(outbound_rate_);
  count(in_budget_);
  count(start_id_);
  count(sw_lo_);
  count(start_run_);
  count(q1_missing_);
  count(q2_missing_);
  count(q0_at_switch_);
  count(known_boundary_);
  count(active_switch_);
  return total;
}

}  // namespace gs::stream
