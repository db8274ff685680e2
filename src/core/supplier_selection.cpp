#include "core/supplier_selection.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace gs::core {

std::vector<Assignment> greedy_assign(const stream::ScheduleContext& ctx,
                                      const std::vector<stream::CandidateSegment>& candidates,
                                      const std::vector<double>& priorities) {
  GS_CHECK_EQ(candidates.size(), priorities.size());
  std::vector<Assignment> accepted;
  accepted.reserve(candidates.size());
  // tau(j): local queueing bookkeeping, one (node, queued time) pair per
  // supplier chosen so far.  A candidate's suppliers are the peer's handful
  // of alive neighbours, so a linear scan beats hashing.
  std::vector<std::pair<net::NodeId, double>> queue_time;
  const auto queued_entry = [&queue_time](net::NodeId node) {
    return std::find_if(queue_time.begin(), queue_time.end(),
                        [node](const auto& entry) { return entry.first == node; });
  };

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const stream::CandidateSegment& c = candidates[i];
    double best_time = std::numeric_limits<double>::infinity();
    const stream::SupplierView* best = nullptr;
    for (const stream::SupplierView& s : c.suppliers) {
      if (s.send_rate <= 0.0) continue;
      const double transfer = 1.0 / s.send_rate;
      const auto it = queued_entry(s.node);
      const double queued = (it == queue_time.end() ? s.queue_delay : it->second);
      const double t = queued + transfer;
      // Paper line 13: accept only suppliers delivering within the period.
      if (t < best_time && t < ctx.period) {
        best_time = t;
        best = &s;
      }
    }
    if (best == nullptr) continue;
    // paper line 18
    if (const auto it = queued_entry(best->node); it != queue_time.end()) {
      it->second = best_time;
    } else {
      queue_time.emplace_back(best->node, best_time);
    }
    Assignment a;
    a.id = c.id;
    a.supplier = best->node;
    a.epoch = c.epoch;
    a.expected_time = best_time;
    a.priority = priorities[i];
    accepted.push_back(a);
  }
  return accepted;
}

}  // namespace gs::core
