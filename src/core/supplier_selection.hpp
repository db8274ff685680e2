// Greedy supplier selection — Step 1 of the paper's Algorithm 1.
//
// Candidates arrive in descending priority order.  For each, pick the
// supplier with the earliest expected receive time (its accumulated local
// queueing time tau(j) plus the transfer time 1/R(j)); accept only if that
// time stays within the scheduling period.  The chosen supplier's queueing
// time is advanced, so later (lower-priority) segments see the backlog.
// The general assignment problem is NP-hard (parallel machine scheduling);
// this greedy keeps high-priority segments earliest, as in the paper.
#pragma once

#include <vector>

#include "stream/scheduler.hpp"

namespace gs::core {

/// One accepted assignment, in input (priority) order.
struct Assignment {
  stream::SegmentId id = stream::kNoSegment;
  net::NodeId supplier = 0;
  stream::StreamEpoch epoch = stream::StreamEpoch::kOld;
  /// Expected receive time within the period (tau(j) + 1/R(j)).
  double expected_time = 0.0;
  /// Priority the caller sorted by (carried through for later stages).
  double priority = 0.0;
};

/// Runs the greedy over `candidates` (already sorted by descending
/// priority, with `priorities[i]` the priority of `candidates[i]`).
/// Segments whose best supplier cannot deliver within `ctx.period` are
/// skipped.  Initial per-supplier queueing times are zero (the paper's
/// initialisation) plus any SupplierView::queue_delay.
[[nodiscard]] std::vector<Assignment> greedy_assign(
    const stream::ScheduleContext& ctx, const std::vector<stream::CandidateSegment>& candidates,
    const std::vector<double>& priorities);

}  // namespace gs::core
