// Experiment drivers: single runs, paired fast/normal comparisons, and
// parallel sweeps over network sizes (the shape of every figure in §5).
#pragma once

#include <vector>

#include "experiments/config.hpp"
#include "stream/metrics.hpp"

namespace gs::exp {

/// Result of one simulation run.
struct RunResult {
  Config config;  ///< the exact configuration that ran
  std::vector<stream::SwitchMetrics> switches;
  stream::EngineStats stats;
  double wall_seconds = 0.0;

  /// First switch's metrics (the figures use a single switch).
  [[nodiscard]] const stream::SwitchMetrics& primary() const;
};

/// Builds and runs one engine.
[[nodiscard]] RunResult run_once(const Config& config);

/// Paired fast-vs-normal aggregate at one network size.  Each trial t runs
/// both algorithms on the *same* scenario seed (same topology, bandwidths,
/// churn schedule), so the comparison is paired; trial metrics are averaged.
struct ComparisonPoint {
  std::size_t node_count = 0;
  std::size_t trials = 0;

  double fast_switch_time = 0.0;    ///< avg preparing time of S2 (fast)
  double normal_switch_time = 0.0;  ///< avg preparing time of S2 (normal)
  double fast_finish_time = 0.0;    ///< avg finishing time of S1 (fast)
  double normal_finish_time = 0.0;  ///< avg finishing time of S1 (normal)
  double fast_overhead = 0.0;
  double normal_overhead = 0.0;
  double fast_switch_ci = 0.0;   ///< 95% CI half-width over trials
  double normal_switch_ci = 0.0;
  /// Tracked peers and those that prepared S2 / finished S1, summed over
  /// trials.  The times average the completed peers only, so a side with
  /// no prepared (finished) peer has no switch (finish) time at all — not
  /// a zero one.
  std::size_t fast_tracked = 0;
  std::size_t fast_prepared = 0;
  std::size_t fast_finished = 0;
  std::size_t normal_tracked = 0;
  std::size_t normal_prepared = 0;
  std::size_t normal_finished = 0;

  /// (normal - fast) / normal of the average switch times.
  [[nodiscard]] double reduction() const;
  /// True when both algorithms prepared at least one tracked peer, i.e.
  /// the switch times and the reduction measure something.
  [[nodiscard]] bool switched() const noexcept {
    return fast_prepared > 0 && normal_prepared > 0;
  }
};

/// Runs `trials` paired comparisons at `node_count`, in parallel on the
/// global thread pool.  `base` supplies everything but size/algorithm/seed.
[[nodiscard]] ComparisonPoint compare_at_size(const Config& base, std::size_t node_count,
                                              std::size_t trials);

/// The figure sweep: one ComparisonPoint per size (sizes as in Fig. 6-8:
/// 100, 500, 1000, 2000, 4000, 8000).
[[nodiscard]] std::vector<ComparisonPoint> sweep_sizes(const Config& base,
                                                       const std::vector<std::size_t>& sizes,
                                                       std::size_t trials);

/// The paper's size axis.
[[nodiscard]] std::vector<std::size_t> paper_sizes();

}  // namespace gs::exp
