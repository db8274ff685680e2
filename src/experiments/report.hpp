// Paper-style console reporters and CSV dumps for the figure benches.
#pragma once

#include <string>
#include <vector>

#include "experiments/runner.hpp"
#include "stream/metrics.hpp"

namespace gs::exp {

/// Fig. 5 / Fig. 9: the two ratio tracks, one row per period.
void print_ratio_tracks(const std::string& title, const stream::SwitchMetrics& fast,
                        const stream::SwitchMetrics& normal);

/// Fig. 6 / Fig. 10: the four bars per size (normal finish, fast finish,
/// fast prepare, normal prepare), in the paper's left-to-right order.  A
/// bar no tracked peer completed prints "n/a".
void print_times_table(const std::string& title, const std::vector<ComparisonPoint>& points);

/// Fig. 7 / Fig. 11: average switch time per algorithm plus reduction ratio.
/// A side where no tracked peer prepared S2 prints "n/a" (as does the
/// reduction), never a zero switch time.
void print_switch_reduction(const std::string& title, const std::vector<ComparisonPoint>& points);

/// Completion per algorithm: tracked peers that prepared S2 (summed over
/// trials) and that fraction; "n/a" when nothing was tracked.
void print_completion(const std::string& title, const std::vector<ComparisonPoint>& points);

/// Fig. 8 / Fig. 12: communication overhead per algorithm.
void print_overhead(const std::string& title, const std::vector<ComparisonPoint>& points);

/// Optional CSV dumps (one row per size / per track point).
void write_comparison_csv(const std::string& path, const std::vector<ComparisonPoint>& points);
void write_tracks_csv(const std::string& path, const stream::SwitchMetrics& fast,
                      const stream::SwitchMetrics& normal);

}  // namespace gs::exp
