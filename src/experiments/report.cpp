#include "experiments/report.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "util/csv.hpp"

namespace gs::exp {
namespace {

void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Looks up the track point nearest to `time` (tracks are sampled per
/// period, but completion can end them early).
double track_value_at(const std::vector<stream::TrackPoint>& track, double time, bool delivered) {
  if (track.empty()) return delivered ? 1.0 : 0.0;
  const stream::TrackPoint* best = &track.front();
  for (const auto& point : track) {
    if (std::abs(point.time - time) < std::abs(best->time - time)) best = &point;
  }
  if (time > track.back().time + 0.5) {
    // Past the recorded window: the switch completed.
    return delivered ? 1.0 : 0.0;
  }
  return delivered ? best->delivered_ratio_s2 : best->undelivered_ratio_s1;
}

/// A switch-time cell: "mean±ci", or "n/a" when no peer prepared.
std::string switch_cell(std::size_t prepared, double mean, double ci) {
  char cell[48];
  if (prepared == 0) {
    // 19 columns: the width "%14.2f±%4.2f" shows ("±" is one column).
    std::snprintf(cell, sizeof(cell), "%19s", "n/a");
  } else {
    std::snprintf(cell, sizeof(cell), "%14.2f±%4.2f", mean, ci);
  }
  return cell;
}

/// A finish- or prepare-time bar, or "n/a" when no peer completed it.
std::string time_cell(std::size_t completed, double mean) {
  char cell[32];
  if (completed == 0) {
    std::snprintf(cell, sizeof(cell), "%18s", "n/a");
  } else {
    std::snprintf(cell, sizeof(cell), "%18.2f", mean);
  }
  return cell;
}

/// "prepared/tracked (fraction)", or "n/a" when nothing was tracked.
std::string completion_cell(std::size_t prepared, std::size_t tracked) {
  char cell[48];
  if (tracked == 0) {
    std::snprintf(cell, sizeof(cell), "%22s", "n/a");
  } else {
    char counts[32];
    std::snprintf(counts, sizeof(counts), "%zu/%zu", prepared, tracked);
    std::snprintf(cell, sizeof(cell), "%14s (%5.3f)", counts,
                  static_cast<double>(prepared) / static_cast<double>(tracked));
  }
  return cell;
}

}  // namespace

void print_ratio_tracks(const std::string& title, const stream::SwitchMetrics& fast,
                        const stream::SwitchMetrics& normal) {
  print_header(title);
  const double end = std::max(fast.track.empty() ? 0.0 : fast.track.back().time,
                              normal.track.empty() ? 0.0 : normal.track.back().time);
  std::printf("%8s  %18s  %18s  %18s  %18s\n", "time(s)", "undeliv_S1(norm)",
              "undeliv_S1(fast)", "deliv_S2(norm)", "deliv_S2(fast)");
  for (double t = 0.0; t <= end + 0.5; t += 1.0) {
    std::printf("%8.1f  %18.4f  %18.4f  %18.4f  %18.4f\n", t,
                track_value_at(normal.track, t, false), track_value_at(fast.track, t, false),
                track_value_at(normal.track, t, true), track_value_at(fast.track, t, true));
  }
}

void print_times_table(const std::string& title, const std::vector<ComparisonPoint>& points) {
  print_header(title);
  std::printf("%8s  %18s  %18s  %18s  %18s\n", "nodes", "finish_S1(norm)", "finish_S1(fast)",
              "prepare_S2(fast)", "prepare_S2(norm)");
  for (const auto& p : points) {
    std::printf("%8zu  %s  %s  %s  %s\n", p.node_count,
                time_cell(p.normal_finished, p.normal_finish_time).c_str(),
                time_cell(p.fast_finished, p.fast_finish_time).c_str(),
                time_cell(p.fast_prepared, p.fast_switch_time).c_str(),
                time_cell(p.normal_prepared, p.normal_switch_time).c_str());
  }
}

void print_switch_reduction(const std::string& title,
                            const std::vector<ComparisonPoint>& points) {
  print_header(title);
  std::printf("%8s  %20s  %20s  %12s\n", "nodes", "switch_time(normal)", "switch_time(fast)",
              "reduction");
  for (const auto& p : points) {
    char reduction[32];
    if (p.switched()) {
      std::snprintf(reduction, sizeof(reduction), "%12.3f", p.reduction());
    } else {
      std::snprintf(reduction, sizeof(reduction), "%12s", "n/a");
    }
    std::printf("%8zu  %s  %s  %s\n", p.node_count,
                switch_cell(p.normal_prepared, p.normal_switch_time, p.normal_switch_ci).c_str(),
                switch_cell(p.fast_prepared, p.fast_switch_time, p.fast_switch_ci).c_str(),
                reduction);
  }
}

void print_completion(const std::string& title, const std::vector<ComparisonPoint>& points) {
  print_header(title);
  std::printf("%8s  %22s  %22s\n", "nodes", "prepared(normal)", "prepared(fast)");
  for (const auto& p : points) {
    std::printf("%8zu  %s  %s\n", p.node_count,
                completion_cell(p.normal_prepared, p.normal_tracked).c_str(),
                completion_cell(p.fast_prepared, p.fast_tracked).c_str());
  }
}

int report_unprepared(const std::string& program, const std::vector<ComparisonPoint>& points) {
  int status = 0;
  for (const auto& p : points) {
    if (p.switched()) continue;
    std::fprintf(stderr,
                 "%s: no tracked peer prepared S2 at %zu nodes (normal %zu/%zu, fast %zu/%zu); "
                 "its switch time and reduction are n/a\n",
                 program.c_str(), p.node_count, p.normal_prepared, p.normal_tracked,
                 p.fast_prepared, p.fast_tracked);
    status = 1;
  }
  return status;
}

void print_overhead(const std::string& title, const std::vector<ComparisonPoint>& points) {
  print_header(title);
  std::printf("%8s  %18s  %18s\n", "nodes", "overhead(fast)", "overhead(normal)");
  for (const auto& p : points) {
    std::printf("%8zu  %18.5f  %18.5f\n", p.node_count, p.fast_overhead, p.normal_overhead);
  }
}

void write_comparison_csv(const std::string& path, const std::vector<ComparisonPoint>& points) {
  util::CsvWriter csv(path);
  csv.write_row({"nodes", "trials", "normal_switch_time", "fast_switch_time",
                 "normal_finish_time", "fast_finish_time", "normal_overhead", "fast_overhead",
                 "reduction"});
  for (const auto& p : points) {
    csv.write_row({std::to_string(p.node_count), std::to_string(p.trials),
                   std::to_string(p.normal_switch_time), std::to_string(p.fast_switch_time),
                   std::to_string(p.normal_finish_time), std::to_string(p.fast_finish_time),
                   std::to_string(p.normal_overhead), std::to_string(p.fast_overhead),
                   std::to_string(p.reduction())});
  }
}

void write_tracks_csv(const std::string& path, const stream::SwitchMetrics& fast,
                      const stream::SwitchMetrics& normal) {
  util::CsvWriter csv(path);
  csv.write_row({"time", "undelivered_s1_normal", "undelivered_s1_fast", "delivered_s2_normal",
                 "delivered_s2_fast"});
  const double end = std::max(fast.track.empty() ? 0.0 : fast.track.back().time,
                              normal.track.empty() ? 0.0 : normal.track.back().time);
  for (double t = 0.0; t <= end + 0.5; t += 1.0) {
    csv.write_row({std::to_string(t), std::to_string(track_value_at(normal.track, t, false)),
                   std::to_string(track_value_at(fast.track, t, false)),
                   std::to_string(track_value_at(normal.track, t, true)),
                   std::to_string(track_value_at(fast.track, t, true))});
  }
}

}  // namespace gs::exp
