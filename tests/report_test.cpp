// Reporters: paper-style console output and CSV integrity.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "experiments/report.hpp"

namespace gs::exp {
namespace {

stream::SwitchMetrics make_metrics(double scale) {
  stream::SwitchMetrics m;
  m.tracked = 10;
  m.finished_s1 = 10;
  m.prepared_s2 = 10;
  m.finish_times = {4.0 * scale, 6.0 * scale};
  m.prepared_times = {8.0 * scale, 12.0 * scale};
  m.overhead_ratio = 0.012;
  for (int i = 0; i <= 10; ++i) {
    stream::TrackPoint p;
    p.time = i;
    p.undelivered_ratio_s1 = std::max(0.0, 1.0 - 0.1 * i * scale);
    p.delivered_ratio_s2 = std::min(1.0, 0.1 * i * scale);
    p.live_tracked = 10;
    m.track.push_back(p);
  }
  return m;
}

ComparisonPoint make_point(std::size_t nodes) {
  ComparisonPoint p;
  p.node_count = nodes;
  p.trials = 3;
  p.normal_switch_time = 20.0;
  p.fast_switch_time = 15.0;
  p.normal_finish_time = 8.0;
  p.fast_finish_time = 8.5;
  p.normal_overhead = 0.015;
  p.fast_overhead = 0.013;
  p.normal_tracked = p.fast_tracked = 3 * nodes;
  p.normal_prepared = p.fast_prepared = 3 * nodes;
  p.normal_finished = p.fast_finished = 3 * nodes;
  return p;
}

TEST(Report, RatioTracksPrintAllRows) {
  const auto fast = make_metrics(1.2);
  const auto normal = make_metrics(1.0);
  ::testing::internal::CaptureStdout();
  print_ratio_tracks("test tracks", fast, normal);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("test tracks"), std::string::npos);
  EXPECT_NE(out.find("undeliv_S1"), std::string::npos);
  // One row per second from 0 to the longer track's end.
  EXPECT_GE(std::count(out.begin(), out.end(), '\n'), 11);
}

TEST(Report, TimesTableHasPaperBarOrder) {
  ::testing::internal::CaptureStdout();
  print_times_table("t", {make_point(100), make_point(1000)});
  const std::string out = ::testing::internal::GetCapturedStdout();
  // The paper's left-to-right bar order.
  const auto norm_finish = out.find("finish_S1(norm)");
  const auto fast_finish = out.find("finish_S1(fast)");
  const auto fast_prepare = out.find("prepare_S2(fast)");
  const auto norm_prepare = out.find("prepare_S2(norm)");
  EXPECT_LT(norm_finish, fast_finish);
  EXPECT_LT(fast_finish, fast_prepare);
  EXPECT_LT(fast_prepare, norm_prepare);
  EXPECT_NE(out.find("100"), std::string::npos);
  EXPECT_NE(out.find("1000"), std::string::npos);
}

TEST(Report, SwitchReductionComputesRatio) {
  ::testing::internal::CaptureStdout();
  print_switch_reduction("t", {make_point(500)});
  const std::string out = ::testing::internal::GetCapturedStdout();
  // (20 - 15) / 20 = 0.25.
  EXPECT_NE(out.find("0.250"), std::string::npos);
}

TEST(Report, NoPreparedPeerPrintsNotApplicableNotZero) {
  ComparisonPoint p = make_point(300);
  p.fast_prepared = 0;
  p.fast_switch_time = 0.0;
  p.normal_prepared = 2;
  ::testing::internal::CaptureStdout();
  print_switch_reduction("t", {p});
  print_times_table("t", {p});
  print_completion("t", {p});
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(out.find(" 0.00±"), std::string::npos) << out;
  EXPECT_NE(out.find("20.00±"), std::string::npos) << "the normal side still measured";
  // Fast switch time, reduction and the fast prepare bar.
  std::size_t na = 0;
  for (std::size_t at = out.find("n/a"); at != std::string::npos; at = out.find("n/a", at + 1)) {
    ++na;
  }
  EXPECT_EQ(na, 3u) << out;
  EXPECT_NE(out.find("0/900 (0.000)"), std::string::npos) << out;
  EXPECT_NE(out.find("2/900 (0.002)"), std::string::npos) << out;
}

TEST(Report, UnpreparedSizesAreNamedAndFailTheSweep) {
  ComparisonPoint unprepared = make_point(300);
  unprepared.fast_prepared = 0;
  unprepared.normal_prepared = 2;
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(report_unprepared("prog", {make_point(100), unprepared, make_point(500)}), 1);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("prog: no tracked peer prepared S2 at 300 nodes (normal 2/900, fast "
                     "0/900); its switch time and reduction are n/a"),
            std::string::npos)
      << err;
  // Only the failing size is named.
  EXPECT_EQ(err.find(" at 100 nodes"), std::string::npos) << err;
  EXPECT_EQ(err.find(" at 500 nodes"), std::string::npos) << err;

  ::testing::internal::CaptureStderr();
  EXPECT_EQ(report_unprepared("prog", {make_point(100), make_point(500)}), 0);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(Report, OverheadPrintsBothColumns) {
  ::testing::internal::CaptureStdout();
  print_overhead("t", {make_point(500)});
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("0.013"), std::string::npos);
  EXPECT_NE(out.find("0.015"), std::string::npos);
}

TEST(Report, TracksCsvRoundTrips) {
  const auto fast = make_metrics(1.2);
  const auto normal = make_metrics(1.0);
  const std::string path = std::string(::testing::TempDir()) + "/tracks.csv";
  write_tracks_csv(path, fast, normal);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header,
            "time,undelivered_s1_normal,undelivered_s1_fast,delivered_s2_normal,"
            "delivered_s2_fast");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_GE(rows, 11u);
}

TEST(Report, ComparisonCsvHasOneRowPerPoint) {
  const std::string path = std::string(::testing::TempDir()) + "/cmp2.csv";
  write_comparison_csv(path, {make_point(100), make_point(200), make_point(400)});
  std::ifstream in(path);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 4u);  // header + 3
}

}  // namespace
}  // namespace gs::exp
