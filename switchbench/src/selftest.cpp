// Self-tests for the benchmark's own arithmetic (report.hpp,
// calibrate.hpp): the percentile sample rule, the metric-name and unit
// charsets, digest stability, n/a handling and the host-speed factor.
// Exit status 0 when every check holds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "report.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);  // 1, 2, ..., n
  return values;
}

gs::stream::SwitchMetrics sample_metrics() {
  gs::stream::SwitchMetrics m;
  m.switch_index = 1;
  m.switch_time = 25.0;
  m.tracked = 3;
  m.finished_s1 = 2;
  m.prepared_s2 = 2;
  m.censored_finish = 1;
  m.censored_prepare = 1;
  m.finish_times = {10.5, 12.25};
  m.prepared_times = {9.0, 11.125};
  m.s2_start_times = {9.5, 11.5};
  m.track = {{0.0, 1.0, 0.0, 3}, {1.0, 0.5, 0.25, 3}};
  m.overhead_ratio = 0.0125;
  m.control_ratio = 0.02;
  m.data_segments = 4242;
  return m;
}

void test_percentile_rule() {
  using switchbench::percentile;
  // p99 needs ten samples strictly above its rank: n = 1000 is the first.
  expect(switchbench::samples_beyond(1000, 0.99) == 10, "10 of 1000 lie beyond p99");
  expect(switchbench::samples_beyond(999, 0.99) == 9, "9 of 999 lie beyond p99");
  expect(percentile(ramp(1000), 0.99).value_or(-1) == 990.0, "p99 of 1..1000 is 990");
  expect(!percentile(ramp(999), 0.99).has_value(), "p99 undefined at n = 999");
  expect(percentile(ramp(20), 0.50).value_or(-1) == 10.0, "p50 of 1..20 is 10");
  expect(!percentile(ramp(19), 0.50).has_value(), "p50 undefined at n = 19");
  expect(!percentile({}, 0.50).has_value(), "no percentile of nothing");
  // Order of the input does not matter.
  std::vector<double> shuffled = ramp(1000);
  std::reverse(shuffled.begin(), shuffled.end());
  expect(percentile(shuffled, 0.99).value_or(-1) == 990.0, "p99 ignores input order");
  expect(percentile(ramp(1), 1.0, 0).value_or(-1) == 1.0, "max with no tail rule");
  expect(switchbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(switchbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
}

void test_names() {
  using switchbench::valid_metric_name;
  using switchbench::valid_unit;
  expect(valid_metric_name("switch_p99_s"), "switch_p99_s is a name");
  expect(valid_metric_name("core.request_yield"), "dotted names are names");
  expect(valid_metric_name("9-lives"), "a name may start with a digit");
  expect(!valid_metric_name(""), "empty name");
  expect(!valid_metric_name("_hidden"), "leading underscore");
  expect(!valid_metric_name(".dot"), "leading dot");
  expect(!valid_metric_name("has space"), "space in a name");
  expect(!valid_metric_name("json\"quote"), "quote in a name");
  expect(valid_metric_name(std::string(64, 'a')), "64 letters is a name");
  expect(!valid_metric_name(std::string(65, 'a')), "65 letters is too long");
  expect(valid_unit("ms") && valid_unit("1/s") && valid_unit("%") && valid_unit("count"),
         "common units");
  expect(!valid_unit("") && !valid_unit("m s") && !valid_unit(std::string(17, 's')),
         "bad units");
}

void test_digest() {
  switchbench::Digest a;
  a.add(sample_metrics());
  switchbench::Digest b;
  b.add(sample_metrics());
  expect(a.hex() == b.hex(), "equal metrics hash equally");
  expect(a.hex().size() == 16, "16 hex digits");
  // A fixed input has a fixed digest: the reference file depends on it.
  expect(a.hex() == "4359dec768b4340e", "digest of the sample is stable");

  gs::stream::SwitchMetrics changed = sample_metrics();
  changed.prepared_times[1] = std::nextafter(changed.prepared_times[1], 100.0);
  switchbench::Digest c;
  c.add(changed);
  expect(c.hex() != a.hex(), "one ulp in one time changes the digest");

  gs::stream::SwitchMetrics moved = sample_metrics();
  moved.finish_times.push_back(moved.prepared_times.front());
  moved.prepared_times.erase(moved.prepared_times.begin());
  switchbench::Digest d;
  d.add(moved);
  expect(d.hex() != a.hex(), "moving a sample between vectors changes the digest");

  switchbench::Digest e;
  e.add(sample_metrics());
  e.add(changed);
  switchbench::Digest f;
  f.add(changed);
  f.add(sample_metrics());
  expect(e.hex() != f.hex(), "engine order matters");
}

void test_not_available() {
  using switchbench::Metric;
  expect(!switchbench::ratio(5.0, 0.0).has_value(), "x / 0 is n/a");
  expect(!switchbench::ratio(0.0, 0.0).has_value(), "0 / 0 is n/a");
  expect(switchbench::ratio(3.0, 4.0).value_or(-1) == 0.75, "3 / 4");
  const Metric missing{"stream.probes_per_plan", "count", std::nullopt, "stream.plans_built = 0"};
  expect(switchbench::format_line(missing) ==
             "stream.probes_per_plan n/a count  (base: stream.plans_built = 0)",
         "n/a prints as n/a with its base");
  const std::string json = switchbench::json_line(
      true, 7, 1, {missing, {"run_s", "s", 1.5, ""}});
  expect(json ==
             "{\"correct\": true, \"attempted\": 7, \"failed\": 1, \"metrics\": "
             "{\"stream.probes_per_plan\": {\"value\": 0, \"unit\": \"count\"}, "
             "\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}}}",
         "json line: n/a goes in as 0");
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * std::abs(b); }

void test_speed_factor() {
  using switchbench::kNominalLoadNs;
  using switchbench::kNominalSliceS;
  using switchbench::speed_factor;
  expect(near(speed_factor(kNominalSliceS, kNominalSliceS, kNominalLoadNs), 1.0),
         "the nominal host has speed 1");
  expect(near(speed_factor(2 * kNominalSliceS, 2 * kNominalSliceS, 2 * kNominalLoadNs), 0.5),
         "a host half as fast on both probes has speed 1/2");
  expect(near(speed_factor(kNominalSliceS, kNominalSliceS, 4 * kNominalLoadNs), 0.5),
         "the probes combine as a geometric mean");
  expect(near(speed_factor(0.5 * kNominalSliceS, 1.5 * kNominalSliceS, kNominalLoadNs), 1.0),
         "the two bracketing slices are averaged");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_names();
  test_digest();
  test_not_available();
  test_speed_factor();
  if (g_failures == 0) std::printf("switchbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
