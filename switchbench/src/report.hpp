// The benchmark's own arithmetic: percentiles with a sample-count rule,
// ratios that know their base, the output digest and the metric record
// printed as text and as the final JSON line.  Kept apart from main.cpp
// so switchbench_selftest can check it without running a simulation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "stream/metrics.hpp"

namespace switchbench {

/// Samples that must lie strictly above a percentile's rank before it is
/// reported: a tail figure backed by fewer points is noise.
inline constexpr std::size_t kMinBeyond = 10;

/// Samples ranked strictly above the nearest-rank q-quantile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// Nearest-rank q-quantile (q in (0, 1]) of `samples`, or nullopt when
/// fewer than `min_beyond` samples rank above it (p99 needs n >= 1000).
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples, double q,
                                               std::size_t min_beyond = kMinBeyond);

/// Median of a non-empty sample (mean of the middle pair for even n).
[[nodiscard]] double median(std::vector<double> samples);

/// num / base, or nullopt when the base is zero (the layer did no work).
[[nodiscard]] std::optional<double> ratio(double num, double base);

/// A metric name: starts with a letter or digit, at most 64 of
/// [A-Za-z0-9_.-].
[[nodiscard]] bool valid_metric_name(std::string_view name);
/// A unit: 1 to 16 of [A-Za-z0-9_/%.-].
[[nodiscard]] bool valid_unit(std::string_view unit);

/// FNV-1a over the exact bit patterns of every SwitchMetrics field, in
/// declaration order, vectors length-prefixed.
class Digest {
 public:
  void add(const gs::stream::SwitchMetrics& m);
  /// 16 lower-case hex digits.
  [[nodiscard]] std::string hex() const;

 private:
  void add(std::uint64_t word);
  void add(double value);

  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// One printed metric.  An absent value prints as "n/a" and goes into the
/// JSON line as 0 (JSON has no n/a); `base` names the denominator of a
/// ratio so every ratio is printed with what it was divided by.
struct Metric {
  std::string name;
  std::string unit;
  std::optional<double> value;
  std::string base;
};

/// "name value unit [(base)]" with the value at full precision, or n/a.
[[nodiscard]] std::string format_line(const Metric& m);

/// The benchmark's last stdout line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}.
[[nodiscard]] std::string json_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                                    const std::vector<Metric>& metrics);

}  // namespace switchbench
