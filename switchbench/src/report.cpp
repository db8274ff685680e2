#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace switchbench {

std::size_t samples_beyond(std::size_t n, double q) {
  // Nearest rank: the smallest sample with at least q*n samples at or below
  // it.  The epsilon keeps q*n = 990.0000000001 from rounding up a rank.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(std::max<std::size_t>(rank, 1), n);
}

std::optional<double> percentile(std::vector<double> samples, double q, std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n == 0 || !(q > 0.0) || q > 1.0) return std::nullopt;
  const std::size_t beyond = samples_beyond(n, q);
  if (beyond < min_beyond) return std::nullopt;
  const std::size_t index = n - beyond - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> ratio(double num, double base) {
  if (base == 0.0) return std::nullopt;
  return num / base;
}

namespace {

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '_' || c == '.' || c == '-';
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const char first = name.front();
  if (first == '_' || first == '.' || first == '-') return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(),
                     [](char c) { return name_char(c) || c == '/' || c == '%'; });
}

void Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (word >> (8 * i)) & 0xffU;
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

void Digest::add(const gs::stream::SwitchMetrics& m) {
  const auto add_all = [this](const std::vector<double>& values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (const double v : values) add(v);
  };
  add(static_cast<std::uint64_t>(static_cast<std::int64_t>(m.switch_index)));
  add(m.switch_time);
  add(static_cast<std::uint64_t>(m.tracked));
  add(static_cast<std::uint64_t>(m.finished_s1));
  add(static_cast<std::uint64_t>(m.prepared_s2));
  add(static_cast<std::uint64_t>(m.censored_finish));
  add(static_cast<std::uint64_t>(m.censored_prepare));
  add_all(m.finish_times);
  add_all(m.prepared_times);
  add_all(m.s2_start_times);
  add(static_cast<std::uint64_t>(m.track.size()));
  for (const gs::stream::TrackPoint& point : m.track) {
    add(point.time);
    add(point.undelivered_ratio_s1);
    add(point.delivered_ratio_s2);
    add(static_cast<std::uint64_t>(point.live_tracked));
  }
  add(m.overhead_ratio);
  add(m.control_ratio);
  add(m.data_segments);
}

std::string Digest::hex() const {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(state_));
  return text;
}

namespace {

std::string number(double value) {
  char text[32];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

}  // namespace

std::string format_line(const Metric& m) {
  std::string line =
      m.name + " " + (m.value ? number(*m.value) : std::string("n/a")) + " " + m.unit;
  if (!m.base.empty()) line += "  (base: " + m.base + ")";
  return line;
}

std::string json_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                      const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double value = m.value && std::isfinite(*m.value) ? *m.value : 0.0;
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + number(value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

}  // namespace switchbench
