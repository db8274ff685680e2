#include "trace.hpp"

#include <atomic>
#include <cstdio>

namespace switchbench {
namespace {

std::atomic<std::uint64_t> g_generation{0};

/// The calling thread's lane, tagged with the tracer it belongs to.
struct LaneSlot {
  std::uint64_t generation = 0;
  Tracer::Lane* lane = nullptr;
};
thread_local LaneSlot tl_slot;

}  // namespace

Tracer::Tracer() : origin_(Clock::now()), generation_(++g_generation) {}

Tracer::Lane& Tracer::lane() {
  if (tl_slot.generation != generation_) {
    std::lock_guard<std::mutex> lock(mutex_);
    lanes_.push_back(std::make_unique<Lane>());
    lanes_.back()->tid = static_cast<std::uint32_t>(lanes_.size());
    tl_slot = {generation_, lanes_.back().get()};
  }
  return *tl_slot.lane;
}

std::uint32_t Tracer::record(const char* name, const char* cat, Clock::time_point start,
                             Clock::time_point end, std::uint32_t parent) {
  const std::uint32_t id = next_id();
  record_as(id, name, cat, start, end, parent);
  return id;
}

void Tracer::record_as(std::uint32_t id, const char* name, const char* cat,
                       Clock::time_point start, Clock::time_point end, std::uint32_t parent) {
  lane().spans.push_back({name, cat, since_origin_ns(start),
                          std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count(),
                          id, parent});
}

ScheduleTotals Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ScheduleTotals sum;
  for (const auto& lane : lanes_) {
    sum.calls += lane->totals.calls;
    sum.busy_ns += lane->totals.busy_ns;
    sum.candidates += lane->totals.candidates;
    sum.requests += lane->totals.requests;
  }
  return sum;
}

std::size_t Tracer::lane_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lanes_.size();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", out);
  bool first = true;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& lane : lanes_) {
    for (const Span& s : lane->spans) {
      std::fprintf(out,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %u, \"parent\": %u}}",
                   first ? "" : ",\n", s.name, s.cat, lane->tid,
                   static_cast<double>(s.start_ns) / 1e3, static_cast<double>(s.dur_ns) / 1e3,
                   s.id, s.parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace switchbench
