// Spans and per-lane counters for the benchmark's traced run.
//
// The engine's plan phase calls the strategy from up to `parallel_shards`
// pool lanes at once, so each thread accumulates into its own Lane (found
// through a thread_local pointer, registered once under a mutex) and the
// lanes are summed only after Engine::run() has returned and every lane is
// idle.  Nothing on the per-call path touches memory another lane writes.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace switchbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  const char* cat = "";
  std::int64_t start_ns = 0;  ///< since the tracer's origin
  std::int64_t dur_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
};

/// Sums of the strategy-boundary counters.
struct ScheduleTotals {
  std::uint64_t calls = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t candidates = 0;
  std::uint64_t requests = 0;
};

class Tracer {
 public:
  /// Schedule spans kept per lane for the trace file; the counters above
  /// cover every call, the file only a prefix.
  static constexpr std::size_t kScheduleSpansPerLane = 2048;

  struct Lane {
    ScheduleTotals totals;
    std::vector<Span> spans;
    std::uint32_t tid = 0;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The calling thread's lane.
  Lane& lane();

  /// Records a span on the calling thread's lane and returns its id.
  std::uint32_t record(const char* name, const char* cat, Clock::time_point start,
                       Clock::time_point end, std::uint32_t parent);
  /// Reserves a span id (for a parent whose end is not known yet).
  std::uint32_t next_id() { return ++last_id_; }
  /// Records a span under an id from next_id().
  void record_as(std::uint32_t id, const char* name, const char* cat, Clock::time_point start,
                 Clock::time_point end, std::uint32_t parent);

  /// Parent id stamped on schedule spans; set between engine runs only.
  void set_schedule_parent(std::uint32_t id) { schedule_parent_ = id; }
  [[nodiscard]] std::uint32_t schedule_parent() const { return schedule_parent_; }

  [[nodiscard]] std::int64_t since_origin_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  /// Lane sums.  Call only while no lane is inside a schedule call.
  [[nodiscard]] ScheduleTotals totals() const;
  [[nodiscard]] std::size_t lane_count() const;

  /// Writes every kept span as Chrome trace-event JSON; false on I/O error.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::uint64_t generation_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;  ///< guarded by mutex_ on registration
  std::uint32_t last_id_ = 0;                 ///< main thread only
  std::uint32_t schedule_parent_ = 0;
};

}  // namespace switchbench
