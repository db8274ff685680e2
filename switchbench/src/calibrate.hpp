// Host-speed calibration.  The development and check hosts share their
// cores, caches and memory with other tenants, and the speed a process
// sees drifts by up to 2x over minutes, most in memory-bound code.  Two
// probes, both independent of the library, measure the host while a
// workload runs:
//
//  - a calibration slice: a fixed kernel shaped like the simulator's hot
//    loops (buffer-map probes over neighbours, a candidate sort, an event
//    heap), timed on the driving thread before and after every engine;
//  - a load probe: a background thread that times a burst of 5000
//    dependent random loads over a buffer larger than the L2 every 50 ms,
//    throughout the engine's run (about 2 % of one CPU).
//
// Both probes, and the run time they scale, are CPU time, not wall time:
// the guest kernel leaves time the hypervisor stole from a CPU out of a
// thread's CPU time.  On the development host the sharded workload had
// runs 1.6x slower in wall time while neither probe moved; in CPU time the
// same kind of run was 1.16x slower.
//
// An engine's host seconds times its speed factor are its seconds on the
// nominal host, the one where a slice takes kNominalSliceS and a probed
// load kNominalLoadNs.  The factor is the geometric mean of the two
// probes' ratios: on series recorded on the development host it left the
// smallest worst-case spread of either probe alone and the other
// weightings tried (switchbench/README.md, "Host speed").
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace switchbench {

/// The nominal host.  Only scales the reported figures; any fixed values
/// would do.
inline constexpr double kNominalSliceS = 0.1;
inline constexpr double kNominalLoadNs = 250.0;

/// CPU seconds this thread, and this process, have run so far.
[[nodiscard]] double thread_cpu_s();
[[nodiscard]] double process_cpu_s();

/// Runs one calibration slice (about 0.1 s) and returns its CPU seconds.
/// The input is fixed, so every slice does the same work on every run.
[[nodiscard]] double calibration_slice();

/// Background thread timing (in CPU time) dependent random loads over a
/// 16 MB cycle.
/// Started by the constructor, stopped and joined by the destructor.
class LoadProbe {
 public:
  /// Running totals; the mean load time between two marks is the
  /// difference of their sums over the difference of their counts.
  struct Mark {
    double ns = 0.0;
    std::uint64_t loads = 0;
    double cpu_s = 0.0;  ///< the probe thread's own CPU time
  };

  LoadProbe();
  ~LoadProbe();
  LoadProbe(const LoadProbe&) = delete;
  LoadProbe& operator=(const LoadProbe&) = delete;

  [[nodiscard]] Mark mark() const;
  /// Mean ns per load between two marks; the latest burst's when no burst
  /// ended in between.
  [[nodiscard]] double mean_load_ns(const Mark& from, const Mark& to) const;

 private:
  void loop();

  std::vector<std::uint32_t> next_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mutex_;
  Mark totals_;            ///< guarded by mutex_
  double last_ns_ = 0.0;   ///< ns per load of the latest burst; guarded by mutex_
  std::thread thread_;     ///< last member: starts after the rest is built
};

/// Speed factor of an engine bracketed by two slices, during which the
/// probe measured `load_ns` per load.
[[nodiscard]] double speed_factor(double slice_before_s, double slice_after_s, double load_ns);

}  // namespace switchbench
