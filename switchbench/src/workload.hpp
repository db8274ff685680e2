// The benchmark's workloads and the code that drives one repetition of a
// workload through the library's public API: exp::build_scenario,
// exp::make_strategy, the stream::Engine constructor, set_sources and
// run(), then stats() and overhead().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "calibrate.hpp"
#include "experiments/config.hpp"
#include "stream/engine.hpp"
#include "stream/metrics.hpp"
#include "trace.hpp"

namespace switchbench {

/// Independent scenarios per repetition.  Simulated metrics pool over
/// them, so one run's figures do not hinge on a single topology and source
/// placement.  scale_sharded runs only the first (see make_workload).
inline constexpr std::uint64_t kTrials = 2;

struct WorkloadSpec {
  std::string name;
  /// Engines run one after another, in this order, kTrials scenarios each
  /// (scale_sharded: one).
  /// Fast-algorithm engines supply the switch metrics; paper_static adds a
  /// normal-algorithm engine on each scenario for the reduction ratio.
  std::vector<gs::exp::Config> engines;
};

/// The workload's configurations for `seed`.  `shards` >= 0 overrides
/// parallel_shards (reference capture runs the sharded workload at 0).
[[nodiscard]] std::optional<WorkloadSpec> make_workload(std::string_view name, std::uint64_t seed,
                                                        int shards = -1);

/// Host times and outputs of one engine of one repetition.
struct EngineRun {
  double scenario_s = 0.0;    ///< build_scenario
  double ctor_s = 0.0;        ///< Engine constructor + set_sources
  double first_plan_s = 0.0;  ///< run() entry to the first schedule call
  double setup_s = 0.0;       ///< build_scenario to the first schedule call
  double run_s = 0.0;         ///< first schedule call to run() returning
  double run_cpu_s = 0.0;     ///< CPU seconds of the engine's threads over run_s
  double load_ns = 0.0;       ///< mean probed load time over the engine (0: no probe)
  /// Host-speed factor from the calibration slices around this engine and
  /// the load probe (calibrate.hpp); host seconds times it are
  /// nominal-host seconds.
  double speed = 1.0;
  std::vector<gs::stream::SwitchMetrics> switches;
  gs::stream::EngineStats stats;
  std::uint64_t map_bits = 0;
  std::uint64_t request_bits = 0;
  std::uint64_t data_bits = 0;
  std::uint64_t membership_bits = 0;
  std::size_t lanes = 1;     ///< plan lanes (parallel_shards, or 1)
  ScheduleTotals schedule;   ///< strategy-boundary counters (traced only)
};

/// One pass over the workload's engines.
struct Repetition {
  std::vector<EngineRun> engines;
  std::string digest;  ///< over every SwitchMetrics of every engine
  bool traced = false;
  /// Calibration slice times, one before each engine and one after the last.
  std::vector<double> calibration_s;
  /// Host seconds, summed over the engines.
  [[nodiscard]] double setup_s() const;
  [[nodiscard]] double run_s() const;
  /// At the nominal host speed (calibrate.hpp), summed over the engines:
  /// set-up wall seconds, and the CPU seconds of the run.
  [[nodiscard]] double nominal_setup_s() const;
  [[nodiscard]] double nominal_run_s() const;
};

/// Runs every engine of `spec` once, with a calibration slice before each
/// and after the last.  With a probe, reads its load time over each engine
/// and fills EngineRun::speed.  With a tracer, records spans around the
/// public calls and each schedule call, and fills EngineRun::schedule.
[[nodiscard]] Repetition run_repetition(const WorkloadSpec& spec, Tracer* tracer,
                                        const LoadProbe* load_probe);

}  // namespace switchbench
