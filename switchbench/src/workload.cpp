#include "workload.hpp"

#include <atomic>
#include <memory>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <mutex>
#include <utility>

#include "calibrate.hpp"
#include "experiments/scenario.hpp"
#include "report.hpp"

namespace switchbench {
namespace {

using gs::exp::AlgorithmKind;
using gs::exp::Config;

/// Pass-through strategy at the engine's one policy seam.  Untraced it only
/// stamps the first call (the end of set-up); traced it also times every
/// call and counts what crosses the boundary, on the calling lane.
class ProbeStrategy final : public gs::stream::SchedulerStrategy {
 public:
  ProbeStrategy(std::shared_ptr<gs::stream::SchedulerStrategy> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }

  [[nodiscard]] std::vector<gs::stream::ScheduledRequest> schedule(
      const gs::stream::ScheduleContext& ctx,
      std::vector<gs::stream::CandidateSegment>& candidates) override {
    if (!stamped_.load(std::memory_order_acquire)) stamp_first();
    if (tracer_ == nullptr) return inner_->schedule(ctx, candidates);

    Tracer::Lane& lane = tracer_->lane();
    const std::size_t offered = candidates.size();
    const Clock::time_point start = Clock::now();
    std::vector<gs::stream::ScheduledRequest> requests = inner_->schedule(ctx, candidates);
    const Clock::time_point end = Clock::now();
    const std::int64_t busy =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
    lane.totals.calls += 1;
    lane.totals.busy_ns += static_cast<std::uint64_t>(busy);
    lane.totals.candidates += offered;
    lane.totals.requests += requests.size();
    if (lane.spans.size() < Tracer::kScheduleSpansPerLane) {
      lane.spans.push_back({"schedule", "core", tracer_->since_origin_ns(start), busy, 0,
                            tracer_->schedule_parent()});
    }
    return requests;
  }

  /// Time of the first schedule call, if there was one.
  [[nodiscard]] std::optional<Clock::time_point> first_call() const {
    if (!stamped_.load(std::memory_order_acquire)) return std::nullopt;
    return first_;
  }
  /// Process CPU seconds at the first schedule call (valid with first_call).
  [[nodiscard]] double first_call_cpu_s() const { return first_cpu_s_; }

 private:
  void stamp_first() {
    const Clock::time_point now = Clock::now();
    const double cpu_s = process_cpu_s();
    std::lock_guard<std::mutex> lock(first_mutex_);
    if (stamped_.load(std::memory_order_relaxed)) return;
    first_ = now;
    first_cpu_s_ = cpu_s;
    stamped_.store(true, std::memory_order_release);
  }

  std::shared_ptr<gs::stream::SchedulerStrategy> inner_;
  Tracer* tracer_;
  std::atomic<bool> stamped_{false};
  std::mutex first_mutex_;
  Clock::time_point first_{};  ///< written once under first_mutex_
  double first_cpu_s_ = 0.0;   ///< written once under first_mutex_
};

double seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

std::optional<WorkloadSpec> make_workload(std::string_view name, std::uint64_t seed, int shards) {
  WorkloadSpec spec;
  spec.name = std::string(name);
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    // Trial seeds never overlap between workload seeds: s -> {2s, 2s+1}.
    const std::uint64_t trial_seed = seed * kTrials + trial;
    if (name == "paper_static") {
      // Fig. 6-8 at N = 2000: fast then normal on the same scenario.
      spec.engines.push_back(Config::paper_static(2000, AlgorithmKind::kFast, trial_seed));
      spec.engines.push_back(Config::paper_static(2000, AlgorithmKind::kNormal, trial_seed));
    } else if (name == "churn_zap") {
      // Dynamic overlay (5 %/5 % churn per period), three serial switches, a
      // flash crowd of N/4 landing on the first one, and the CDN patch plane.
      Config config = Config::paper_dynamic(1000, AlgorithmKind::kFast, trial_seed);
      config.switch_times = {0.0, 25.0, 50.0};
      config.enable_flash_crowd(250, 0.0, 2.0);
      config.enable_cdn_assist();
      spec.engines.push_back(config);
    } else if (name == "scale_sharded") {
      // The sharded pipeline at N = 5000 on 3 plan lanes.  20 s of
      // warm-start history covers the stable-phase backlog (~17 s at
      // N = 10^4); the 30 s horizon is a give-up bound, the run ends once
      // every peer has finished S1 and prepared S2.
      //
      // Lanes wait for each other at every sweep, so one stalled CPU stalls
      // them all: 3 lanes leave the fourth CPU to the load probe and the
      // system, and one scenario per repetition keeps repetitions short, so
      // the median over a run's repetitions outvotes a stalled stretch.
      if (trial > 0) continue;
      Config config = Config::paper_static(5000, AlgorithmKind::kFast, trial_seed);
      config.enable_parallel_shards(3);
      config.engine.tick_shard_size = 256;
      config.engine.history_seconds = 20.0;
      config.engine.horizon = 30.0;
      spec.engines.push_back(config);
    } else {
      return std::nullopt;
    }
  }
  if (shards >= 0) {
    for (Config& config : spec.engines) {
      config.enable_parallel_shards(static_cast<std::size_t>(shards));
    }
  }
  return spec;
}

double Repetition::setup_s() const {
  double sum = 0.0;
  for (const EngineRun& e : engines) sum += e.setup_s;
  return sum;
}

double Repetition::run_s() const {
  double sum = 0.0;
  for (const EngineRun& e : engines) sum += e.run_s;
  return sum;
}

double Repetition::nominal_setup_s() const {
  double sum = 0.0;
  for (const EngineRun& e : engines) sum += e.setup_s * e.speed;
  return sum;
}

double Repetition::nominal_run_s() const {
  double sum = 0.0;
  for (const EngineRun& e : engines) sum += e.run_cpu_s * e.speed;
  return sum;
}

Repetition run_repetition(const WorkloadSpec& spec, Tracer* tracer,
                          const LoadProbe* load_probe) {
  Repetition rep;
  rep.traced = tracer != nullptr;
  Digest digest;
  for (const Config& config : spec.engines) {
#if defined(__GLIBC__)
    // Hand the previous engine's freed pages back to the kernel before the
    // clock starts, so every engine starts from the same heap and the
    // process peak RSS does not grow with the number of repetitions.
    malloc_trim(0);
#endif
    rep.calibration_s.push_back(calibration_slice());
    EngineRun out;
    const ScheduleTotals before = tracer != nullptr ? tracer->totals() : ScheduleTotals{};
    const std::uint32_t engine_span = tracer != nullptr ? tracer->next_id() : 0;

    const LoadProbe::Mark m_begin =
        load_probe != nullptr ? load_probe->mark() : LoadProbe::Mark{};
    const Clock::time_point t_begin = Clock::now();
    gs::exp::BuiltScenario scenario = gs::exp::build_scenario(config);
    const Clock::time_point t_scenario = Clock::now();

    gs::stream::EngineConfig engine_config = config.engine;
    engine_config.membership_degree = config.neighbor_target;
    engine_config.seed = config.seed;
    auto probe = std::make_shared<ProbeStrategy>(gs::exp::make_strategy(config), tracer);
    gs::stream::Engine engine(std::move(scenario.graph), std::move(scenario.latency),
                              engine_config, probe);
    engine.set_sources(std::move(scenario.sources), config.switch_times);
    const Clock::time_point t_ctor = Clock::now();
    const LoadProbe::Mark m_ctor = load_probe != nullptr ? load_probe->mark() : LoadProbe::Mark{};

    std::uint32_t run_span = 0;
    if (tracer != nullptr) {
      run_span = tracer->next_id();
      tracer->set_schedule_parent(run_span);
    }
    out.switches = engine.run();
    const Clock::time_point t_end = Clock::now();
    const double cpu_end = process_cpu_s();
    const LoadProbe::Mark m_end = load_probe != nullptr ? load_probe->mark() : LoadProbe::Mark{};
    if (load_probe != nullptr) out.load_ns = load_probe->mean_load_ns(m_begin, m_end);
    const Clock::time_point t_first = probe->first_call().value_or(t_end);
    // The probe's own CPU time from construction on (a few ms more than
    // from the first call) is not the engine's.
    out.run_cpu_s = (probe->first_call() ? cpu_end - probe->first_call_cpu_s() : 0.0) -
                    (m_end.cpu_s - m_ctor.cpu_s);

    out.scenario_s = seconds(t_begin, t_scenario);
    out.ctor_s = seconds(t_scenario, t_ctor);
    out.first_plan_s = seconds(t_ctor, t_first);
    out.setup_s = seconds(t_begin, t_first);
    out.run_s = seconds(t_first, t_end);
    out.stats = engine.stats();
    out.map_bits = engine.overhead().buffer_map_bits();
    out.request_bits = engine.overhead().request_bits();
    out.data_bits = engine.overhead().data_bits();
    out.membership_bits = engine.overhead().membership_bits();
    out.lanes = config.engine.parallel_shards > 0 ? config.engine.parallel_shards : 1;
    for (const gs::stream::SwitchMetrics& m : out.switches) digest.add(m);

    if (tracer != nullptr) {
      const ScheduleTotals after = tracer->totals();
      out.schedule = {after.calls - before.calls, after.busy_ns - before.busy_ns,
                      after.candidates - before.candidates, after.requests - before.requests};
      const char* label =
          config.algorithm == AlgorithmKind::kFast ? "engine.fast" : "engine.normal";
      tracer->record_as(engine_span, label, "experiments", t_begin, t_end, 0);
      tracer->record("build_scenario", "net", t_begin, t_scenario, engine_span);
      tracer->record("engine_ctor", "stream", t_scenario, t_ctor, engine_span);
      tracer->record_as(run_span, "run", "stream", t_ctor, t_end, engine_span);
      tracer->record("first_plan", "stream", t_ctor, t_first, run_span);
    }
    rep.engines.push_back(std::move(out));
  }
  rep.calibration_s.push_back(calibration_slice());
  for (std::size_t e = 0; e < rep.engines.size(); ++e) {
    EngineRun& run = rep.engines[e];
    run.speed = speed_factor(rep.calibration_s[e], rep.calibration_s[e + 1],
                             run.load_ns > 0.0 ? run.load_ns : kNominalLoadNs);
  }
  rep.digest = digest.hex();
  return rep;
}

}  // namespace switchbench
