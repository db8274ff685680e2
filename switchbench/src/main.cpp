// switchbench: the repository benchmark program.
//
//   switchbench --workload churn_zap --seed 1 --seconds 50 --trace 0
//
// Repeats one workload for --seconds (at least once), checks the outputs
// and prints every metric by name and unit, then one JSON line.  Host
// times are reported at the nominal host speed (calibrate.hpp), with the
// raw host seconds on the "# rep" lines.  --trace 0
// reports the end-to-end metrics of untraced repetitions; --trace 1
// alternates untraced and traced repetitions and reports the per-layer
// metrics, writing the spans to --trace-out as Chrome trace-event JSON.
// Exit status: 0 when every check passed, 1 when an output check (digest,
// invariant) failed, 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "report.hpp"
#include "util/flags.hpp"
#include "util/meminfo.hpp"
#include "workload.hpp"

namespace switchbench {
namespace {

/// Reads "workload seed digest" lines ('#' starts a comment); returns the
/// digest recorded for (workload, seed), or "" when there is none.
std::string reference_digest(const std::string& path, const std::string& workload,
                             std::uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::uint64_t ref_seed = 0;
    std::string digest;
    if (fields >> name >> ref_seed >> digest && name == workload && ref_seed == seed) return digest;
  }
  return "";
}

/// Median over the traced (or untraced) repetitions of a per-repetition value.
double median_of(const std::vector<Repetition>& reps, bool traced,
                 const std::function<double(const Repetition&)>& value) {
  std::vector<double> values;
  for (const Repetition& rep : reps) {
    if (rep.traced == traced) values.push_back(value(rep));
  }
  return values.empty() ? 0.0 : median(values);
}

double sum_engines(const Repetition& rep, const std::function<double(const EngineRun&)>& value) {
  double sum = 0.0;
  for (const EngineRun& e : rep.engines) sum += value(e);
  return sum;
}

double max_engines(const Repetition& rep, const std::function<double(const EngineRun&)>& value) {
  double best = 0.0;
  for (const EngineRun& e : rep.engines) best = std::max(best, value(e));
  return best;
}

/// One field of every engine of a repetition.
std::vector<double> engine_values(const Repetition& rep, double EngineRun::*field) {
  std::vector<double> values;
  for (const EngineRun& e : rep.engines) values.push_back(e.*field);
  return values;
}

/// Median of per-repetition host-probe values pooled over all repetitions.
double host_median(const std::vector<Repetition>& reps,
                   const std::function<std::vector<double>(const Repetition&)>& values) {
  std::vector<double> pooled;
  for (const Repetition& rep : reps) {
    const std::vector<double> v = values(rep);
    pooled.insert(pooled.end(), v.begin(), v.end());
  }
  return pooled.empty() ? 0.0 : median(pooled);
}

std::optional<double> mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return ratio(sum, static_cast<double>(values.size()));
}

std::string base_text(const char* what, double value) {
  char text[128];
  std::snprintf(text, sizeof text, "%s = %.17g", what, value);
  return text;
}

/// Tracked peers' switches of one repetition: the benchmark's operations.
std::uint64_t tracked_switches(const Repetition& rep) {
  std::uint64_t tracked = 0;
  for (const EngineRun& e : rep.engines) {
    for (const gs::stream::SwitchMetrics& m : e.switches) tracked += m.tracked;
  }
  return tracked;
}

/// Output checks on one repetition; every failure appends a message.
/// Returns the tracked switches whose outputs failed a check: those of a
/// failed switch, or every one of an engine that failed an engine check.
std::uint64_t check_repetition(const WorkloadSpec& spec, const Repetition& rep,
                               std::vector<std::string>& failures) {
  const auto fail = [&failures](const std::string& what) { failures.push_back(what); };
  std::uint64_t failed = 0;
  for (std::size_t e = 0; e < rep.engines.size(); ++e) {
    const EngineRun& run = rep.engines[e];
    const std::string where = "engine " + std::to_string(e);
    const std::size_t engine_failures = failures.size();
    std::uint64_t engine_tracked = 0;
    std::uint64_t switch_failed = 0;
    if (run.run_s <= 0.0) fail(where + ": the strategy was never called");
    if (run.switches.size() != spec.engines[e].switch_times.size()) {
      fail(where + ": expected " + std::to_string(spec.engines[e].switch_times.size()) +
           " switches, got " + std::to_string(run.switches.size()));
    }
    const bool run_failed = failures.size() > engine_failures;
    for (const gs::stream::SwitchMetrics& m : run.switches) {
      const std::string sw = where + " switch " + std::to_string(m.switch_index);
      const std::size_t switch_failures = failures.size();
      engine_tracked += m.tracked;
      if (m.tracked == 0) fail(sw + ": no tracked peers");
      if (m.prepared_s2 != m.prepared_times.size() || m.finished_s1 != m.finish_times.size()) {
        fail(sw + ": sample counts disagree with completion counts");
      }
      if (m.prepared_s2 + m.censored_prepare != m.tracked ||
          m.finished_s1 + m.censored_finish != m.tracked) {
        fail(sw + ": completed + censored != tracked");
      }
      for (const std::vector<double>* times : {&m.prepared_times, &m.finish_times}) {
        if (std::any_of(times->begin(), times->end(),
                        [](double t) { return !std::isfinite(t) || t < 0.0; })) {
          fail(sw + ": a non-finite or negative time");
        }
      }
      if (!std::isfinite(m.overhead_ratio) || !(m.overhead_ratio > 0.0)) {
        fail(sw + ": overhead ratio is not a positive number");
      }
      if (failures.size() > switch_failures) switch_failed += m.tracked;
    }
    const std::size_t engine_checks = failures.size();
    if (run.stats.requests_issued == 0 || run.stats.segments_delivered == 0) {
      fail(where + ": no data moved");
    }
    const gs::stream::EngineStats& stats = run.stats;
    const gs::stream::EngineConfig& config = spec.engines[e].engine;
    if (config.flash_crowd_joins > 0 && stats.flash_joins != config.flash_crowd_joins) {
      fail(where + ": flash crowd admitted " + std::to_string(stats.flash_joins) + " peers");
    }
    if (config.churn_leave_fraction > 0.0 && stats.leaves == 0) fail(where + ": no churn");
    if (config.cdn_assist && stats.cdn_segments_served == 0) fail(where + ": no CDN traffic");
    if (config.parallel_shards > 0 && stats.parallel_sweeps == 0) {
      fail(where + ": the sharded pipeline never ran");
    }
    const bool engine_failed = run_failed || failures.size() > engine_checks;
    failed += engine_failed ? engine_tracked : switch_failed;
  }
  return failed;
}

/// Switch outputs of one algorithm's engines, pooled over their switches.
struct SwitchSummary {
  std::vector<double> prepared;  ///< T2 per prepared peer
  std::vector<double> finished;  ///< T1' per finished peer
  std::uint64_t tracked = 0;
  std::uint64_t censored = 0;
  double overhead = 0.0;  ///< mean over switches of the paper's ratio
};

SwitchSummary summarize(const WorkloadSpec& spec, const Repetition& rep,
                        gs::exp::AlgorithmKind algorithm) {
  SwitchSummary s;
  std::size_t switches = 0;
  for (std::size_t e = 0; e < rep.engines.size(); ++e) {
    if (spec.engines[e].algorithm != algorithm) continue;
    for (const gs::stream::SwitchMetrics& m : rep.engines[e].switches) {
      s.prepared.insert(s.prepared.end(), m.prepared_times.begin(), m.prepared_times.end());
      s.finished.insert(s.finished.end(), m.finish_times.begin(), m.finish_times.end());
      s.tracked += m.tracked;
      s.censored += m.censored_prepare;
      s.overhead += m.overhead_ratio;
      ++switches;
    }
  }
  if (switches > 0) s.overhead /= static_cast<double>(switches);
  return s;
}

/// End-to-end metrics in BENCHMARK.json order, from untraced repetitions.
std::vector<Metric> end_to_end_metrics(const std::vector<Repetition>& reps,
                                       const SwitchSummary& fast) {
  const auto n = static_cast<double>(fast.prepared.size());
  const std::string prepared = base_text("prepared switches", n);
  return {
      {"setup_s", "s",
       median_of(reps, false, [](const Repetition& r) { return r.nominal_setup_s(); }), ""},
      {"run_s", "s", median_of(reps, false, [](const Repetition& r) { return r.nominal_run_s(); }),
       ""},
      {"peak_rss_mb", "MB", static_cast<double>(gs::util::peak_rss_bytes()) / 1e6, ""},
      {"switch_mean_s", "s", mean(fast.prepared), prepared},
      {"switch_p50_s", "s", percentile(fast.prepared, 0.50), prepared},
      {"switch_p99_s", "s", percentile(fast.prepared, 0.99),
       prepared + ", " + std::to_string(samples_beyond(fast.prepared.size(), 0.99)) +
           " beyond"},
      {"finish_mean_s", "s", mean(fast.finished),
       base_text("finished S1", static_cast<double>(fast.finished.size()))},
      {"overhead_ratio", "ratio", fast.overhead,
       "buffer-map bits / data bits per switch window, mean over switches"},
  };
}

/// Per-layer metrics in BENCHMARK.json order, from the traced repetitions
/// (times: medians; counters: the first traced repetition, summed over
/// engines).
std::vector<Metric> per_layer_metrics(const std::vector<Repetition>& reps) {
  const Repetition* first = nullptr;
  for (const Repetition& rep : reps) {
    if (rep.traced) {
      first = &rep;
      break;
    }
  }
  const Repetition& t = *first;
  const auto sum = [&t](auto field) { return sum_engines(t, field); };
  const auto med = [&reps](auto field) {
    return median_of(reps, true, [field](const Repetition& r) { return sum_engines(r, field); });
  };
  const double run_s = median_of(reps, true, [](const Repetition& r) { return r.run_s(); });
  const double untraced_run_s =
      median_of(reps, false, [](const Repetition& r) { return r.run_s(); });
  const double busy_s = med([](const EngineRun& e) { return e.schedule.busy_ns / 1e9; });
  const double lanes = max_engines(t, [](const EngineRun& e) { return double(e.lanes); });
  const bool sequential = lanes == 1.0;

  const double calls = sum([](const EngineRun& e) { return double(e.schedule.calls); });
  const double candidates = sum([](const EngineRun& e) { return double(e.schedule.candidates); });
  const double requests = sum([](const EngineRun& e) { return double(e.schedule.requests); });
  const auto stat = [&sum](auto member) {
    return sum([member](const EngineRun& e) { return double(e.stats.*member); });
  };
  using Stats = gs::stream::EngineStats;
  const double built = stat(&Stats::plans_built);
  const double gated = stat(&Stats::plans_gated);
  const double probes = stat(&Stats::availability_probes);
  const double events = stat(&Stats::events_popped);
  const double planned = stat(&Stats::planned_ticks);
  const double replanned = stat(&Stats::replanned_ticks);
  const double issued = stat(&Stats::requests_issued);
  const double delivered = stat(&Stats::segments_delivered);
  const double assisted = stat(&Stats::cdn_assisted_switches);
  double assist_s = 0.0;
  for (const EngineRun& e : t.engines) {
    assist_s += e.stats.cdn_mean_assist_s * static_cast<double>(e.stats.cdn_assisted_switches);
  }
  const double bytes_per_peer =
      max_engines(t, [](const EngineRun& e) {
        return std::isfinite(e.stats.bytes_per_peer) ? e.stats.bytes_per_peer : 0.0;
      });

  return {
      {"net.scenario_s", "s", med([](const EngineRun& e) { return e.scenario_s; }), ""},
      {"engine.ctor_s", "s", med([](const EngineRun& e) { return e.ctor_s; }), ""},
      {"engine.first_plan_s", "s", med([](const EngineRun& e) { return e.first_plan_s; }), ""},
      {"core.schedule_calls", "count", calls, ""},
      {"core.schedule_busy_s", "s", busy_s, "summed over lanes"},
      {"core.candidates_in", "count", candidates, ""},
      {"core.requests_out", "count", requests, ""},
      {"core.request_yield", "ratio", ratio(requests, candidates),
       base_text("core.candidates_in", candidates)},
      {"core.lane_util", "ratio", ratio(busy_s, run_s * lanes),
       base_text("traced run_s x lanes", run_s * lanes)},
      {"stream.plans_built", "count", built, ""},
      {"stream.plans_gated", "count", gated, ""},
      {"stream.gate_ratio", "ratio", ratio(gated, gated + built),
       base_text("plans considered", gated + built)},
      {"stream.availability_probes", "count", probes, ""},
      {"stream.probes_per_plan", "count", ratio(probes, built),
       base_text("stream.plans_built", built)},
      {"stream.index_updates", "count", stat(&Stats::index_updates), ""},
      {"stream.engine_self_s", "s",
       sequential ? std::optional<double>(run_s - busy_s) : std::nullopt,
       sequential ? "traced run_s - core.schedule_busy_s" : "n/a with parallel lanes"},
      {"sim.events_popped", "count", events, ""},
      {"sim.events_wheeled", "count", stat(&Stats::events_wheeled), ""},
      {"sim.ns_per_event", "ns", ratio(run_s * 1e9, events),
       base_text("sim.events_popped", events)},
      {"sim.cross_shard_events", "count", stat(&Stats::cross_shard_events), ""},
      {"sim.spill_heap_peak", "count",
       max_engines(t, [](const EngineRun& e) { return double(e.stats.spill_heap_peak); }), ""},
      {"par.parallel_sweeps", "count", stat(&Stats::parallel_sweeps), ""},
      {"par.planned_ticks", "count", planned, ""},
      {"par.replanned_ticks", "count", replanned, ""},
      {"par.replan_ratio", "ratio", ratio(replanned, planned),
       base_text("par.planned_ticks", planned)},
      {"par.colour_classes", "count", stat(&Stats::commit_colour_classes), ""},
      {"par.conflict_fixups", "count", stat(&Stats::commit_conflict_fixups), ""},
      {"par.parallel_commits", "count", stat(&Stats::parallel_commits), ""},
      {"par.delivery_batches", "count", stat(&Stats::delivery_batches), ""},
      {"par.superbatch_sweeps", "count", stat(&Stats::superbatch_sweeps), ""},
      {"transfer.requests_issued", "count", issued, ""},
      {"transfer.requests_rejected", "count", stat(&Stats::requests_rejected), ""},
      {"transfer.delivered", "count", delivered, ""},
      {"transfer.duplicates", "count", stat(&Stats::duplicates), ""},
      {"transfer.delivery_yield", "ratio", ratio(delivered, issued),
       base_text("transfer.requests_issued", issued)},
      {"gossip.map_bits", "bit", sum([](const EngineRun& e) { return double(e.map_bits); }), ""},
      {"gossip.request_bits", "bit",
       sum([](const EngineRun& e) { return double(e.request_bits); }), ""},
      {"gossip.data_bits", "bit", sum([](const EngineRun& e) { return double(e.data_bits); }),
       ""},
      {"gossip.membership_bits", "bit",
       sum([](const EngineRun& e) { return double(e.membership_bits); }), ""},
      {"gossip.joins", "count", stat(&Stats::joins), ""},
      {"gossip.leaves", "count", stat(&Stats::leaves), ""},
      {"cdn.segments_served", "count", stat(&Stats::cdn_segments_served), ""},
      {"cdn.requests_rejected", "count", stat(&Stats::cdn_requests_rejected), ""},
      {"cdn.handoffs", "count", stat(&Stats::cdn_handoffs), ""},
      {"cdn.mean_assist_s", "s", ratio(assist_s, assisted),
       base_text("CDN-assisted switches", assisted)},
      {"mem.bytes_per_peer", "B", bytes_per_peer, "max over engines"},
      {"mem.peer_state_bytes", "B",
       max_engines(t, [](const EngineRun& e) { return double(e.stats.peer_state_bytes); }),
       "max over engines"},
      {"mem.arena_chunks", "count", stat(&Stats::arena_chunks), ""},
      {"host.slice_s", "s",
       host_median(reps, [](const Repetition& r) { return r.calibration_s; }),
       "median calibration slice, all repetitions"},
      {"host.load_ns", "ns",
       host_median(reps, [](const Repetition& r) { return engine_values(r, &EngineRun::load_ns); }),
       "median probed load time over engines, all repetitions"},
      {"host.speed", "ratio",
       host_median(reps, [](const Repetition& r) { return engine_values(r, &EngineRun::speed); }),
       "median speed factor over engines, all repetitions"},
      {"trace.run_s", "s", run_s, "median traced run_s"},
      {"trace.overhead_s", "s", run_s - untraced_run_s,
       base_text("untraced run_s", untraced_run_s)},
  };
}

int run_main(int argc, char** argv) {
  gs::util::Flags flags;
  flags.define("workload", "paper_static", "paper_static | churn_zap | scale_sharded")
      .define_int("seed", 1, "workload seed (scenario, churn, bandwidths)")
      .define_int("seconds", 50, "measure for this many host seconds (at least one repetition)")
      .define_int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
      .define("reference", "", "reference digest file (workload seed digest per line)")
      .define("trace_out", "", "Chrome trace-event JSON written by --trace 1")
      .define_int("shards", -1, "override parallel_shards (-1 = the workload's own)")
      .define_bool("capture", false, "run once and print 'workload seed digest'");
  if (!flags.parse(argc, argv)) return 0;

  const std::string name = flags.get("workload");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const double budget = static_cast<double>(flags.get_int("seconds"));
  const bool trace = flags.get_int("trace") != 0;
  const std::optional<WorkloadSpec> spec =
      make_workload(name, seed, static_cast<int>(flags.get_int("shards")));
  if (!spec) {
    std::fprintf(stderr, "switchbench: unknown workload '%s'\n", name.c_str());
    return 2;
  }
  if (flags.get_bool("capture")) {
    const Repetition rep = run_repetition(*spec, nullptr, nullptr);
    std::printf("%s %llu %s\n", name.c_str(), static_cast<unsigned long long>(seed),
                rep.digest.c_str());
    return 0;
  }

  // Repeat until the next repetition would overrun the budget; a traced
  // run alternates untraced and traced repetitions and needs one of each.
  Tracer tracer;
  const LoadProbe probe;
  std::vector<Repetition> reps;
  const Clock::time_point start = Clock::now();
  while (true) {
    const bool traced = trace && reps.size() % 2 == 1;
    reps.push_back(run_repetition(*spec, traced ? &tracer : nullptr, &probe));
    const double spent = std::chrono::duration<double>(Clock::now() - start).count();
    const double per_rep = spent / static_cast<double>(reps.size());
    if (reps.size() >= (trace ? 2u : 1u) && spent + per_rep > budget) break;
  }

  // Operations are the first repetition's tracked switches, so both counts
  // depend only on the seed, not on how many repetitions fit the budget.
  // Later repetitions must reproduce the first's digest.
  std::vector<std::string> failures;
  const std::uint64_t attempted = tracked_switches(reps.front());
  std::uint64_t failed = check_repetition(*spec, reps.front(), failures);
  for (std::size_t i = 1; i < reps.size(); ++i) check_repetition(*spec, reps[i], failures);
  const std::size_t output_failures = failures.size();
  for (const Repetition& rep : reps) {
    if (rep.digest != reps.front().digest) {
      failures.push_back("digest " + rep.digest + " differs from the first repetition's " +
                         reps.front().digest);
    }
  }
  const std::string reference = flags.get("reference").empty()
                                    ? ""
                                    : reference_digest(flags.get("reference"), name, seed);
  if (!reference.empty() && reference != reps.front().digest) {
    failures.push_back("digest " + reps.front().digest + " differs from the reference " +
                       reference);
  }

  const SwitchSummary fast = summarize(*spec, reps.front(), gs::exp::AlgorithmKind::kFast);
  std::vector<Metric> e2e = end_to_end_metrics(reps, fast);
  for (const Metric& m : e2e) {
    if (!m.value) failures.push_back(m.name + " is undefined (" + m.base + ")");
  }

  std::printf("# switchbench workload=%s seed=%llu nproc=%u repetitions=%zu traced=%d\n",
              name.c_str(), static_cast<unsigned long long>(seed),
              std::thread::hardware_concurrency(), reps.size(), trace ? 1 : 0);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    std::printf("# rep %zu %s host setup_s=%.6f run_s=%.6f nominal setup_s=%.6f run_s=%.6f "
                "slice_s=%.6f load_ns=%.1f digest=%s\n",
                i, reps[i].traced ? "traced  " : "untraced", reps[i].setup_s(), reps[i].run_s(),
                reps[i].nominal_setup_s(), reps[i].nominal_run_s(),
                median(reps[i].calibration_s), median(engine_values(reps[i], &EngineRun::load_ns)),
                reps[i].digest.c_str());
  }
  std::printf("# digest %s reference %s\n", reps.front().digest.c_str(),
              reference.empty() ? "none for this seed" : reference.c_str());
  std::printf("## end-to-end\n");
  for (const Metric& m : e2e) std::printf("%s\n", format_line(m).c_str());
  // Workload-specific outputs that are not defined on every workload.
  std::vector<Metric> extra;
  extra.push_back({"switch_censored_frac", "ratio",
                   ratio(static_cast<double>(fast.censored), static_cast<double>(fast.tracked)),
                   base_text("tracked switches", static_cast<double>(fast.tracked))});
  const SwitchSummary normal = summarize(*spec, reps.front(), gs::exp::AlgorithmKind::kNormal);
  if (normal.tracked > 0) {
    const std::optional<double> fast_mean = mean(fast.prepared);
    const std::optional<double> normal_mean = mean(normal.prepared);
    extra.push_back({"switch_reduction", "ratio",
                     normal_mean && fast_mean
                         ? ratio(*normal_mean - *fast_mean, *normal_mean)
                         : std::nullopt,
                     base_text("normal switch_mean_s", normal_mean.value_or(0.0))});
    if (!extra.back().value || !(*extra.back().value > 0.0)) {
      failures.push_back("the fast algorithm did not beat the normal one");
    }
  }
  if (spec->engines.front().engine.cdn_assist) {
    const double cdn_bytes = sum_engines(
        reps.front(), [](const EngineRun& e) { return double(e.stats.cdn_bytes_served); });
    extra.push_back({"cdn_mb", "MB", cdn_bytes / 1e6, "summed over engines"});
  }
  for (const Metric& m : extra) std::printf("%s\n", format_line(m).c_str());

  std::vector<Metric> reported = e2e;
  if (trace) {
    reported = per_layer_metrics(reps);
    std::printf("## per-layer (traced; %zu lanes seen)\n", tracer.lane_count());
    for (const Metric& m : reported) std::printf("%s\n", format_line(m).c_str());
    const std::string out = flags.get("trace_out");
    if (!out.empty()) {
      if (tracer.write_chrome_trace(out)) {
        std::printf("# trace written to %s\n", out.c_str());
      } else {
        failures.push_back("could not write the trace file " + out);
      }
    }
  }

  for (const std::vector<Metric>* list : {&e2e, &extra, &reported}) {
    for (const Metric& m : *list) {
      if (!valid_metric_name(m.name) || !valid_unit(m.unit)) {
        failures.push_back("malformed metric name or unit: " + m.name + " " + m.unit);
      }
    }
  }

  // A failure outside the per-repetition checks (digest, reference, an
  // undefined or malformed metric) spoils every operation's output.
  if (failures.size() > output_failures) failed = attempted;
  for (const std::string& f : failures) std::printf("# CHECK FAILED: %s\n", f.c_str());
  std::printf("%s\n", json_line(failures.empty(), attempted, failed, reported).c_str());
  std::fflush(stdout);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace switchbench

int main(int argc, char** argv) {
  try {
    return switchbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "switchbench: %s\n", e.what());
    return 2;
  }
}
