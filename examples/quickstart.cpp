// Quickstart: run one source switch on a 200-node overlay with both
// algorithms and compare the paper's headline metric (average switch time).
//
//   ./quickstart [--nodes 200] [--seed 7] [--dynamic]
#include <cstdio>

#include "experiments/config.hpp"
#include "experiments/runner.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  gs::util::Flags flags;
  flags.define_int("nodes", 200, "overlay size");
  flags.define_int("seed", 7, "experiment seed");
  flags.define_bool("dynamic", false, "apply 5%/5% churn per period");
  flags.define("log", "warn", "log level (debug|info|warn|error|off)");
  if (const auto status = flags.parse_cli(argc, argv)) return *status;
  gs::util::set_log_level(gs::util::parse_log_level(flags.get("log")));

  const auto nodes = static_cast<std::size_t>(flags.get_int("nodes"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const bool dynamic = flags.get_bool("dynamic");

  std::printf("gossipstream quickstart: %zu nodes, seed %llu, %s environment\n", nodes,
              static_cast<unsigned long long>(seed), dynamic ? "dynamic" : "static");

  for (const auto algorithm : {gs::exp::AlgorithmKind::kNormal, gs::exp::AlgorithmKind::kFast}) {
    gs::exp::Config config = dynamic ? gs::exp::Config::paper_dynamic(nodes, algorithm, seed)
                                     : gs::exp::Config::paper_static(nodes, algorithm, seed);
    const gs::exp::RunResult result = gs::exp::run_once(config);
    const auto& m = result.primary();
    std::printf(
        "  %-6s  avg_finish_S1=%6.2fs  avg_switch=%6.2fs  max_switch=%6.2fs  overhead=%.4f  "
        "(%zu/%zu nodes completed, %.2fs wall)\n",
        std::string(gs::exp::to_string(algorithm)).c_str(), m.avg_finish_time(),
        m.avg_prepared_time(), m.max_prepared_time(), m.overhead_ratio, m.prepared_s2, m.tracked,
        result.wall_seconds);
  }
  std::printf("\nThe fast switch algorithm should show a noticeably smaller avg_switch\n"
              "at identical overhead; see bench/ for the full figure reproductions.\n");
  return 0;
}
