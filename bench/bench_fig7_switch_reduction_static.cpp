// Figure 7: average switch time and its reduction ratio, static environments.
//
// Paper result: reduction ratio between 0.2 and 0.3, tending to increase
// with the network scale (100..8000 nodes).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  gs::benchtool::BenchOptions options;
  if (const auto status = gs::benchtool::parse_bench_flags(argc, argv, options)) return *status;

  gs::exp::Config base =
      gs::exp::Config::paper_static(1000, gs::exp::AlgorithmKind::kFast, options.seed);
  options.apply_engine(base);
  const auto points = gs::exp::sweep_sizes(base, options.sizes, options.trials);
  gs::exp::print_switch_reduction(
      "Fig. 7: avg switch time and reduction ratio (static environments)", points);
  gs::exp::print_completion("Fig. 7: completion (prepared / tracked)", points);
  if (!options.csv.empty()) gs::exp::write_comparison_csv(options.csv, points);
  return gs::exp::report_unprepared("bench_fig7_switch_reduction_static", points);
}
