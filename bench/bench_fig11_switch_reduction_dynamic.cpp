// Figure 11: average switch time and reduction ratio, dynamic environments.
//
// Paper result: consistent with the static case — reduction between 0.2 and
// 0.3, tending to grow with the network scale.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  gs::benchtool::BenchOptions options;
  if (const auto status = gs::benchtool::parse_bench_flags(argc, argv, options)) return *status;

  gs::exp::Config base =
      gs::exp::Config::paper_dynamic(1000, gs::exp::AlgorithmKind::kFast, options.seed);
  options.apply_engine(base);
  const auto points = gs::exp::sweep_sizes(base, options.sizes, options.trials);
  gs::exp::print_switch_reduction(
      "Fig. 11: avg switch time and reduction ratio (dynamic environments)", points);
  gs::exp::print_completion("Fig. 11: completion (prepared / tracked)", points);
  if (!options.csv.empty()) gs::exp::write_comparison_csv(options.csv, points);
  return gs::exp::report_unprepared("bench_fig11_switch_reduction_dynamic", points);
}
