// Figure 8: communication overhead across network sizes, static
// environments.
//
// Paper result: around 1-2% for both algorithms (a little above the 1%
// back-of-envelope of S5.3 because most nodes' delivery rate trails the
// play rate), with the fast algorithm slightly lower.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  gs::benchtool::BenchOptions options;
  if (const auto status = gs::benchtool::parse_bench_flags(argc, argv, options)) return *status;

  gs::exp::Config base =
      gs::exp::Config::paper_static(1000, gs::exp::AlgorithmKind::kFast, options.seed);
  options.apply_engine(base);
  const auto points = gs::exp::sweep_sizes(base, options.sizes, options.trials);
  gs::exp::print_overhead("Fig. 8: communication overhead (static environments)", points);
  gs::exp::print_completion("Fig. 8: completion (prepared / tracked)", points);
  if (!options.csv.empty()) gs::exp::write_comparison_csv(options.csv, points);
  return gs::exp::report_unprepared("bench_fig8_overhead_static", points);
}
