// Figure 10: average finishing/preparing times across network sizes,
// dynamic environments (5% leave + 5% join per period).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  gs::benchtool::BenchOptions options;
  if (const auto status = gs::benchtool::parse_bench_flags(argc, argv, options)) return *status;

  gs::exp::Config base =
      gs::exp::Config::paper_dynamic(1000, gs::exp::AlgorithmKind::kFast, options.seed);
  options.apply_engine(base);
  const auto points = gs::exp::sweep_sizes(base, options.sizes, options.trials);
  gs::exp::print_times_table(
      "Fig. 10: avg finishing time of S1 and preparing time of S2 (dynamic)", points);
  gs::exp::print_completion("Fig. 10: completion (prepared / tracked)", points);
  if (!options.csv.empty()) gs::exp::write_comparison_csv(options.csv, points);
  return gs::exp::report_unprepared("bench_fig10_times_dynamic", points);
}
