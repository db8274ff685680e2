// Figure 6: average finishing time of S1 and preparing time of S2 across
// network sizes, static environments.  Four bars per size in the paper's
// order: normal-finish, fast-finish, fast-prepare, normal-prepare.
//
// Paper result: the fast algorithm "splits the difference" — it finishes S1
// slightly later but prepares S2 markedly earlier.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  gs::benchtool::BenchOptions options;
  if (const auto status = gs::benchtool::parse_bench_flags(argc, argv, options)) return *status;

  gs::exp::Config base =
      gs::exp::Config::paper_static(1000, gs::exp::AlgorithmKind::kFast, options.seed);
  options.apply_engine(base);
  const auto points = gs::exp::sweep_sizes(base, options.sizes, options.trials);
  gs::exp::print_times_table(
      "Fig. 6: avg finishing time of S1 and preparing time of S2 (static)", points);
  gs::exp::print_completion("Fig. 6: completion (prepared / tracked)", points);
  if (!options.csv.empty()) gs::exp::write_comparison_csv(options.csv, points);
  return gs::exp::report_unprepared("bench_fig6_times_static", points);
}
