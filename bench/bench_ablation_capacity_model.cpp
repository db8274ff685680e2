// Ablation A6: supplier capacity model.
//
// kSharedFifo (default): one FIFO per uplink shared by all requesters —
// request order matters, the switch algorithms separate.
// kPerLink: the literal reading of the paper's requester-local tau(j)
// bookkeeping — supply becomes abundant and the algorithms nearly tie.
// kTokenBucket: shared uplink with burst tolerance — contention persists
// (long-run rate equals the FIFO's), so the separation should survive.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  gs::benchtool::BenchOptions options;
  if (const auto status = gs::benchtool::parse_bench_flags(argc, argv, options, "500,1000")) return *status;

  int status = 0;
  for (const auto model : {gs::stream::SupplierCapacityModel::kSharedFifo,
                           gs::stream::SupplierCapacityModel::kPerLink,
                           gs::stream::SupplierCapacityModel::kTokenBucket}) {
    gs::exp::Config base =
        gs::exp::Config::paper_static(1000, gs::exp::AlgorithmKind::kFast, options.seed);
    options.apply_engine(base);
    base.engine.supplier_capacity = model;  // after apply_engine: the ablation owns this axis
    const auto points = gs::exp::sweep_sizes(base, options.sizes, options.trials);
    const std::string title =
        std::string("A6: supplier capacity = ") + std::string(gs::stream::to_string(model));
    gs::exp::print_switch_reduction(title, points);
    gs::exp::print_completion(title + ": completion (prepared / tracked)", points);
    if (gs::exp::report_unprepared("bench_ablation_capacity_model", points) != 0) status = 1;
  }
  std::printf("\nexpect the reduction ratio to collapse under per-link capacity (without\n"
              "uplink contention the S1-first order costs the normal algorithm little)\n"
              "but to survive token-bucket uplinks, whose bursts relax spacing, not rate.\n");
  return status;
}
