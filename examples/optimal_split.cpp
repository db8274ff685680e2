// Closed-form split calculator: evaluate the paper's eq. 4 and the four
// capped cases (§4) for arbitrary parameters.
//
//   ./optimal_split --q1 128 --q2 50 --inbound 15 [--o1 8 --o2 4]
#include <cstdio>

#include "core/rate_solver.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  gs::util::Flags flags;
  flags.define_double("q1", 128.0, "Q1: undelivered segments of the old source");
  flags.define_double("q2", 50.0, "Q2: undelivered startup segments of the new source");
  flags.define_double("q", 10.0, "Q: consecutive segments needed for playback");
  flags.define_double("p", 10.0, "playback rate (segments/s)");
  flags.define_double("inbound", 15.0, "I: total inbound rate (segments/s)");
  flags.define_double("o1", -1.0, "O1 cap: outbound rate available for S1 (-1 = uncapped)");
  flags.define_double("o2", -1.0, "O2 cap: outbound rate available for S2 (-1 = uncapped)");
  if (const auto status = flags.parse_cli(argc, argv)) return *status;

  gs::core::SplitInput in;
  in.q1 = flags.get_double("q1");
  in.q2 = flags.get_double("q2");
  in.q = flags.get_double("q");
  in.p = flags.get_double("p");
  in.inbound = flags.get_double("inbound");

  std::printf("inputs: Q1=%.1f Q2=%.1f Q=%.1f p=%.1f I=%.1f\n", in.q1, in.q2, in.q, in.p,
              in.inbound);

  const gs::core::RateSplit u = gs::core::solve_unconstrained(in);
  std::printf("\nunconstrained optimum (eq. 4):\n");
  std::printf("  r1=%.4f  r2=%.4f\n", u.r1, u.r2);
  std::printf("  T1' = Q1/I1 + Q/p = %.3f s\n",
              gs::core::expected_finish_time(in.q1, in.q, in.p, u.i1));
  std::printf("  T2  = Q2/I2       = %.3f s\n", gs::core::expected_prepare_time(in.q2, u.i2));

  const double o1 = flags.get_double("o1");
  const double o2 = flags.get_double("o2");
  if (o1 >= 0.0 || o2 >= 0.0) {
    const gs::core::RateSplit c = gs::core::solve_capped(
        in, o1 >= 0.0 ? o1 : 1e18, o2 >= 0.0 ? o2 : 1e18);
    std::printf("\ncapped solution (S4, case %d):\n", c.case_id);
    std::printf("  I1=%.4f  I2=%.4f\n", c.i1, c.i2);
    std::printf("  T1' = %.3f s, T2 = %.3f s\n",
                gs::core::expected_finish_time(in.q1, in.q, in.p, c.i1),
                gs::core::expected_prepare_time(in.q2, c.i2));
  }

  std::printf("\nfor comparison, the normal (sequential S1-first) policy:\n");
  std::printf("  T1' = %.3f s, T2 = %.3f s\n",
              gs::core::expected_finish_time(in.q1, in.q, in.p, in.inbound),
              (in.q1 + in.q2) / in.inbound);
  return 0;
}
