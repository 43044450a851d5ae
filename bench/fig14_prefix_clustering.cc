// Figure 14: CDF over /24 prefixes of the percentage of classified
// addresses showing the first-ping drop. Paper shape: high-median
// addresses cluster into relatively few prefixes; in most prefixes the
// majority of addresses show the drop, while a handful of prefixes (often
// those with very few responsive addresses) show none — wake-up behaviour
// is a property of providers, not isolated hosts.
#include <iostream>

#include "first_ping_common.h"
#include "report.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "fig14_prefix_clustering"};
  const auto csv = bench::csv_from_flags(flags);
  const auto exp = bench::FirstPingExperiment::run(flags, report);
  exp.print_header("fig14_prefix_clustering");

  const auto fractions = exp.summary.prefix_drop_fractions();
  std::printf("# classified addresses span %zu /24 prefixes\n", fractions.size());

  bench::print_cdf(std::cout,
                   "CDF over /24s of %% addresses with RTT_1 > max(RTT_2..n)",
                   util::make_cdf(fractions, 30));

  std::size_t majority = 0;
  for (const double f : fractions) {
    if (f >= 50.0) ++majority;
  }
  if (!fractions.empty()) {
    std::printf("\n# prefixes where most classified addresses show the drop: %.0f%%\n",
                100.0 * static_cast<double>(majority) / fractions.size());
  }
  report.add_probes(exp.probes);
  return 0;
}
