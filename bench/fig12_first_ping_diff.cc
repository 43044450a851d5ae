// Figure 12. Bottom: CDF of RTT_1 - RTT_2 (all classified addresses, and
// wake-up-classified only). Values near 1 mean both responses arrived at
// about the same instant (the flush); near 0 means equal RTTs. Top:
// P(RTT_1 > max(RTT_2..n)) binned by the diff — any significant drop from
// RTT_1 to RTT_2 predicts the wake-up overestimate with high probability,
// which is the paper's "a second probe after one second can detect this".
#include <iostream>

#include "first_ping_common.h"
#include "report.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "fig12_first_ping_diff"};
  const auto csv = bench::csv_from_flags(flags);
  const auto exp = bench::FirstPingExperiment::run(flags, report);
  exp.print_header("fig12_first_ping_diff");

  bench::print_cdf(std::cout, "CDF of RTT_1 - RTT_2 (s), all classified",
                   util::make_cdf(exp.summary.rtt1_minus_rtt2(false), 30), 40, csv);
  bench::print_cdf(std::cout, "CDF of RTT_1 - RTT_2 (s), RTT_1 > max(rest) only",
                   util::make_cdf(exp.summary.rtt1_minus_rtt2(true), 30), 40, csv);

  std::printf("\n## P(RTT_1 > max(RTT_2..n)) by RTT_1 - RTT_2 bin\n");
  std::printf("bin_lo\tbin_hi\tP\tn\n");
  for (const auto& bin : exp.summary.probability_by_diff(0.25)) {
    std::printf("%s\t%s\t%s\t%llu\n", util::format_double(bin.lo, 2).c_str(),
                util::format_double(bin.hi, 2).c_str(),
                util::format_double(bin.total ? static_cast<double>(bin.exceeds) / bin.total : 0,
                                    2)
                    .c_str(),
                static_cast<unsigned long long>(bin.total));
  }
  report.add_probes(exp.probes);
  return 0;
}
