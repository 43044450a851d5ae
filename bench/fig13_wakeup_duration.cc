// Figure 13: CDF of RTT_1 - min(RTT_2..n) for wake-up-classified
// addresses — the estimate of how long radio negotiation/wake-up takes.
// Paper shape: median 1.37 s, 90% below 4 s, only ~2% above 8.5 s.
#include <iostream>

#include "first_ping_common.h"
#include "report.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "fig13_wakeup_duration"};
  const auto csv = bench::csv_from_flags(flags);
  const auto exp = bench::FirstPingExperiment::run(flags, report);
  exp.print_header("fig13_wakeup_duration");

  auto durations = exp.summary.wakeup_durations();
  bench::print_cdf(std::cout, "CDF of RTT_1 - min(RTT_2..n) (s), wake-up addresses",
                   util::make_cdf(durations, 30), 40, csv);

  if (!durations.empty()) {
    std::sort(durations.begin(), durations.end());
    std::printf("\n# median wake-up estimate: %.2f s (paper: 1.37 s)\n",
                util::percentile_sorted(durations, 50));
    std::printf("# 90th percentile: %.2f s (paper: < 4 s)\n",
                util::percentile_sorted(durations, 90));
    std::printf("# fraction above 8.5 s: %s%% (paper: ~2%%)\n",
                util::format_percent(util::fraction_above(durations, 8.5)).c_str());
  }
  report.add_probes(exp.probes);
  return 0;
}
