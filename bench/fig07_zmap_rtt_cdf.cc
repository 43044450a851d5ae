// Figure 7: RTT distribution for repeated Zmap scans. Paper shape: the
// curves for all scans nearly coincide; median < 250 ms, ~5% of addresses
// above 1 s, ~0.1% above 75 s.
//
// Scans are independently dated passes over the same population, so each
// runs as its own shard (--jobs N); output is merged in scan order.
#include <iostream>

#include "analysis/as_ranking.h"
#include "report.h"
#include "zmap_common.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "fig07_zmap_rtt_cdf"};
  const auto csv = bench::csv_from_flags(flags);
  const auto options = bench::world_options_from_flags(flags, 800);
  const int scans = static_cast<int>(flags.get_int("scans", 5));

  auto shard_options = bench::shard_options_from_flags(flags, options);
  bench::wire_obs(shard_options, report);
  report.set_jobs(sim::ShardRunner{shard_options}.jobs());
  const auto runs = bench::run_zmap_scans_sharded(options, shard_options, scans);
  std::printf("# fig07_zmap_rtt_cdf: %d blocks, %d scans\n", options.num_blocks, scans);

  util::TextTable summary(
      {"scan", "responding addrs", "median (s)", "p95 (s)", ">1s %", ">75s %", "p99.9 (s)"});
  for (const auto& run : runs) {
    report.add_probes(run.probes);
    const auto scan = analysis::ScanAddressRtts::from_responses(run.responses);
    std::vector<double> rtts;
    rtts.reserve(scan.rtts.size());
    for (const auto& [addr, rtt] : scan.rtts) rtts.push_back(rtt);
    std::sort(rtts.begin(), rtts.end());

    summary.add_row({run.label, std::to_string(rtts.size()),
                     util::format_double(util::percentile_sorted(rtts, 50), 3),
                     util::format_double(util::percentile_sorted(rtts, 95), 3),
                     util::format_percent(util::fraction_above(rtts, 1.0)),
                     util::format_percent(util::fraction_above(rtts, 75.0)),
                     util::format_double(util::percentile_sorted(rtts, 99.9), 1)});

    char title[64];
    std::snprintf(title, sizeof title, "RTT CDF (s), %s", run.label.c_str());
    bench::print_cdf(std::cout, title, util::make_cdf(rtts, 30), 30, csv);
  }

  std::printf("\nPer-scan summary (paper: median < 0.25 s, ~5%% > 1 s, ~0.1%% > 75 s, "
              "stable across scans):\n");
  if (csv.has_value()) csv->write_table("fig07_scan_summary", summary);
  summary.print(std::cout);
  return 0;
}
