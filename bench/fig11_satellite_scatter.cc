// Figure 11: scatter of per-address 1st vs 99th percentile latency, split
// into satellite-provider addresses and everyone else. Paper shape:
// satellite 1st percentiles all exceed ~0.5 s (twice the geosynchronous
// one-way theoretical minimum), each provider forms its own cluster, and
// satellite 99th percentiles sit predominantly below 3 s — so satellites
// are NOT the source of the extreme tail.
#include <iostream>

#include "analysis/satellite.h"
#include "harness.h"
#include "report.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "fig11_satellite_scatter"};
  // Satellite ASes are ~1% of blocks; use a larger world so each of the
  // nine providers contributes a visible cluster.
  auto options = bench::world_options_from_flags(flags, 1500);
  bench::wire_obs(options, report);
  auto world = bench::make_world(options);
  const int rounds = static_cast<int>(flags.get_int("rounds", 60));

  const auto prober = bench::run_survey(*world, rounds);
  const auto result = bench::analyze_survey(*world, prober);
  const auto scatter =
      analysis::satellite_scatter(result.addresses, world->population->geo(), 30);

  std::printf("# fig11_satellite_scatter: %zu blocks, %d rounds; %zu satellite / %zu other "
              "addresses plotted\n",
              world->population->blocks().size(), rounds, scatter.satellite.size(),
              scatter.other.size());

  std::printf("\n## satellite points (p1_s, p99_s, provider) — sample\n");
  const std::size_t step = std::max<std::size_t>(scatter.satellite.size() / 60, 1);
  for (std::size_t i = 0; i < scatter.satellite.size(); i += step) {
    const auto& p = scatter.satellite[i];
    std::printf("%s\t%s\t%s\n", util::format_double(p.p1_s, 3).c_str(),
                util::format_double(p.p99_s, 2).c_str(), p.owner.c_str());
  }
  std::printf("\n## non-satellite points with p1 > 0.3 s (the paper's left panel) — sample\n");
  std::size_t shown = 0;
  for (const auto& p : scatter.other) {
    if (p.p1_s <= 0.3) continue;
    if (++shown > 40) break;
    std::printf("%s\t%s\n", util::format_double(p.p1_s, 3).c_str(),
                util::format_double(p.p99_s, 2).c_str());
  }

  std::printf("\nPer-provider clusters:\n");
  util::TextTable table({"Provider", "addrs", "min p1 (s)", "median p1 (s)", "median p99 (s)",
                         "p99 < 3 s"});
  double min_p1 = 1e9;
  for (const auto& s : scatter.provider_summaries()) {
    table.add_row({s.owner, std::to_string(s.addresses), util::format_double(s.min_p1, 3),
                   util::format_double(s.median_p1, 3), util::format_double(s.median_p99, 2),
                   util::format_percent(s.frac_p99_below_3s)});
    min_p1 = std::min(min_p1, s.min_p1);
  }
  table.print(std::cout);
  std::printf("\n# minimum satellite 1st percentile: %.3f s (paper: > 0.5 s, ~2x the "
              "theoretical 0.25 s minimum)\n",
              min_p1);
  report.add_probes(prober.probes_sent());
  return 0;
}
