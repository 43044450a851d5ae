// Figure 5: CCDF of the maximum number of echo responses received for a
// single echo request, over addresses that ever sent more than two. Paper
// shape: a heavy tail spanning 3 .. 10^7, with ~0.7% of multi-responders
// exceeding 1000 (DoS reflectors) and a handful of extreme outliers.
#include <iostream>

#include "analysis/duplicates.h"
#include "harness.h"
#include "report.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "fig05_duplicate_ccdf"};
  const auto csv = bench::csv_from_flags(flags);
  auto options = bench::world_options_from_flags(flags, 600);
  // More flood reflectors than the default mix so the tail is populated
  // at bench scale (the paper had 2 weeks x 4M addresses to find 26
  // million-response reflectors; we scale the incidence instead).
  options.population.flood_duplicate_prob = flags.get_double("flood-prob", 0.002);
  bench::wire_obs(options, report);
  auto world = bench::make_world(options);
  const int rounds = static_cast<int>(flags.get_int("rounds", 40));

  const auto prober = bench::run_survey(*world, rounds);

  // The figure is drawn before any filtering.
  analysis::PipelineConfig no_filter;
  no_filter.filter_broadcast = false;
  no_filter.filter_duplicates = false;
  const auto result = bench::analyze_survey(*world, prober, no_filter);
  const auto stats = analysis::duplicate_stats(result.addresses);

  std::printf("# fig05_duplicate_ccdf: %zu blocks, %d rounds, %llu planted flood hosts\n",
              world->population->blocks().size(), rounds,
              static_cast<unsigned long long>(world->population->stats().flood_duplicators));
  std::printf("# addresses with >2 responses to one request: %llu\n",
              static_cast<unsigned long long>(stats.addresses_over_2));
  std::printf("# of those, >=1000 responses: %llu (%.2f%%; paper: 0.7%%)\n",
              static_cast<unsigned long long>(stats.addresses_over_1000),
              stats.addresses_over_2
                  ? 100.0 * stats.addresses_over_1000 / stats.addresses_over_2
                  : 0.0);
  std::printf("# >=1M responses (the paper's red dots): %llu\n",
              static_cast<unsigned long long>(stats.addresses_over_1m));

  bench::print_cdf(std::cout, "CCDF of max responses per echo request (addresses > 2)",
                   stats.ccdf(60), 60, csv);
  report.add_probes(prober.probes_sent());
  return 0;
}
