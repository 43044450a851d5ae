// Figure 3: number of unmatched survey responses whose most recently
// probed same-/24 address had last octet X. Broadcast responses spike on
// the all-ones/all-zeros octets (255, 0, 127, 128, ...); genuinely delayed
// responses form a flat floor across all octets.
#include <iostream>

#include "analysis/broadcast_octets.h"
#include "harness.h"
#include "report.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "fig03_unmatched_octets"};
  auto options = bench::world_options_from_flags(flags, 400);
  bench::wire_obs(options, report);
  auto world = bench::make_world(options);
  const int rounds = static_cast<int>(flags.get_int("rounds", 40));

  const auto prober = bench::run_survey(*world, rounds);
  const auto hist = analysis::unmatched_preceding_probe_octets(prober.log());

  std::printf("# fig03_unmatched_octets: %zu blocks, %d rounds, %llu unmatched responses "
              "attributed\n",
              world->population->blocks().size(), rounds,
              static_cast<unsigned long long>(hist.total()));

  std::printf("\n## unmatched responses by last octet of most recently probed address\n");
  std::printf("octet\tcount\tbroadcast-like\n");
  for (int octet = 0; octet < 256; ++octet) {
    if (hist.counts[static_cast<std::size_t>(octet)] == 0) continue;
    std::printf("%d\t%llu\t%s\n", octet,
                static_cast<unsigned long long>(hist.counts[static_cast<std::size_t>(octet)]),
                net::looks_like_broadcast_octet(static_cast<std::uint8_t>(octet)) ? "yes"
                                                                                  : "no");
  }

  // The paper's reading: spikes on broadcast-like octets over a flat floor.
  const auto spikes = hist.broadcast_like();
  const auto floor = hist.non_broadcast_like();
  std::printf("\n# mass on broadcast-like octets: %llu (%.1f%%); flat floor elsewhere: %llu\n",
              static_cast<unsigned long long>(spikes),
              hist.total() ? 100.0 * spikes / hist.total() : 0.0,
              static_cast<unsigned long long>(floor));
  std::printf("# top spikes (expect 255/0/127/128):\n");
  std::vector<std::pair<std::uint64_t, int>> ranked;
  for (int octet = 0; octet < 256; ++octet) {
    ranked.emplace_back(hist.counts[static_cast<std::size_t>(octet)], octet);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  for (int i = 0; i < 6 && ranked[static_cast<std::size_t>(i)].first > 0; ++i) {
    std::printf("#   octet %d: %llu\n", ranked[static_cast<std::size_t>(i)].second,
                static_cast<unsigned long long>(ranked[static_cast<std::size_t>(i)].first));
  }
  report.add_probes(prober.probes_sent());
  return 0;
}
