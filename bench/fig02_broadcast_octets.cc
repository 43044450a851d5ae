// Figure 2: last octets of probed destinations that solicited a Zmap
// response from a *different* source address. Paper shape: spikes at
// octets whose trailing N >= 2 bits are uniform (255, 0, 127, 128, 63, 64,
// 191, 192), nearly nothing on trailing-'01'/'10' octets.
#include <iostream>

#include "analysis/broadcast_octets.h"
#include "zmap_common.h"
#include "report.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "fig02_broadcast_octets"};
  auto options = bench::world_options_from_flags(flags, 1200);
  bench::wire_obs(options, report);
  auto world = bench::make_world(options);

  const auto runs = bench::run_zmap_scans(*world, 1);
  const auto& responses = runs[0].responses;
  const auto hist = analysis::zmap_mismatch_octets(responses);
  const auto addresses = analysis::zmap_broadcast_addresses(responses);
  const auto responders = analysis::zmap_broadcast_responders(responses);

  std::printf("# fig02_broadcast_octets: %zu blocks scanned, %llu responses\n",
              world->population->blocks().size(),
              static_cast<unsigned long long>(responses.size()));
  std::printf("# broadcast addresses detected: %zu; broadcast responders: %zu "
              "(ground truth responders: %zu)\n",
              addresses.size(), responders.size(),
              world->population->broadcast_responders().size());

  std::printf("\n## mismatching responses by probed destination's last octet\n");
  std::printf("octet\tcount\tbroadcast-like\n");
  for (int octet = 0; octet < 256; ++octet) {
    if (hist.counts[static_cast<std::size_t>(octet)] == 0) continue;
    std::printf("%d\t%llu\t%s\n", octet,
                static_cast<unsigned long long>(hist.counts[static_cast<std::size_t>(octet)]),
                net::looks_like_broadcast_octet(static_cast<std::uint8_t>(octet)) ? "yes"
                                                                                  : "no");
  }
  std::printf("\n# mass on broadcast-like octets: %.1f%% (paper: overwhelmingly dominant)\n",
              hist.total() ? 100.0 * hist.broadcast_like() / hist.total() : 0.0);
  report.add_probes(runs[0].probes);
  return 0;
}
