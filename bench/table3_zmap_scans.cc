// Table 3: Zmap scan inventory — one row per scan with its (simulated)
// start time and the number of destinations that responded. Paper shape:
// every scan recovers a consistent response count (339M-371M there; a
// stable count at our scale).
//
// The paper's 17 scans are independent, so each runs as its own shard
// (--jobs N) in its own World fast-forwarded to the scan date; rows merge
// in scan order.
#include <iostream>

#include <set>

#include "report.h"
#include "zmap_common.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "table3_zmap_scans"};
  const auto options = bench::world_options_from_flags(flags, 600);
  const int scans = static_cast<int>(flags.get_int("scans", 6));

  auto shard_options = bench::shard_options_from_flags(flags, options);
  bench::wire_obs(shard_options, report);
  report.set_jobs(sim::ShardRunner{shard_options}.jobs());
  const auto runs = bench::run_zmap_scans_sharded(options, shard_options, scans,
                                                  SimTime::hours(1), SimTime::hours(36));

  util::TextTable table({"Scan", "Begin (sim h)", "Probes", "Echo responses (unique addrs)"});
  std::uint64_t min_count = ~0ULL;
  std::uint64_t max_count = 0;

  for (const auto& run : runs) {
    report.add_probes(run.probes);
    std::set<std::uint32_t> unique;
    for (const auto& r : run.responses) unique.insert(r.responder.value());
    min_count = std::min<std::uint64_t>(min_count, unique.size());
    max_count = std::max<std::uint64_t>(max_count, unique.size());

    table.add_row({run.label, util::format_double(run.begin.as_seconds() / 3600.0, 1),
                   std::to_string(run.probes), std::to_string(unique.size())});
  }

  std::printf("# table3_zmap_scans: %d blocks, %d scans\n", options.num_blocks, scans);
  std::printf("\nTable 3: Zmap scan details\n");
  table.print(std::cout);
  std::printf("\n# response-count stability: min %llu, max %llu (%.1f%% spread; paper's "
              "scans spread ~9%%)\n",
              static_cast<unsigned long long>(min_count),
              static_cast<unsigned long long>(max_count),
              min_count ? 100.0 * (max_count - min_count) / min_count : 0.0);
  return 0;
}
