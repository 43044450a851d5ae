// Table 1: packet/address accounting through the matching pipeline —
// survey-detected, naive matching, broadcast responses, duplicate
// responses, survey + delayed. Paper shape: naive matching adds ~1.3% of
// packets; ~0.8% of addresses are discarded (roughly 1/3 broadcast, 2/3
// duplicates); the final row nets more packets but fewer addresses than
// survey-detected.
#include <iostream>

#include "harness.h"
#include "report.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "table1_matching"};
  auto options = bench::world_options_from_flags(flags, 400);
  bench::wire_obs(options, report);
  auto world = bench::make_world(options);
  const int rounds = static_cast<int>(flags.get_int("rounds", 50));

  const auto prober = bench::run_survey(*world, rounds);
  std::printf("# table1_matching: %zu blocks, %d rounds, %llu probes\n",
              world->population->blocks().size(), rounds,
              static_cast<unsigned long long>(prober.probes_sent()));

  const auto result = bench::analyze_survey(*world, prober);
  const auto& c = result.counters;

  util::TextTable table({"", "Packets", "Addresses"});
  table.add_row({"Survey-detected", std::to_string(c.survey_detected_packets),
                 std::to_string(c.survey_detected_addresses)});
  table.add_row({"Naive matching", std::to_string(c.naive_packets),
                 std::to_string(c.naive_addresses)});
  table.add_row({"Broadcast responses", std::to_string(c.broadcast_packets),
                 std::to_string(c.broadcast_addresses)});
  table.add_row({"Duplicate responses", std::to_string(c.duplicate_packets),
                 std::to_string(c.duplicate_addresses)});
  table.add_row({"Survey + Delayed", std::to_string(c.combined_packets),
                 std::to_string(c.combined_addresses)});
  std::printf("\nTable 1: adding unmatched responses to survey-detected responses\n");
  table.print(std::cout);

  const double naive_gain =
      c.survey_detected_packets
          ? 100.0 * (static_cast<double>(c.naive_packets) / c.survey_detected_packets - 1.0)
          : 0.0;
  const double discarded =
      c.naive_addresses
          ? 100.0 * static_cast<double>(c.broadcast_addresses + c.duplicate_addresses) /
                c.naive_addresses
          : 0.0;
  std::printf("\n# naive matching adds %.2f%% packets (paper: +1.3%%)\n", naive_gain);
  std::printf("# %.2f%% of addresses discarded (paper: 0.77%%; split %llu broadcast / %llu "
              "duplicate, paper split 32%%/68%%)\n",
              discarded, static_cast<unsigned long long>(c.broadcast_addresses),
              static_cast<unsigned long long>(c.duplicate_addresses));
  report.add_probes(prober.probes_sent());
  return 0;
}
