// Ablation: what the paper's timeout advice means for a real consumer —
// Trinocular-style block-level outage detection. The same monitored
// blocks (no real outages ever happen) are watched with the conventional
// 3 s probe timeout and with listen-longer probing. Expected shape:
// cellular-heavy blocks produce false down-rounds and inflated adaptive
// probe budgets under the short timeout; listening converts both into
// late saves. Availabilities are learned from a prior survey, exactly as
// the real system bootstraps from census history.
#include <iostream>
#include <map>

#include "core/trinocular.h"
#include "harness.h"
#include "report.h"
#include "probe/census.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "ablation_block_outage"};
  auto options = bench::world_options_from_flags(flags, 250);
  bench::wire_obs(options, report);
  const int rounds = static_cast<int>(flags.get_int("rounds", 12));
  const int survey_rounds = static_cast<int>(flags.get_int("census-passes", 20));

  struct Row {
    std::string label;
    core::TrinocularMonitor::Stats stats;
    std::uint64_t cellular_block_rounds = 0;
    std::uint64_t cellular_down_rounds = 0;
  };
  std::vector<Row> rows;
  std::uint64_t total_probes = 0;

  const auto run = [&](const char* label, SimTime timeout, bool listen) {
    auto world = bench::make_world(options);

    // Bootstrap ever-responsive sets E(b) and availabilities A(E(b)) from
    // a census pass, exactly as the real system does.
    probe::CensusConfig census_config;
    census_config.passes = std::max(2, survey_rounds / 10);
    census_config.pass_duration = SimTime::hours(1);
    probe::CensusProber census{world->sim, *world->net, census_config};
    census.start(world->population->blocks());
    world->sim.run();

    std::vector<core::MonitoredBlock> monitored;
    std::map<std::uint32_t, bool> is_cellular_block;
    for (const auto& aggregate : census.block_aggregates()) {
      if (aggregate.ever_responsive < 2) continue;
      core::MonitoredBlock mb;
      mb.prefix = aggregate.prefix;
      mb.ever_responsive = census.block_responsive(aggregate.prefix);
      mb.availability = aggregate.mean_availability();
      const auto* as = world->population->geo().lookup(mb.prefix.address(1));
      is_cellular_block[mb.prefix.network()] =
          as != nullptr &&
          (as->kind == hosts::AsKind::kCellular || as->kind == hosts::AsKind::kMixed);
      monitored.push_back(std::move(mb));
    }

    core::TrinocularConfig config;
    config.rounds = rounds;
    config.probe_timeout = timeout;
    config.listen_longer = listen;
    core::TrinocularMonitor monitor{world->sim, *world->net, config,
                                    util::Prng{options.seed ^ 0x7777}};
    monitor.start(std::move(monitored));
    world->sim.run();

    total_probes += census.probes_sent() + monitor.stats().probes_sent;
    Row row{label, monitor.stats(), 0, 0};
    for (const auto& outcome : monitor.outcomes()) {
      if (!is_cellular_block[outcome.prefix.network()]) continue;
      ++row.cellular_block_rounds;
      if (outcome.down) ++row.cellular_down_rounds;
    }
    rows.push_back(std::move(row));
  };

  run("timeout 1s", SimTime::seconds(1), false);
  run("timeout 3s (Trinocular)", SimTime::seconds(3), false);
  run("3s + listen 60s (paper)", SimTime::seconds(3), true);

  std::printf("# ablation_block_outage: %d blocks monitored for %d rounds; NO real outages "
              "occur — every down-round is false\n",
              options.num_blocks, rounds);
  util::TextTable table({"configuration", "block-rounds", "false down-rounds", "false %",
                         "cellular false %", "probes", "probes/round", "late saves"});
  for (const auto& row : rows) {
    const auto& s = row.stats;
    table.add_row(
        {row.label, std::to_string(s.block_rounds), std::to_string(s.down_rounds),
         util::format_percent(s.block_rounds ? static_cast<double>(s.down_rounds) /
                                                   s.block_rounds
                                             : 0),
         util::format_percent(row.cellular_block_rounds
                                  ? static_cast<double>(row.cellular_down_rounds) /
                                        row.cellular_block_rounds
                                  : 0),
         std::to_string(s.probes_sent),
         util::format_double(s.block_rounds ? static_cast<double>(s.probes_sent) /
                                                  s.block_rounds
                                            : 0,
                             2),
         std::to_string(s.late_saves)});
  }
  table.print(std::cout);
  report.add_probes(total_probes);
  return 0;
}
