// Ablation: Thunderping-style multi-vantage monitoring vs the timeout
// choice. Sweeps vantage count x timeout policy over an always-alive
// population; every "unresponsive" declaration is false. Expected shape:
// more vantage points help (independent loss, plus the first vantage's
// probe wakes cellular radios for the others), but even k=3 with a short
// timeout cannot match a single listening prober on cellular targets —
// retries are not independent samples of wake-up latency, as the paper
// notes ("whatever caused the first one to be delayed is likely to cause
// the followup pings to be delayed as well").
//
// Each configuration builds its own World, so the sweep runs as shards
// (--jobs N); rows merge in configuration order.
#include <iostream>

#include "core/multivantage.h"
#include "harness.h"
#include "report.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "ablation_multivantage"};
  auto options = bench::world_options_from_flags(flags, 80);
  const int rounds = static_cast<int>(flags.get_int("rounds", 6));

  struct Config {
    const char* label;
    std::size_t vantage_count;
    SimTime timeout;
    bool listen;
  };
  const Config configs[] = {
      {"k=1, 3s timeout", 1, SimTime::seconds(3), false},
      {"k=3, 1s timeout", 3, SimTime::seconds(1), false},
      {"k=3, 3s timeout (Thunderping)", 3, SimTime::seconds(3), false},
      {"k=1, 3s + listen 60s", 1, SimTime::seconds(3), true},
      {"k=3, 3s + listen 60s", 3, SimTime::seconds(3), true},
  };

  struct Row {
    std::string label;
    core::MultiVantageMonitor::Stats stats;
    std::uint64_t cellular_rounds = 0;
    std::uint64_t cellular_false = 0;
  };

  auto shard_options = bench::shard_options_from_flags(flags, options);
  bench::wire_obs(shard_options, report);
  sim::ShardRunner runner{shard_options};
  report.set_jobs(runner.jobs());

  const auto rows = runner.run(std::size(configs), [&](sim::ShardContext& ctx) {
    const Config& config_spec = configs[ctx.shard_index];
    auto shard_world_options = options;
    shard_world_options.registry = ctx.registry;
    shard_world_options.trace = ctx.trace;
    auto world = bench::make_world(shard_world_options);
    core::MultiVantageConfig config;
    config.vantages.clear();
    for (std::size_t v = 0; v < config_spec.vantage_count; ++v) {
      config.vantages.push_back(
          net::Ipv4Address::from_octets(192, 0, 2, static_cast<std::uint8_t>(41 + v)));
    }
    config.rounds = rounds;
    config.retries = 10;  // Thunderping's retry budget
    config.probe_timeout = config_spec.timeout;
    config.listen_longer = config_spec.listen;
    core::MultiVantageMonitor monitor{world->sim, *world->net, config};
    monitor.start(world->population->responsive_addresses());
    world->sim.run();

    Row row{config_spec.label, monitor.stats(), 0, 0};
    for (const auto& outcome : monitor.outcomes()) {
      const auto* host = world->population->host_at(outcome.target);
      if (host == nullptr || host->profile().type != hosts::HostType::kCellular) continue;
      ++row.cellular_rounds;
      if (outcome.declared_unresponsive) ++row.cellular_false;
    }
    return row;
  });

  std::printf("# ablation_multivantage: %d blocks, %d rounds, every target alive — all "
              "declarations are false\n",
              options.num_blocks, rounds);
  util::TextTable table({"configuration", "target-rounds", "false unresponsive", "false %",
                         "cellular false %", "probes", "late responses"});
  for (const auto& row : rows) {
    report.add_probes(row.stats.probes_sent);
    const auto& s = row.stats;
    table.add_row(
        {row.label, std::to_string(s.target_rounds), std::to_string(s.unresponsive_declared),
         util::format_percent(s.target_rounds ? static_cast<double>(s.unresponsive_declared) /
                                                    s.target_rounds
                                              : 0),
         util::format_percent(row.cellular_rounds
                                  ? static_cast<double>(row.cellular_false) / row.cellular_rounds
                                  : 0),
         std::to_string(s.probes_sent), std::to_string(s.late_responses)});
  }
  table.print(std::cout);
  return 0;
}
