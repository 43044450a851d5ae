// Table 7: latency/loss patterns around >100 s pings. Addresses whose
// survey p99 exceeded 100 s get a long 1-per-second Scamper stream with
// indefinite (tcpdump-style) capture; every >100 s ping is assigned to a
// classified event. Paper shape: "Loss, then decay" has the most events
// and addresses; "Sustained high latency and loss" holds the most pings;
// isolated >100 s pings are rare.
//
// Phase 1 (selection survey) runs once; the long per-address streams of
// phase 2 are sharded over --shards independent Worlds (same seed, same
// hosts) run concurrently under --jobs. The partition depends only on
// --shards, so output is identical at any concurrency.
#include <iostream>

#include "analysis/patterns.h"
#include "analysis/percentiles.h"
#include "harness.h"
#include "probe/scamper.h"
#include "report.h"

using namespace turtle;

namespace {

struct StreamResult {
  net::Ipv4Address address;
  std::vector<probe::ProbeOutcome> outcomes;
};

struct ShardResult {
  std::vector<StreamResult> streams;  // in candidate order within the chunk
  std::uint64_t probes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "table7_patterns"};
  auto options = bench::world_options_from_flags(flags, 500);
  const int survey_rounds = static_cast<int>(flags.get_int("rounds", 40));
  const int pings = static_cast<int>(flags.get_int("pings", 2000));

  bench::wire_obs(options, report);
  auto world = bench::make_world(options);
  const auto prober = bench::run_survey(*world, survey_rounds);
  report.add_probes(prober.probes_sent());
  const auto result = bench::analyze_survey(*world, prober);

  std::vector<net::Ipv4Address> candidates;
  for (const auto& r : result.addresses) {
    if (r.rtts_s.size() < 10) continue;
    if (util::percentile(r.rtts_s, 99) > 100.0) candidates.push_back(r.address);
  }
  std::printf("# table7_patterns: %zu addresses with survey p99 > 100 s; %d pings each at "
              "1/s\n",
              candidates.size(), pings);

  auto shard_options = bench::shard_options_from_flags(flags, options);
  bench::wire_obs(shard_options, report);
  sim::ShardRunner runner{shard_options};
  report.set_jobs(runner.jobs());
  const std::size_t num_shards = std::max<std::size_t>(
      1, std::min<std::size_t>(candidates.size(),
                               static_cast<std::size_t>(flags.get_int("shards", 8))));

  const auto shard_results =
      runner.run(num_shards, [&](sim::ShardContext& ctx) {
        const std::size_t lo = candidates.size() * ctx.shard_index / ctx.num_shards;
        const std::size_t hi = candidates.size() * (ctx.shard_index + 1) / ctx.num_shards;

        auto shard_world_options = options;
        shard_world_options.registry = ctx.registry;
        shard_world_options.trace = ctx.trace;
        auto shard_world = bench::make_world(shard_world_options);
        probe::ScamperProber scamper{shard_world->sim, *shard_world->net,
                                     net::Ipv4Address::from_octets(198, 51, 100, 12)};
        const SimTime start = SimTime::minutes(2);
        for (std::size_t i = lo; i < hi; ++i) {
          scamper.ping(candidates[i], pings, SimTime::seconds(1),
                       probe::ProbeProtocol::kIcmp, start);
        }
        shard_world->sim.run();

        ShardResult shard;
        shard.probes = scamper.probes_sent();
        for (std::size_t i = lo; i < hi; ++i) {
          shard.streams.push_back(StreamResult{
              candidates[i],
              scamper.results(candidates[i], probe::ScamperProber::kIndefinite)});
        }
        return shard;
      });

  analysis::PatternTable pattern_table;
  std::size_t responded = 0;
  for (const auto& shard : shard_results) {
    report.add_probes(shard.probes);
    for (const auto& stream : shard.streams) {
      bool any = false;
      for (const auto& o : stream.outcomes) any |= o.rtt.has_value();
      if (!any) continue;
      ++responded;
      const auto events = analysis::classify_patterns(stream.outcomes);
      pattern_table.add(stream.address, events);
    }
  }
  std::printf("# %zu of %zu addresses responded (paper: 1400 of 3000)\n", responded,
              candidates.size());

  util::TextTable table({"Pattern", "Pings", "Events", "Addrs"});
  for (const auto& row : pattern_table.rows()) {
    table.add_row({std::string{analysis::to_string(row.pattern)}, std::to_string(row.pings),
                   std::to_string(row.events), std::to_string(row.addresses)});
  }
  std::printf("\nTable 7: patterns of latency and loss near >100 s responses\n");
  table.print(std::cout);
  return 0;
}
