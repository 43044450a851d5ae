// Shared Zmap-scan machinery for the bench harnesses: run N full-population
// scans (the paper's Table 3 inventory ran 17 across April–July 2015;
// Tables 4–6 use three of them).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "probe/zmap.h"

namespace turtle::bench {

struct ScanRun {
  std::string label;
  std::uint64_t probes = 0;  ///< probes this scan sent
  SimTime begin;             ///< simulated start of the scan
  std::vector<probe::ZmapResponse> responses;
};

/// Runs `count` sequential scans over the world's population. Host state
/// (radio processes, congestion episodes) evolves across scans in
/// simulated time, so scans differ the way differently-dated real scans
/// do. Each scan fully drains before the next starts.
inline std::vector<ScanRun> run_zmap_scans(World& world, int count,
                                           SimTime scan_duration = SimTime::hours(1),
                                           SimTime gap = SimTime::hours(12)) {
  std::vector<ScanRun> runs;
  const auto blocks = world.population->blocks();
  for (int i = 0; i < count; ++i) {
    probe::ZmapConfig config;
    config.scan_duration = scan_duration;
    config.permutation_seed = static_cast<std::uint64_t>(i) + 1;
    auto scanner = std::make_unique<probe::ZmapScanner>(world.sim, *world.net, config);
    // Every scan counts into the world's one "zmap.probes_sent" cell, so a
    // scan's own probes are the cell's growth across it.
    const std::uint64_t probes_before = scanner->probes_sent();
    ScanRun run;
    run.begin = world.sim.now();
    scanner->start(blocks);
    world.sim.run();  // drain: every late response is in

    run.label = "scan " + std::to_string(i + 1);
    run.probes = scanner->probes_sent() - probes_before;
    run.responses = scanner->responses();
    runs.push_back(std::move(run));

    world.sim.run_until(world.sim.now() + gap);
  }
  return runs;
}

/// Sharded equivalent: the paper's scans are independent probing passes
/// over the same Internet at different dates, so each scan gets its own
/// World (same WorldOptions, hence the same population and host behavior
/// streams) fast-forwarded to that scan's start date before probing. The
/// shard partition is fixed — one scan per shard — so output is identical
/// for every --jobs value; only wall-clock time changes. Results come back
/// in scan order.
inline std::vector<ScanRun> run_zmap_scans_sharded(const WorldOptions& world_options,
                                                   const sim::ShardOptions& shard_options,
                                                   int count,
                                                   SimTime scan_duration = SimTime::hours(1),
                                                   SimTime gap = SimTime::hours(12)) {
  sim::ShardRunner runner{shard_options};
  return runner.run(static_cast<std::size_t>(count), [&](sim::ShardContext& ctx) {
    // Each shard writes into its private ShardContext sinks; the runner
    // merges them into ShardOptions::metrics/trace in scan order.
    WorldOptions shard_world_options = world_options;
    shard_world_options.registry = ctx.registry;
    shard_world_options.trace = ctx.trace;
    auto world = make_world(shard_world_options);
    // Advance to this scan's date: host radio schedules and congestion
    // episodes evolve exactly as they would have under the serial runner's
    // shared clock (minus the probing load of the earlier scans).
    world->sim.run_until((scan_duration + gap) * static_cast<std::int64_t>(ctx.shard_index));

    probe::ZmapConfig config;
    config.scan_duration = scan_duration;
    config.permutation_seed = ctx.shard_index + 1;
    probe::ZmapScanner scanner{world->sim, *world->net, config};
    ScanRun run;
    run.begin = world->sim.now();
    scanner.start(world->population->blocks());
    world->sim.run();  // drain: every late response is in

    run.label = "scan " + std::to_string(ctx.shard_index + 1);
    run.probes = scanner.probes_sent();
    run.responses = scanner.responses();
    return run;
  });
}

}  // namespace turtle::bench
