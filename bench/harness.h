// Shared world-building for the benchmark harnesses.
//
// Every bench binary builds the same kind of world: a simulator, a network
// fabric, the synthetic AS catalog, and a host population — then attaches
// whichever prober its experiment needs. The simulator is the world's one
// metrics home: everything built on it counts into its registry. Flags let
// each binary scale the world up or down without recompiling.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>

#include "analysis/pipeline.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "hosts/asdb.h"
#include "hosts/population.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probe/survey.h"
#include "report.h"
#include "sim/network.h"
#include "sim/shard_runner.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "util/prng.h"
#include "util/series.h"
#include "util/stats.h"
#include "util/table.h"

namespace turtle::bench {

/// Attributes peak-RSS growth to a named phase of a bench run. ru_maxrss
/// is a process-lifetime high-water mark, so the delta across a phase is
/// the memory that phase *added* to the peak — zero when the phase fits
/// inside a footprint an earlier phase already established. finish() (or
/// destruction) records "<phase>_peak_rss_delta_bytes" in the --json-out
/// report, so e.g. build-phase and serve-phase footprints are separable
/// in BENCH_results.json instead of one process-wide number.
class PhaseRss {
 public:
  PhaseRss(JsonReport& report, std::string phase)
      : report_{&report}, phase_{std::move(phase)}, before_{peak_rss_bytes()} {}
  PhaseRss(const PhaseRss&) = delete;
  PhaseRss& operator=(const PhaseRss&) = delete;
  ~PhaseRss() { finish(); }

  void finish() {
    if (report_ == nullptr) return;
    report_->set_metric(phase_ + "_peak_rss_delta_bytes", peak_rss_bytes() - before_);
    report_ = nullptr;
  }

 private:
  JsonReport* report_;
  std::string phase_;
  std::int64_t before_;
};

struct World {
  /// The world's clock and metrics home: the network, the population's
  /// probers and the fault injector all count into sim.registry() and
  /// trace into sim.trace().
  sim::Simulator sim;
  /// `&sim.registry()`: the registry passed via WorldOptions (a
  /// JsonReport's merged registry, or a shard's private one), or the
  /// simulator's own when none was. Never null.
  obs::Registry* registry;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<hosts::HostContext> ctx;
  hosts::AsCatalog catalog;
  std::unique_ptr<hosts::Population> population;
  /// The WorldOptions seed this world was built from; prober streams are
  /// forked from it so --seed varies them along with the population.
  util::Prng prober_rng{0};
  /// Fault plan this world runs under (null = clean run). The injector is
  /// installed as the network's fault hook; its randomness is forked from
  /// --fault-seed per world seed, so faults are deterministic per shard
  /// and independent of the workload streams.
  std::shared_ptr<const fault::FaultPlan> fault_plan;
  std::unique_ptr<fault::FaultInjector> fault_injector;

  explicit World(hosts::AsCatalog cat, obs::Registry* external_registry = nullptr,
                 obs::TraceSink* external_trace = nullptr)
      : sim{external_registry, external_trace},
        registry{&sim.registry()},
        catalog{std::move(cat)} {}
};

struct WorldOptions {
  int num_blocks = 400;
  std::uint64_t seed = 1;
  double cellular_share_scale = 1.0;
  double severity_scale = 1.0;
  hosts::PopulationConfig population;  ///< num_blocks/severity overwritten
  sim::Network::Config network;
  /// External observability sinks for the world's simulator. When
  /// `registry` is null the simulator owns a private one (accessible as
  /// world->registry); `trace` null simply disables span recording. Point
  /// these at a JsonReport's sinks (wire_obs) or a ShardContext's.
  obs::Registry* registry = nullptr;
  obs::TraceSink* trace = nullptr;
  /// Optional fault plan (see --fault-plan). Shared so sharded benches can
  /// hand the same parsed plan to every shard's world; each world still
  /// gets its own injector (forked fault randomness, per-shard counters).
  std::shared_ptr<const fault::FaultPlan> fault_plan;
  std::uint64_t fault_seed = 1;
};

/// Builds a fully wired world.
inline std::unique_ptr<World> make_world(WorldOptions options) {
  auto world = std::make_unique<World>(
      hosts::AsCatalog::standard(options.cellular_share_scale, options.severity_scale),
      options.registry, options.trace);
  util::Prng rng{options.seed};
  world->net = std::make_unique<sim::Network>(world->sim, options.network, rng.fork(1));
  if (options.fault_plan != nullptr && !options.fault_plan->empty()) {
    world->fault_plan = options.fault_plan;
    // Fork by the world seed so every shard draws an independent fault
    // stream, yet reruns with the same (--fault-seed, --seed) pair are
    // byte-identical.
    world->fault_injector = std::make_unique<fault::FaultInjector>(
        world->sim, *world->fault_plan,
        util::Prng{options.fault_seed}.fork(options.seed));
    world->net->set_fault_hook(world->fault_injector.get());
  }
  world->ctx = std::make_unique<hosts::HostContext>(
      hosts::HostContext{world->sim, *world->net});
  options.population.num_blocks = options.num_blocks;
  options.population.severity_scale = options.severity_scale;
  world->population = std::make_unique<hosts::Population>(*world->ctx, world->catalog,
                                                          options.population, rng.fork(2));
  world->net->set_host_resolver(world->population.get());
  world->prober_rng = rng.fork(3);
  return world;
}

/// Runs `parse` on what the command line named. Its failure is a usage
/// error, not a crash: prints "error: <context><why>" and exits 2.
template <typename Parse>
auto or_usage_error(const std::string& context, Parse&& parse) -> decltype(parse()) {
  try {
    return parse();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s%s\n", context.c_str(), e.what());
    std::exit(2);
  }
}

/// Loads the fault plan at `path`; `flag` ("--fault-plan=...") names the
/// flag that led there in the usage error a bad plan produces.
inline std::shared_ptr<const fault::FaultPlan> load_fault_plan(const std::string& flag,
                                                               const std::string& path) {
  return or_usage_error(flag + ": ", [&path] {
    return std::make_shared<const fault::FaultPlan>(fault::FaultPlan::load_file(path));
  });
}

/// Applies the --fault-plan <file> / --fault-seed flags (and rejects any
/// other --fault-* flag with the list of valid names). Returns a null plan
/// when --fault-plan is absent: the world runs clean and creates no
/// "fault.*" metrics.
inline std::shared_ptr<const fault::FaultPlan> fault_plan_from_flags(
    const util::Flags& flags) {
  or_usage_error("", [&flags] { fault::check_fault_flags(flags); });
  const std::string path = flags.get_string("fault-plan", "");
  if (path.empty()) return nullptr;
  return load_fault_plan("--fault-plan=" + path, path);
}

/// Applies the common --blocks/--seed/--cellular-scale/--severity flags,
/// plus --fault-plan/--fault-seed (every bench accepts them).
inline WorldOptions world_options_from_flags(const util::Flags& flags,
                                             int default_blocks = 400) {
  WorldOptions options;
  options.num_blocks = static_cast<int>(flags.get_int("blocks", default_blocks));
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  options.cellular_share_scale = flags.get_double("cellular-scale", 1.0);
  options.severity_scale = flags.get_double("severity", 1.0);
  options.fault_plan = fault_plan_from_flags(flags);
  options.fault_seed = static_cast<std::uint64_t>(flags.get_int("fault-seed", 1));
  return options;
}

/// Runs an ISI-style survey over the whole population and drains the
/// simulator (so every delayed response is in the log). The prober's
/// randomness comes from a stream forked off WorldOptions.seed, so --seed
/// varies the probing schedule along with the population (the default
/// used to be a hard-coded 0xBEEF that --seed never reached).
inline probe::SurveyProber run_survey(World& world, int rounds) {
  probe::SurveyConfig config;
  config.rounds = rounds;
  // Crash faults need a checkpoint to resume from.
  if (world.fault_plan != nullptr &&
      world.fault_plan->has_kind(fault::FaultKind::kProberCrash)) {
    config.checkpoints = true;
  }
  probe::SurveyProber prober{world.sim, *world.net, config, world.population->blocks(),
                             world.prober_rng};
  prober.start();
  if (world.fault_injector != nullptr) {
    // The callback only fires inside world.sim.run() below, while `prober`
    // is still live on this frame.
    world.fault_injector->arm([&prober](SimTime restart) { prober.crash(restart); });
  }
  world.sim.run();
  return prober;
}

/// Points WorldOptions at the report's merged observability sinks, so a
/// serial bench's Worlds write straight into the --metrics-out /
/// --trace-out output. Construct the JsonReport before any World: the
/// report must outlive them (Simulator destructors flush gauges).
inline void wire_obs(WorldOptions& options, JsonReport& report) {
  options.registry = &report.registry();
  options.trace = report.trace_sink();
}

/// Sharded variant: per-shard private sinks are created by the runner and
/// merged into the report's in shard order, keeping --metrics-out
/// byte-identical across --jobs values.
inline void wire_obs(sim::ShardOptions& options, JsonReport& report) {
  options.metrics = &report.registry();
  options.trace = report.trace_sink();
}

/// Applies the --jobs flag: how many shards run concurrently. 0 (the
/// default) resolves to hardware concurrency; --jobs=1 runs shards
/// serially on the calling thread, byte-identical to any other value.
inline sim::ShardOptions shard_options_from_flags(const util::Flags& flags,
                                                  const WorldOptions& world_options) {
  sim::ShardOptions options;
  options.jobs = static_cast<int>(flags.get_int("jobs", 0));
  options.seed = world_options.seed;
  return options;
}

/// Survey -> dataset -> filtered pipeline, in one call.
inline analysis::PipelineResult analyze_survey(const probe::SurveyProber& prober,
                                               analysis::PipelineConfig config = {}) {
  auto dataset = analysis::SurveyDataset::from_log(prober.log());
  return analysis::run_pipeline(dataset, config);
}

/// Same, but wired to the world's observability sinks: Table 1 lands in
/// the registry as "pipeline.*" counters and the pipeline contributes a
/// wall-clock span to the trace.
///
/// When the world's fault plan injects record corruption, the analysis
/// consumes the log the way an operator would after a damaged transfer:
/// serialize, flip bits, and reload tolerantly. Corrupt records the loader
/// can detect are counted under "fault.records.load_skipped" and dropped
/// (always equal to "fault.records.detectable"); silent corruptions flow
/// into the pipeline as plausible-but-wrong rows, as they would in life.
inline analysis::PipelineResult analyze_survey(World& world,
                                               const probe::SurveyProber& prober,
                                               analysis::PipelineConfig config = {}) {
  config.registry = world.registry;
  config.trace = world.sim.trace();
  if (world.fault_injector != nullptr && world.fault_injector->corruption_enabled()) {
    std::ostringstream out;
    prober.log().save(out);
    std::string bytes = out.str();
    world.fault_injector->corrupt_record_stream(bytes);
    std::istringstream in{std::move(bytes)};
    probe::RecordLog::LoadStats stats;
    const probe::RecordLog damaged = probe::RecordLog::load(in, &stats);
    world.registry->counter("fault.records.load_skipped").inc(stats.records_dropped());
    auto dataset = analysis::SurveyDataset::from_log(damaged);
    return analysis::run_pipeline(dataset, config);
  }
  return analyze_survey(prober, config);
}

/// Builds the optional CSV export directory from the --csv-dir flag.
inline std::optional<util::CsvDirectory> csv_from_flags(const util::Flags& flags) {
  const std::string dir = flags.get_string("csv-dir", "");
  if (dir.empty()) return std::nullopt;
  return util::CsvDirectory{dir};
}

/// Prints a CDF series as "x fraction" rows under a header; also exports
/// it as CSV when `csv` is set.
inline void print_cdf(std::ostream& os, const char* title,
                      const std::vector<util::CdfPoint>& cdf, std::size_t max_rows = 40,
                      const std::optional<util::CsvDirectory>& csv = std::nullopt) {
  if (csv.has_value()) csv->write_series(title, cdf);
  os << "\n## " << title << "\n";
  const std::size_t step = cdf.size() > max_rows ? cdf.size() / max_rows : 1;
  for (std::size_t i = 0; i < cdf.size(); i += step) {
    os << util::format_double(cdf[i].x, 4) << "\t" << util::format_double(cdf[i].fraction, 4)
       << "\n";
  }
  if (!cdf.empty() && (cdf.size() - 1) % step != 0) {
    os << util::format_double(cdf.back().x, 4) << "\t"
       << util::format_double(cdf.back().fraction, 4) << "\n";
  }
}

}  // namespace turtle::bench
