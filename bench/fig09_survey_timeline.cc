// Figure 9: survey-over-time. Top panel: the minimum timeout needed to
// capture the c-th percentile sample from the c-th percentile address, per
// survey, 2006-2015. Bottom panel: per-survey response rate by vantage.
// Paper shape: the 95/98/99% timeouts climb steadily after 2011 (the 99%
// from ~20 s to ~140 s); the median stays near 0.2 s; response rates sit
// near 20% except a few broken vantage-point surveys near zero (which are
// excluded from the top panel).
//
// Mechanism here: the cellular share and episode severity of the synthetic
// Internet grow year over year, which is the paper's own explanation for
// the trend.
//
// Each year's survey is an independent World, so the years run as shards
// (--jobs N); rows are merged in year order, making the output identical
// for every jobs value.
#include <iostream>

#include "analysis/percentiles.h"
#include "harness.h"
#include "report.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "fig09_survey_timeline"};
  const int blocks = static_cast<int>(flags.get_int("blocks", 150));
  const int rounds = static_cast<int>(flags.get_int("rounds", 40));
  const int years = static_cast<int>(flags.get_int("years", 10));  // 2006..2015
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  // Parsed once, shared read-only by every shard; each shard's world forks
  // its own injector stream from (fault_seed, world seed).
  const auto fault_plan = bench::fault_plan_from_flags(flags);
  const auto fault_seed = static_cast<std::uint64_t>(flags.get_int("fault-seed", 1));

  std::printf("# fig09_survey_timeline: %d surveys of %d blocks x %d rounds\n", years, blocks,
              rounds);

  // Vantage points (Marina del Rey, Ft. Collins, Fujisawa-shi, Athens)
  // differ in wide-area transit to the probed population; the letters
  // carry real per-vantage base delays, as the per-survey medians in the
  // paper's bottom panel do.
  struct Vantage {
    const char* letter;
    std::int64_t transit_ms;
  };
  const Vantage vantages[] = {{"w", 8}, {"c", 12}, {"j", 85}, {"g", 70}};

  struct YearResult {
    std::vector<std::string> row;
    double p99 = -1.0;  // < 0: excluded (broken vantage)
    std::uint64_t probes = 0;
  };

  sim::ShardOptions shard_options;
  shard_options.jobs = static_cast<int>(flags.get_int("jobs", 0));
  shard_options.seed = seed;
  bench::wire_obs(shard_options, report);
  sim::ShardRunner runner{shard_options};
  report.set_jobs(runner.jobs());

  const auto results =
      runner.run(static_cast<std::size_t>(years), [&](sim::ShardContext& ctx) {
        const int y = static_cast<int>(ctx.shard_index);
        const int year = 2006 + y;
        // Cellular share grows from ~35% to ~130% of the 2015 default;
        // severity likewise — the drivers of the paper's trend.
        const double frac = static_cast<double>(y) / std::max(years - 1, 1);
        bench::WorldOptions options;
        options.num_blocks = blocks;
        options.seed = seed + static_cast<std::uint64_t>(y);
        options.cellular_share_scale = 0.35 + 1.0 * frac;
        options.severity_scale = 0.5 + 0.8 * frac;
        options.fault_plan = fault_plan;
        options.fault_seed = fault_seed;

        options.network.transit_base = SimTime::millis(vantages[y % 4].transit_ms);

        // One survey per year; the broken-vantage surveys of 2014 (paper's
        // IT59j etc.) are modeled with a near-total-loss network.
        const bool broken = (year == 2014);
        if (broken) options.network.core_loss = 0.999;

        options.registry = ctx.registry;
        options.trace = ctx.trace;
        auto world = bench::make_world(options);
        const auto prober = bench::run_survey(*world, rounds);
        const double rate = prober.match_rate();

        YearResult result;
        result.probes = prober.probes_sent();
        result.row = {"IT" + std::to_string(year), vantages[y % 4].letter,
                      util::format_percent(rate)};
        if (broken || rate < 0.01) {
          // Paper: "these data sets should not be considered further".
          result.row.insert(result.row.end(), {"-", "-", "-", "-", "-", "-"});
          return result;
        }

        const auto analyzed = bench::analyze_survey(*world, prober);
        const auto pap = analysis::PerAddressPercentiles::compute(
            analyzed.addresses, util::kPaperPercentiles, 10);
        const auto matrix = analysis::TimeoutMatrix::compute(pap, util::kPaperPercentiles);
        // Diagonal cells: c% of pings from c% of addresses.
        for (std::size_t c = 1; c < matrix.col_percentiles.size(); ++c) {
          result.row.push_back(
              util::format_double(matrix.cell(c, c), matrix.cell(c, c) < 10 ? 2 : 0));
        }
        result.p99 = matrix.cell(6, 6);
        return result;
      });

  util::TextTable table({"survey", "vantage", "resp rate %", "min timeout @50%", "@80%",
                         "@90%", "@95%", "@98%", "@99%"});
  std::vector<double> p99_by_year;
  for (const auto& result : results) {
    table.add_row(result.row);
    if (result.p99 >= 0) p99_by_year.push_back(result.p99);
    report.add_probes(result.probes);
  }

  table.print(std::cout);

  if (p99_by_year.size() >= 4) {
    const double early = p99_by_year[1];
    const double late = p99_by_year.back();
    std::printf("\n# 99%%/99%% minimum timeout grew %.1fx across the period "
                "(paper: ~20 s in 2011 -> ~140 s in 2013+)\n",
                early > 0 ? late / early : 0.0);
  }
  return 0;
}
