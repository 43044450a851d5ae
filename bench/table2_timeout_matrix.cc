// Table 2: minimum timeout (seconds) that captures c% of pings from r% of
// addresses, from a simulated ISI-style survey with unmatched-response
// recovery and both filters applied.
//
// Paper shape targets: (50,50) ~ 0.19 s, (95,95) ~ 5 s, (98,98) ~ 41 s,
// (99,99) ~ 145 s; row 1% entirely sub-second; monotone in both axes.
#include <cstdio>
#include <iostream>

#include "analysis/percentiles.h"
#include "analysis/pipeline.h"
#include "harness.h"
#include "report.h"
#include "probe/survey.h"
#include "util/table.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "table2_timeout_matrix"};
  const auto csv = bench::csv_from_flags(flags);
  auto options = bench::world_options_from_flags(flags, /*default_blocks=*/400);
  bench::wire_obs(options, report);
  const int rounds = static_cast<int>(flags.get_int("rounds", 50));

  auto world = bench::make_world(options);
  const auto stats = world->population->stats();
  std::printf("# table2_timeout_matrix: %d blocks, %d rounds, %llu hosts "
              "(%.1f%% cellular, %.1f%% satellite)\n",
              options.num_blocks, rounds, static_cast<unsigned long long>(stats.hosts),
              100.0 * stats.cellular / std::max<std::uint64_t>(stats.hosts, 1),
              100.0 * stats.satellite / std::max<std::uint64_t>(stats.hosts, 1));

  probe::SurveyConfig survey_config;
  survey_config.rounds = rounds;
  probe::SurveyProber prober{world->sim, *world->net, survey_config,
                             world->population->blocks(), util::Prng{options.seed ^ 0xBEEF}};
  prober.start();
  world->sim.run();

  std::printf("# probes=%llu matched=%.1f%% (replies incl. duplicates: %llu)\n",
              static_cast<unsigned long long>(prober.probes_sent()),
              100.0 * prober.match_rate(),
              static_cast<unsigned long long>(prober.responses_received()));

  auto dataset = analysis::SurveyDataset::from_log(prober.log());
  analysis::PipelineConfig pipeline_config;
  pipeline_config.registry = world->registry;
  pipeline_config.trace = world->sim.trace();
  const auto result = analysis::run_pipeline(dataset, pipeline_config);
  std::printf("# addresses: %zu kept, %zu broadcast-flagged, %zu duplicate-flagged\n",
              result.addresses.size(), result.broadcast_flagged.size(),
              result.duplicate_flagged.size());

  const auto per_address = analysis::PerAddressPercentiles::compute(
      result.addresses, util::kPaperPercentiles, /*min_samples=*/10);
  const auto matrix =
      analysis::TimeoutMatrix::compute(per_address, util::kPaperPercentiles);

  util::TextTable table({"addr% \\ ping%", "1%", "50%", "80%", "90%", "95%", "98%", "99%"});
  for (std::size_t r = 0; r < matrix.row_percentiles.size(); ++r) {
    std::vector<std::string> row;
    row.push_back(util::format_double(matrix.row_percentiles[r], 0) + "%");
    for (std::size_t c = 0; c < matrix.col_percentiles.size(); ++c) {
      row.push_back(util::format_double(matrix.cell(r, c), matrix.cell(r, c) < 10 ? 2 : 0));
    }
    table.add_row(std::move(row));
  }
  std::printf("\nTable 2: minimum timeout (s) capturing c%% of pings from r%% of addresses\n");
  if (csv.has_value()) csv->write_table("table2_timeout_matrix", table);
  table.print(std::cout);
  report.add_probes(prober.probes_sent());
  return 0;
}
