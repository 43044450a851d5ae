// Table 5: continents ranked by turtle addresses (RTT > 1 s) across three
// Zmap scans. Paper shape: South America and Asia account for ~75% of all
// turtles; ~27% of South American and ~30% of African addresses are
// turtles while North America sits near 1%.
#include <iostream>

#include "as_tables_common.h"
#include "report.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "table5_continents"};
  auto exp = bench::AsTableExperiment::run(flags, /*default_blocks=*/1200, report);

  const auto rows = analysis::rank_continents(exp.scans, exp.world->population->geo(), 1.0);
  std::printf("# table5_continents: %zu blocks, %zu scans\n",
              exp.world->population->blocks().size(), exp.scans.size());

  std::vector<std::string> header{"Continent"};
  for (std::size_t s = 0; s < exp.scans.size(); ++s) {
    header.push_back(">1s (" + std::to_string(s + 1) + ")");
    header.push_back("% (" + std::to_string(s + 1) + ")");
  }
  util::TextTable table{header};
  std::uint64_t total_turtles = 0;
  std::uint64_t top2 = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    std::vector<std::string> cells{std::string{hosts::to_string(row.continent)}};
    for (const auto& scan : row.per_scan) {
      cells.push_back(util::format_count(scan.over_threshold));
      cells.push_back(util::format_percent(scan.fraction()));
    }
    table.add_row(std::move(cells));
    total_turtles += row.total;
    if (i < 2) top2 += row.total;
  }
  std::printf("\nTable 5: continents ranked by addresses with RTT > 1 s\n");
  table.print(std::cout);
  std::printf("\n# top-2 continents hold %.0f%% of turtles (paper: ~75%%)\n",
              total_turtles ? 100.0 * top2 / total_turtles : 0.0);
  report.add_probes(exp.probes);
  return 0;
}
