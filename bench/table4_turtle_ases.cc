// Table 4: Autonomous Systems with the most addresses whose Zmap RTT
// exceeds 1 second ("turtles"), summed across three scans. Paper shape:
// the top 10 is dominated by cellular carriers with ~55-80% turtle
// fractions; one mixed AS shows a low-30s% fraction and one national
// backbone makes the list purely on size with ~1%.
#include <iostream>

#include "as_tables_common.h"
#include "report.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "table4_turtle_ases"};
  auto exp = bench::AsTableExperiment::run(flags, /*default_blocks=*/1200, report);

  const auto rows = analysis::rank_ases(exp.scans, exp.world->population->geo(), 1.0, 10);
  std::printf("# table4_turtle_ases: %zu blocks, %zu scans\n",
              exp.world->population->blocks().size(), exp.scans.size());
  std::printf("\nTable 4: ASes ranked by addresses with RTT > 1 s across scans\n");
  bench::print_as_table(std::cout, rows, 1.0);

  std::size_t cellularish = 0;
  for (const auto& row : rows) {
    if (row.kind == hosts::AsKind::kCellular || row.kind == hosts::AsKind::kMixed) {
      ++cellularish;
    }
  }
  std::printf("\n# %zu of top %zu ASes are cellular/mixed (paper: 8-9 of 10)\n", cellularish,
              rows.size());
  report.add_probes(exp.probes);
  return 0;
}
