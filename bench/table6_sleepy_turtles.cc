// Table 6: ASes with the most addresses whose Zmap RTT exceeds 100 seconds
// ("sleepy turtles"). Paper shape: every AS in the top 10 is cellular;
// ranks are stable across scans but the per-AS percentages fluctuate more
// than the >1 s table's (the 100 s mechanism — buffered disconnection —
// is episodic).
#include <iostream>

#include "as_tables_common.h"
#include "report.h"

using namespace turtle;

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(argc, argv);
  bench::JsonReport report{flags, "table6_sleepy_turtles"};
  auto exp = bench::AsTableExperiment::run(flags, /*default_blocks=*/1600, report);

  const auto rows = analysis::rank_ases(exp.scans, exp.world->population->geo(), 100.0, 10);
  std::printf("# table6_sleepy_turtles: %zu blocks, %zu scans\n",
              exp.world->population->blocks().size(), exp.scans.size());
  std::printf("\nTable 6: ASes ranked by addresses with RTT > 100 s across scans\n");
  bench::print_as_table(std::cout, rows, 100.0);

  std::size_t cellularish = 0;
  std::uint64_t sleepy = 0;
  std::uint64_t responding = 0;
  for (const auto& row : rows) {
    if (row.kind == hosts::AsKind::kCellular || row.kind == hosts::AsKind::kMixed) {
      ++cellularish;
    }
  }
  for (const auto& scan : exp.scans) {
    for (const auto& [addr, rtt] : scan.rtts) {
      ++responding;
      if (rtt > 100.0) ++sleepy;
    }
  }
  std::printf("\n# %zu of top %zu ASes are cellular/mixed (paper: 10 of 10 cellular)\n",
              cellularish, rows.size());
  std::printf("# overall sleepy-turtle incidence: %.3f%% of responding addresses "
              "(paper: ~0.1%%)\n",
              responding ? 100.0 * sleepy / responding : 0.0);
  report.add_probes(exp.probes);
  return 0;
}
