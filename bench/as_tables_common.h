// Shared harness for the AS/continent ranking tables (Tables 4, 5, 6):
// three Zmap scans over one world, deduped per address, ranked by the
// geo database.
#pragma once

#include <iostream>

#include "analysis/as_ranking.h"
#include "zmap_common.h"

namespace turtle::bench {

struct AsTableExperiment {
  std::unique_ptr<World> world;
  std::vector<analysis::ScanAddressRtts> scans;
  std::uint64_t probes = 0;  ///< Zmap probes across all scans

  /// `report` receives the world's metrics/trace directly (wire_obs), so
  /// --metrics-out works on every AS-table bench.
  static AsTableExperiment run(const util::Flags& flags, int default_blocks,
                               JsonReport& report) {
    AsTableExperiment exp;
    auto options = world_options_from_flags(flags, default_blocks);
    wire_obs(options, report);
    exp.world = make_world(options);
    const int scan_count = static_cast<int>(flags.get_int("scans", 3));
    const auto runs = run_zmap_scans(*exp.world, scan_count);
    for (const auto& run : runs) {
      exp.probes += run.probes;
      exp.scans.push_back(analysis::ScanAddressRtts::from_responses(run.responses));
    }
    return exp;
  }
};

/// Prints a Table 4/6-style AS ranking.
inline void print_as_table(std::ostream& os, const std::vector<analysis::AsRankingRow>& rows,
                           double threshold_s) {
  std::vector<std::string> header{"ASN", "Owner", "Kind"};
  for (std::size_t s = 0; s < (rows.empty() ? 0 : rows[0].per_scan.size()); ++s) {
    const std::string n = std::to_string(s + 1);
    header.push_back(">" + util::format_double(threshold_s, 0) + "s (" + n + ")");
    header.push_back("% (" + n + ")");
    header.push_back("Rank (" + n + ")");
  }
  util::TextTable table{header};
  for (const auto& row : rows) {
    std::vector<std::string> cells{std::to_string(row.asn), row.owner,
                                   std::string{hosts::to_string(row.kind)}};
    for (const auto& scan : row.per_scan) {
      cells.push_back(util::format_count(scan.over_threshold));
      cells.push_back(util::format_percent(scan.fraction()));
      cells.push_back(std::to_string(scan.rank));
    }
    table.add_row(std::move(cells));
  }
  table.print(os);
}

}  // namespace turtle::bench
