// Seeded inputs for the daemon workloads: survey record logs, the
// snapshot files built from them, and query streams. `turtled` receives
// nothing else, so the workload seed fixes every byte it sees.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hosts/asdb.h"
#include "hosts/geodb.h"
#include "serve/oracle_snapshot.h"
#include "serve/snapshot_builder.h"

namespace turtlebench {

/// Shape of a synthetic survey: `blocks` /24s from 10.0.0.0 upwards,
/// `addrs` answering addresses (.1 ..) per block, one ping per address per
/// round. With the defaults every block holds 40 samples, enough for the
/// per-/24 tier, and every address 10, enough for the Table 2 matrix.
struct SurveyShape {
  int blocks = 400;
  int addrs = 4;
  int rounds = 10;
};

/// Writes a record log for `shape` to `path` with RTTs drawn from `seed`:
/// each block gets its own lognormal base delay, each ping jitter around
/// it, so blocks answer differently. Returns the record count.
std::uint64_t synthesize_log(const std::string& path, const SurveyShape& shape,
                             std::uint64_t seed);

/// Assigns every block of `shape` to an AS of `catalog`, seeded.
[[nodiscard]] std::unique_ptr<turtle::hosts::GeoDatabase> make_geo(
    const turtle::hosts::AsCatalog& catalog, const SurveyShape& shape, std::uint64_t seed);

/// Scope mix of a query stream, as shares of requests; `zipf_s` > 0 skews
/// block popularity (rank^-s), 0 draws blocks uniformly.
struct QueryMix {
  double as_share = 0;
  double global_share = 0;
  bool explicit_block_scope = false;  ///< write `scope=block` on block queries
  double zipf_s = 0;
};

/// The requests of one workload: `pool` holds each distinct request line
/// once (no terminator), `order` the pool index of every request sent.
struct QueryStream {
  std::vector<std::string> pool;
  std::vector<std::uint32_t> order;
};

[[nodiscard]] QueryStream make_query_stream(const SurveyShape& shape, const QueryMix& mix,
                                            std::size_t length, std::uint64_t seed);

/// The reference answer line for every pool entry, computed in-process
/// from `snapshot` with the daemon's own codec (`turtlectl --local`).
[[nodiscard]] std::vector<std::string> expected_answers(
    const turtle::serve::OracleSnapshot& snapshot, const std::vector<std::string>& pool);

}  // namespace turtlebench
