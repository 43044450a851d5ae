// Set-up shared by the daemon workloads: generate a survey log, build
// snapshot files with serve::build_snapshot_file, map them in-process to
// compute the reference answer of every distinct query, start turtled.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "daemon_process.h"
#include "hosts/asdb.h"
#include "inputs.h"
#include "replay.h"
#include "serve/snapshot_builder.h"
#include "spans.h"
#include "workloads.h"

namespace turtlebench {

/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// Independent sub-seed `k` of the workload seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k);

struct BuiltSnapshot {
  std::string path;
  std::shared_ptr<const turtle::serve::OracleSnapshot> mapped;
  turtle::serve::BuildLedger ledger;
  double build_s = 0;
  double map_ms = 0;
  std::uint64_t bytes = 0;
};

struct DaemonSetup {
  turtle::hosts::AsCatalog catalog = turtle::hosts::AsCatalog::standard();
  /// Version i + 1 lives at index i; all share one block layout and size.
  std::vector<BuiltSnapshot> snapshots;
  QueryStream stream;
  /// expected[i][pool index]: snapshot i's answer line.
  std::vector<std::vector<std::string>> expected;
  std::unique_ptr<DaemonProcess> daemon;
  double seconds = 0;  ///< wall time of the whole set-up
};

/// Builds `versions` snapshot files of `shape` (same blocks, RTTs drawn
/// per version), the query stream, the reference answers, and starts
/// turtled serving version 1.
std::unique_ptr<DaemonSetup> set_up_daemon(const Options& options, const SurveyShape& shape,
                                           int versions, const QueryMix& mix,
                                           std::size_t stream_length, SpanLog& spans);

/// Runs set_up_daemon `repeats` times (stopping the earlier daemons) and
/// keeps the last; `setup_s` receives the median set-up time.
std::unique_ptr<DaemonSetup> set_up_daemon_median(const Options& options,
                                                  const SurveyShape& shape, int versions,
                                                  const QueryMix& mix, std::size_t stream_length,
                                                  SpanLog& spans, int repeats, double& setup_s,
                                                  Outcome& outcome);

/// QUITs the daemon and checks its ledger: serve.offered == served + shed
/// + queued and daemon.conn.accepted == closed. Returns the dump.
turtle::util::JsonValue stop_daemon(DaemonSetup& setup, Outcome& outcome);

/// turtled's and the client's /proc figures around an untraced phase.
struct PhaseUsage {
  ProcSample daemon_before;
  ProcSample daemon_after;
  ProcSample client_before;
  ProcSample client_after;
  double wall_s = 0;
  std::uint64_t requests = 0;
};

/// Zeroes every per-layer metric, then sets the serve.* and daemon.* ones
/// both daemon workloads share: snapshot build and map, in-process lookups
/// and replay, the QUIT dump, and the processes' CPU over the phase.
void set_daemon_layers(MetricSet& m, const BuiltSnapshot& snap, const LookupTimes& lookups,
                       const ReplayTimes& replay, const turtle::util::JsonValue& dump,
                       const PhaseUsage& usage);

}  // namespace turtlebench
