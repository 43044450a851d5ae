// The benchmark's three workloads. Each sets itself up from the seed,
// measures for the requested time, checks every answer it receives, and
// fills a MetricSet: end-to-end metrics when untraced, per-layer metrics
// (with spans) when traced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "spans.h"

namespace turtlebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string turtled;   ///< path of the daemon binary
  std::string work_dir;   ///< directory for inputs and daemon logs
  std::string trace_out;  ///< Chrome trace of a traced run (optional)
  std::string git_rev;
};

struct Outcome {
  /// False when any answer was wrong or a ledger did not close.
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricSet metrics;
  std::vector<std::string> errors;

  void fail(std::string message) {
    correct = false;
    errors.push_back(std::move(message));
  }
};

/// Per-layer metric names every traced run reports; a workload fills the
/// layers on its path and leaves the others at 0.
[[nodiscard]] const std::vector<Metric>& per_layer_metrics();

Outcome run_tcp_pipelined(const Options& options, SpanLog& spans);
Outcome run_udp_open_loop(const Options& options, SpanLog& spans);
Outcome run_repro_survey(const Options& options, SpanLog& spans);

/// Latency limit behind max_qps_at_slo, in µs.
inline constexpr double kSloP99Us = 1000;

}  // namespace turtlebench
